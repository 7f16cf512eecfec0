// Round-trip pins for the spec-side deserializers (serialize.hpp).
//
// The serve layer re-hydrates RunSpecs from client JSON; these tests pin
// the contract that makes daemon results byte-identical to in-process
// ones: to_json(run_spec_from_json(to_json(spec))) is the identity, absent
// members keep struct defaults, and unknown members fail loudly instead of
// silently simulating the wrong machine.
#include "harness/serialize.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "harness/experiment.hpp"
#include "harness/json.hpp"

namespace t1000 {
namespace {

TEST(SerializeRoundTrip, DefaultRunSpecSurvivesExactly) {
  RunSpec spec;
  spec.workload = "gsm_dec";
  const Json j = to_json(spec);
  const RunSpec back = run_spec_from_json(j);
  EXPECT_EQ(to_json(back).dump(), j.dump());
}

TEST(SerializeRoundTrip, FullyCustomizedRunSpecSurvivesExactly) {
  RunSpec spec = selective_spec("mpeg2_enc", "4pfu", 4, 10);
  spec.machine.fetch_width = 8;
  spec.machine.ruu_size = 128;
  spec.machine.il1.size_bytes = 64 * 1024;
  spec.machine.il1.assoc = 2;
  spec.machine.dtlb.entries = 128;
  spec.machine.pfu.multi_cycle_ext = true;
  spec.machine.pfu.levels_per_cycle = 2;
  spec.machine.branch.kind = BranchPredictorKind::kGshare;
  spec.machine.branch.mispredict_penalty = 7;
  spec.policy.time_threshold = 0.01;
  spec.policy.lut_budget = 300;
  spec.policy.extract.max_width = 12;
  spec.max_cycles = 123456789u;
  spec.verify = true;
  spec.observe = true;
  const Json j = to_json(spec);
  const RunSpec back = run_spec_from_json(j);
  EXPECT_EQ(to_json(back).dump(), j.dump());
}

TEST(SerializeRoundTrip, AbsentMembersKeepStructDefaults) {
  // A minimal request names only what it changes; everything else must
  // default exactly as the default-constructed structs do.
  const Json j = Json::parse(
      "{\"workload\": \"epic\", \"machine\": {\"issue_width\": 8}}");
  const RunSpec spec = run_spec_from_json(j);
  const RunSpec defaults;
  EXPECT_EQ(spec.workload, "epic");
  EXPECT_EQ(spec.machine.issue_width, 8);
  EXPECT_EQ(spec.machine.fetch_width, defaults.machine.fetch_width);
  EXPECT_EQ(spec.machine.il1.size_bytes, defaults.machine.il1.size_bytes);
  EXPECT_EQ(spec.selector, defaults.selector);
  EXPECT_EQ(spec.max_cycles, defaults.max_cycles);
  EXPECT_EQ(spec.verify, defaults.verify);

  // A partial cache object keeps that level's geometry; it used to reset
  // size_bytes to 0 and the run died dividing by zero sets.
  const MachineConfig slow_l1 = machine_config_from_json(
      Json::parse("{\"dl1\": {\"hit_latency\": 2}}"));
  EXPECT_EQ(slow_l1.dl1.hit_latency, 2);
  EXPECT_EQ(slow_l1.dl1.size_bytes, defaults.machine.dl1.size_bytes);
  EXPECT_EQ(slow_l1.dl1.assoc, defaults.machine.dl1.assoc);
}

TEST(SerializeRoundTrip, UnknownMembersAreRejectedWithContext) {
  const auto expect_throw_containing = [](const std::string& text,
                                          const std::string& needle) {
    try {
      run_spec_from_json(Json::parse(text));
      FAIL() << "expected JsonError for: " << text;
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "diagnostic was: " << e.what();
    }
  };
  expect_throw_containing("{\"workload\": \"epic\", \"bogus\": 1}", "bogus");
  expect_throw_containing(
      "{\"workload\": \"epic\", \"machine\": {\"issue_widht\": 8}}",
      "issue_widht");
  expect_throw_containing(
      "{\"workload\": \"epic\", \"policy\": {\"extract\": {\"depth\": 3}}}",
      "depth");
  expect_throw_containing(
      "{\"workload\": \"epic\", \"machine\": {\"branch\": {\"knid\": "
      "\"gshare\"}}}",
      "knid");
}

TEST(SerializeRoundTrip, InvalidMachinesAreRejectedNamingTheField) {
  // machine_config_from_json runs the same validate() simulate() does,
  // surfaced as a JsonError so the serve layer answers 400.
  const std::pair<const char*, long long> cases[] = {
      {"ruu_size", 0},         {"ruu_size", -5},
      {"ruu_size", 2000000000}, {"issue_width", 0},
      {"commit_width", 0},     {"fetch_queue_size", 0},
  };
  for (const auto& [field, value] : cases) {
    Json machine = Json::object();
    machine[field] = Json(value);
    try {
      machine_config_from_json(machine);
      ADD_FAILURE() << field << " = " << value << " accepted";
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

TEST(SerializeRoundTrip, InvalidPoliciesAreRejectedNamingTheField) {
  // select_policy_from_json runs validate(SelectPolicy), extract policy
  // included, as a JsonError naming the field and its bound.
  const std::pair<const char*, const char*> cases[] = {
      {"extract.max_inputs", R"({"extract": {"max_inputs": 0}})"},
      {"extract.max_inputs", R"({"extract": {"max_inputs": 5}})"},
      {"extract.max_outputs", R"({"extract": {"max_outputs": 0}})"},
      {"extract.min_length", R"({"extract": {"min_length": 0}})"},
      {"extract.max_length", R"({"extract": {"max_length": 1}})"},
      {"extract.max_width", R"({"extract": {"max_width": 33}})"},
      {"num_pfus", R"({"num_pfus": -2})"},
      {"num_pfus", R"({"num_pfus": 5000})"},
      {"time_threshold", R"({"time_threshold": -0.5})"},
      {"lut_budget", R"({"lut_budget": -1})"},
  };
  for (const auto& [field, policy] : cases) {
    try {
      select_policy_from_json(Json::parse(policy));
      ADD_FAILURE() << policy << " accepted";
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("outside"), std::string::npos)
          << e.what();
    }
  }
  // The defaults, unlimited PFUs and the widest legal shape all pass.
  EXPECT_NO_THROW(select_policy_from_json(Json::parse(
      R"({"num_pfus": -1, "extract": {"max_inputs": 4, "max_outputs": 2}})")));
  EXPECT_NO_THROW(validate(SelectPolicy{}));
}

TEST(SerializeRoundTrip, BadEnumNamesAreRejected) {
  EXPECT_THROW(run_spec_from_json(Json::parse(
                   "{\"workload\": \"epic\", \"selector\": \"wat\"}")),
               JsonError);
  EXPECT_THROW(
      run_spec_from_json(Json::parse(
          "{\"workload\": \"epic\", \"machine\": {\"branch\": {\"kind\": "
          "\"oracle\"}}}")),
      JsonError);
}

TEST(SerializeRoundTrip, BranchPredictorNamesRoundTrip) {
  for (const BranchPredictorKind kind :
       {BranchPredictorKind::kPerfect, BranchPredictorKind::kBimodal,
        BranchPredictorKind::kGshare, BranchPredictorKind::kStaticNotTaken}) {
    BranchPredictorKind back{};
    ASSERT_TRUE(branch_predictor_from_name(branch_predictor_name(kind), &back));
    EXPECT_EQ(back, kind);
  }
  BranchPredictorKind out = BranchPredictorKind::kPerfect;
  EXPECT_FALSE(branch_predictor_from_name("oracle", &out));
  EXPECT_EQ(out, BranchPredictorKind::kPerfect);  // untouched on failure
}

}  // namespace
}  // namespace t1000
