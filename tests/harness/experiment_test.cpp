#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <string>

namespace t1000 {
namespace {

const Workload& small_workload() { return *find_workload("gsm_dec"); }

RunSpec selective_two() {
  return selective_spec(small_workload().name, "2pfu", 2, 10);
}

TEST(Experiment, BaselineRunHasNoConfigs) {
  WorkloadExperiment exp(small_workload());
  const RunOutcome r = exp.run(baseline_spec(small_workload().name));
  EXPECT_EQ(r.num_configs, 0);
  EXPECT_EQ(r.num_apps, 0);
  EXPECT_GT(r.stats.cycles, 0u);
  EXPECT_NE(r.checksum, 0u);
}

TEST(Experiment, GreedyAndSelectiveValidateChecksums) {
  WorkloadExperiment exp(small_workload());
  const RunOutcome base = exp.run(baseline_spec(small_workload().name));
  const RunOutcome greedy = exp.run(
      greedy_spec(small_workload().name, "best", PfuConfig::kUnlimited, 0));
  const RunOutcome sel = exp.run(selective_two());
  EXPECT_EQ(greedy.checksum, base.checksum);
  EXPECT_EQ(sel.checksum, base.checksum);
  EXPECT_GT(greedy.num_configs, 0);
  EXPECT_GT(sel.num_configs, 0);
  EXPECT_LE(sel.num_configs, greedy.num_configs);
}

TEST(Experiment, OutcomeVectorsAreParallel) {
  WorkloadExperiment exp(small_workload());
  const RunOutcome r = exp.run(
      greedy_spec(small_workload().name, "best", PfuConfig::kUnlimited, 0));
  EXPECT_EQ(static_cast<int>(r.lengths.size()), r.num_configs);
  EXPECT_EQ(static_cast<int>(r.lut_costs.size()), r.num_configs);
  EXPECT_GE(r.num_apps, r.num_configs);
}

TEST(Experiment, SpeedupIsRatioOfCycles) {
  SimStats a;
  a.cycles = 200;
  SimStats b;
  b.cycles = 100;
  EXPECT_DOUBLE_EQ(speedup(a, b), 2.0);
  EXPECT_DOUBLE_EQ(speedup(b, a), 0.5);
}

TEST(Experiment, MachineFactories) {
  const MachineConfig base = baseline_machine();
  EXPECT_EQ(base.pfu.count, 0);
  const MachineConfig two = pfu_machine(2, 42);
  EXPECT_EQ(two.pfu.count, 2);
  EXPECT_EQ(two.pfu.reconfig_latency, 42);
  EXPECT_EQ(two.issue_width, base.issue_width);  // only PFUs differ
}

TEST(Experiment, SpecFactoriesFillEveryIdentityField) {
  const RunSpec base = baseline_spec("gsm_dec");
  EXPECT_EQ(base.workload, "gsm_dec");
  EXPECT_EQ(base.label, "baseline");
  EXPECT_EQ(base.selector, Selector::kNone);
  EXPECT_EQ(base.machine.pfu.count, 0);

  const RunSpec greedy = greedy_spec("gsm_dec", "best", 2, 10);
  EXPECT_EQ(greedy.selector, Selector::kGreedy);
  EXPECT_EQ(greedy.machine.pfu.count, 2);
  EXPECT_EQ(greedy.machine.pfu.reconfig_latency, 10);

  // selective_spec keeps the policy's PFU budget in sync with the machine,
  // including the unlimited sentinel translation.
  const RunSpec sel = selective_spec("gsm_dec", "2pfu", 2, 10);
  EXPECT_EQ(sel.selector, Selector::kSelective);
  EXPECT_EQ(sel.policy.num_pfus, 2);
  const RunSpec unl =
      selective_spec("gsm_dec", "unl", PfuConfig::kUnlimited, 10);
  EXPECT_EQ(unl.machine.pfu.count, PfuConfig::kUnlimited);
  EXPECT_EQ(unl.policy.num_pfus, kUnlimitedPfus);
}

TEST(Experiment, SelectorNamesRoundTrip) {
  for (const Selector s :
       {Selector::kNone, Selector::kGreedy, Selector::kSelective}) {
    Selector parsed = Selector::kNone;
    EXPECT_TRUE(selector_from_name(selector_name(s), &parsed));
    EXPECT_EQ(parsed, s);
  }
  Selector parsed = Selector::kGreedy;
  EXPECT_FALSE(selector_from_name("bogus", &parsed));
  EXPECT_EQ(parsed, Selector::kGreedy);
}

TEST(Experiment, SelectiveHonorsThresholdPolicy) {
  WorkloadExperiment exp(small_workload());
  RunSpec impossible = selective_two();
  impossible.policy.time_threshold = 0.9;  // nothing is 90% of runtime
  const RunOutcome r = exp.run(impossible);
  EXPECT_EQ(r.num_configs, 0);
  EXPECT_EQ(r.num_apps, 0);
}

TEST(Experiment, InvalidPolicyFailsBeforeAnyWork) {
  // A zero max_inputs used to surface as std::bad_array_new_length from
  // deep inside selection; the entry point now names the field.
  WorkloadExperiment exp(small_workload());
  RunSpec spec = selective_two();
  spec.policy.extract.max_inputs = 0;
  try {
    exp.run(spec);
    ADD_FAILURE() << "max_inputs = 0 accepted";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("extract.max_inputs"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(exp.prepared(spec), SimError);
  EXPECT_THROW(exp.verify(spec), SimError);
  EXPECT_EQ(exp.trace_counters().recorded, 1u);  // only the eager baseline
}

TEST(Experiment, DeterministicAcrossRepeats) {
  WorkloadExperiment exp(small_workload());
  const RunOutcome a = exp.run(selective_two());
  const RunOutcome b = exp.run(selective_two());
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.num_configs, b.num_configs);
}

}  // namespace
}  // namespace t1000
