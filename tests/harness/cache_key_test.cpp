// Exhaustive cache-identity coverage: every field of a RunSpec that can
// change a simulation result must change the cache key, one flip at a
// time. A field this sweep misses would silently serve stale memoized
// outcomes after that field starts varying in a bench grid — the failure
// mode this file exists to make impossible.
#include "harness/cache.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "harness/identity.hpp"
#include "harness/json.hpp"
#include "harness/serialize.hpp"
#include "sim/trace.hpp"
#include "sim/ucode.hpp"

namespace t1000 {
namespace {

constexpr std::uint64_t kHash = 0xFEEDFACEull;
constexpr std::uint64_t kSteps = 1u << 20;

RunSpec base_spec() {
  // Selective with explicit non-default-ish values so every flip below
  // lands on a *different* value.
  RunSpec spec = selective_spec("gsm_dec", "base-label", 2, 10);
  return spec;
}

using Flip = std::pair<std::string, std::function<void(RunSpec&)>>;

std::vector<Flip> identity_flips() {
  std::vector<Flip> flips;
  const auto add = [&](std::string name, std::function<void(RunSpec&)> fn) {
    flips.emplace_back(std::move(name), std::move(fn));
  };

  // RunSpec scalars.
  add("workload", [](RunSpec& s) { s.workload = "g721_dec"; });
  add("selector", [](RunSpec& s) { s.selector = Selector::kGreedy; });
  add("max_cycles", [](RunSpec& s) { s.max_cycles = 12345; });
  // A verified run is a distinct entry: a cache hit under --verify must
  // mean "this configuration was verified when it was produced".
  add("verify", [](RunSpec& s) { s.verify = true; });
  // An observed run carries extra result payload (the stall breakdown), so
  // it must never satisfy — or be satisfied by — an unobserved entry.
  add("observe", [](RunSpec& s) { s.observe = true; });

  // MachineConfig core widths and structures.
  add("fetch_width", [](RunSpec& s) { s.machine.fetch_width = 8; });
  add("decode_width", [](RunSpec& s) { s.machine.decode_width = 8; });
  add("issue_width", [](RunSpec& s) { s.machine.issue_width = 8; });
  add("commit_width", [](RunSpec& s) { s.machine.commit_width = 8; });
  add("ruu_size", [](RunSpec& s) { s.machine.ruu_size = 128; });
  add("fetch_queue_size", [](RunSpec& s) { s.machine.fetch_queue_size = 32; });
  add("int_alus", [](RunSpec& s) { s.machine.int_alus = 6; });
  add("int_mults", [](RunSpec& s) { s.machine.int_mults = 2; });
  add("mem_ports", [](RunSpec& s) { s.machine.mem_ports = 4; });
  add("max_outstanding_misses",
      [](RunSpec& s) { s.machine.max_outstanding_misses = 4; });
  add("memory_latency", [](RunSpec& s) { s.machine.memory_latency = 99; });

  // Cache geometries, every level and every dimension.
  add("il1.size_bytes", [](RunSpec& s) { s.machine.il1.size_bytes = 8192; });
  add("il1.line_bytes", [](RunSpec& s) { s.machine.il1.line_bytes = 64; });
  add("il1.assoc", [](RunSpec& s) { s.machine.il1.assoc = 2; });
  add("il1.hit_latency", [](RunSpec& s) { s.machine.il1.hit_latency = 2; });
  add("dl1.size_bytes", [](RunSpec& s) { s.machine.dl1.size_bytes = 8192; });
  add("dl1.line_bytes", [](RunSpec& s) { s.machine.dl1.line_bytes = 64; });
  add("dl1.assoc", [](RunSpec& s) { s.machine.dl1.assoc = 8; });
  add("dl1.hit_latency", [](RunSpec& s) { s.machine.dl1.hit_latency = 2; });
  add("l2.size_bytes", [](RunSpec& s) { s.machine.l2.size_bytes = 1 << 20; });
  add("l2.line_bytes", [](RunSpec& s) { s.machine.l2.line_bytes = 128; });
  add("l2.assoc", [](RunSpec& s) { s.machine.l2.assoc = 8; });
  add("l2.hit_latency", [](RunSpec& s) { s.machine.l2.hit_latency = 12; });

  // TLBs.
  add("itlb.entries", [](RunSpec& s) { s.machine.itlb.entries = 16; });
  add("itlb.page_bytes", [](RunSpec& s) { s.machine.itlb.page_bytes = 8192; });
  add("itlb.miss_latency", [](RunSpec& s) { s.machine.itlb.miss_latency = 60; });
  add("dtlb.entries", [](RunSpec& s) { s.machine.dtlb.entries = 16; });
  add("dtlb.page_bytes", [](RunSpec& s) { s.machine.dtlb.page_bytes = 8192; });
  add("dtlb.miss_latency", [](RunSpec& s) { s.machine.dtlb.miss_latency = 60; });

  // PFU bank.
  add("pfu.count", [](RunSpec& s) { s.machine.pfu.count = 4; });
  add("pfu.reconfig_latency",
      [](RunSpec& s) { s.machine.pfu.reconfig_latency = 100; });
  add("pfu.multi_cycle_ext",
      [](RunSpec& s) { s.machine.pfu.multi_cycle_ext = true; });
  add("pfu.levels_per_cycle",
      [](RunSpec& s) { s.machine.pfu.levels_per_cycle = 1; });

  // Branch predictor.
  add("branch.kind",
      [](RunSpec& s) { s.machine.branch.kind = BranchPredictorKind::kBimodal; });
  add("branch.bimodal_entries",
      [](RunSpec& s) { s.machine.branch.bimodal_entries *= 2; });
  add("branch.target_entries",
      [](RunSpec& s) { s.machine.branch.target_entries *= 2; });
  add("branch.mispredict_penalty",
      [](RunSpec& s) { s.machine.branch.mispredict_penalty += 3; });

  // Selection policy, including the nested extraction policy.
  add("policy.num_pfus", [](RunSpec& s) { s.policy.num_pfus = kUnlimitedPfus; });
  add("policy.time_threshold",
      [](RunSpec& s) { s.policy.time_threshold = 0.25; });
  add("policy.lut_budget", [](RunSpec& s) { s.policy.lut_budget = 42; });
  add("policy.use_subsequence_matrix",
      [](RunSpec& s) { s.policy.use_subsequence_matrix = false; });
  add("policy.extract.max_width",
      [](RunSpec& s) { s.policy.extract.max_width += 1; });
  add("policy.extract.min_length",
      [](RunSpec& s) { s.policy.extract.min_length += 1; });
  add("policy.extract.max_length",
      [](RunSpec& s) { s.policy.extract.max_length += 1; });
  add("policy.extract.max_inputs",
      [](RunSpec& s) { s.policy.extract.max_inputs += 1; });
  add("policy.extract.max_outputs",
      [](RunSpec& s) { s.policy.extract.max_outputs += 1; });
  add("policy.extract.require_executed",
      [](RunSpec& s) {
        s.policy.extract.require_executed = !s.policy.extract.require_executed;
      });
  return flips;
}

TEST(CacheKey, EveryIdentityFieldChangesTheKey) {
  const CacheKey base = make_cache_key(base_spec(), kHash, kSteps);
  std::set<std::string> texts = {base.text};
  for (const Flip& flip : identity_flips()) {
    RunSpec spec = base_spec();
    flip.second(spec);
    const CacheKey key = make_cache_key(spec, kHash, kSteps);
    EXPECT_NE(key.text, base.text) << "flipping " << flip.first
                                   << " did not change the cache key";
    // Each flip must also be distinguishable from every *other* flip, not
    // just from the base — catches two fields serialized into one slot.
    EXPECT_TRUE(texts.insert(key.text).second)
        << "flipping " << flip.first << " collided with another flip";
  }
}

TEST(CacheKey, TraceIdentityChangesTheKey) {
  const CacheKey base = make_cache_key(base_spec(), kHash, kSteps);
  EXPECT_NE(base.text, make_cache_key(base_spec(), kHash + 1, kSteps).text);
  EXPECT_NE(base.text, make_cache_key(base_spec(), kHash, kSteps + 1).text);
}

TEST(CacheKey, LabelIsPresentationOnly) {
  RunSpec relabeled = base_spec();
  relabeled.label = "a-different-label";
  const CacheKey a = make_cache_key(base_spec(), kHash, kSteps);
  const CacheKey b = make_cache_key(relabeled, kHash, kSteps);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.hash, b.hash);
}

TEST(RunIdentity, BatchKeyPartitionsFlipsIntoSharedAndPerLaneFields) {
  // The grouping rule: specs share a grid scheduling unit (and may share
  // a batched replay) exactly when they share (workload, selector, policy,
  // verify). Reusing the exhaustive flip list keeps this classification
  // complete by construction — a new identity field added there must be
  // placed on one side of this fence.
  const std::string base_batch = RunIdentity::batch_key(base_spec());
  for (const Flip& flip : identity_flips()) {
    RunSpec spec = base_spec();
    flip.second(spec);
    const bool shared = flip.first == "workload" || flip.first == "selector" ||
                        flip.first == "verify" ||
                        flip.first.rfind("policy.", 0) == 0;
    if (shared) {
      EXPECT_NE(RunIdentity::batch_key(spec), base_batch)
          << "flipping " << flip.first << " must split the batch group";
    } else {
      // Machine config, max_cycles, and observe vary per lane: flipping
      // them must keep the spec in the same batch group.
      EXPECT_EQ(RunIdentity::batch_key(spec), base_batch)
          << "flipping " << flip.first << " must not split the batch group";
    }
  }
}

TEST(RunIdentity, PreparationKeyTracksOnlySelectorAndPolicy) {
  // The preparation (selection + rewrite + recorded trace) is a function of
  // (selector, policy) within one workload experiment; nothing else may
  // fork — or fail to fork — the memoized preparation.
  const std::string base_prep = RunIdentity::preparation_key(base_spec());
  for (const Flip& flip : identity_flips()) {
    RunSpec spec = base_spec();
    flip.second(spec);
    const bool preparation_field =
        flip.first == "selector" || flip.first.rfind("policy.", 0) == 0;
    if (preparation_field) {
      EXPECT_NE(RunIdentity::preparation_key(spec), base_prep)
          << "flipping " << flip.first << " must change the preparation";
    } else {
      EXPECT_EQ(RunIdentity::preparation_key(spec), base_prep)
          << "flipping " << flip.first << " must not change the preparation";
    }
  }
}

TEST(RunIdentity, BaselinePreparationIsSelectorIndependentOfPolicy) {
  // kNone never selects, so its preparation ignores the policy entirely —
  // baseline runs with different policies still share one recorded trace.
  RunSpec a = baseline_spec("gsm_dec");
  RunSpec b = baseline_spec("gsm_dec");
  b.policy.lut_budget = 42;
  EXPECT_EQ(RunIdentity::preparation_key(a), RunIdentity::preparation_key(b));
  EXPECT_EQ(RunIdentity::batch_key(a), RunIdentity::batch_key(b));
}

TEST(CacheKey, TextEmbedsTheFullIdentityJson) {
  // The key text is the identity document itself (self-describing cache
  // entries); spot-check that the nested sections are really in there.
  const RunSpec spec = base_spec();
  const CacheKey key = make_cache_key(spec, kHash, kSteps);
  EXPECT_NE(key.text.find("\"workload\":\"gsm_dec\""), std::string::npos);
  EXPECT_NE(key.text.find(to_json(spec.machine).dump()), std::string::npos);
  EXPECT_NE(key.text.find(to_json(spec.policy).dump()), std::string::npos);
  EXPECT_NE(key.text.find("\"trace\""), std::string::npos);
  EXPECT_EQ(key.text.find(spec.label), std::string::npos);
}

TEST(CacheKey, DecodedFormatVersionIsInTheTraceIdentity) {
  // Traces are recorded through the pre-decoded uop interpreter, so the
  // decoded-format version is result identity: a lowering change that
  // bumps kUcodeFormatVersion must invalidate every memoized outcome the
  // same way a trace-format bump does. Pin the exact serialized fields so
  // neither version can silently drop out of the key.
  const CacheKey key = make_cache_key(base_spec(), kHash, kSteps);
  EXPECT_NE(key.text.find("\"ucode\":" + std::to_string(kUcodeFormatVersion)),
            std::string::npos)
      << key.text;
  EXPECT_NE(key.text.find("\"format\":" + std::to_string(kTraceFormatVersion)),
            std::string::npos)
      << key.text;

  // Flipping the decoded-format field (the key is the identity JSON
  // itself) must change the key text — i.e. the field really participates
  // in identity rather than being decorative.
  std::string flipped = key.text;
  const std::string needle =
      "\"ucode\":" + std::to_string(kUcodeFormatVersion);
  flipped.replace(flipped.find(needle), needle.size(),
                  "\"ucode\":" + std::to_string(kUcodeFormatVersion + 1));
  EXPECT_NE(flipped, key.text);
  EXPECT_NE(to_hex(fnv1a64(flipped)), key.hash);
}

}  // namespace
}  // namespace t1000
