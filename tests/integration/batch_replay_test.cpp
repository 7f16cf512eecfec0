// Property test for config-parallel batched replay (simulate_replay_batch):
// for randomized lane counts, shuffled config orders, and mixed
// observed/plain lanes, every lane of a batch must be byte-identical —
// statistics and stall breakdowns — to an independent single-lane replay
// of the same configuration. The seed is fixed, so a failure reproduces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <random>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/serialize.hpp"
#include "uarch/timing.hpp"
#include "workloads/workload.hpp"

namespace t1000 {
namespace {

// A pool of deliberately varied machine configurations: widths, window and
// MSHR limits, cache/TLB geometry, branch predictors, PFU banks. Built
// deterministically so every run exercises the same population.
std::vector<MachineConfig> config_pool() {
  std::vector<MachineConfig> pool;
  pool.push_back(pfu_machine(2, 10));
  pool.push_back(pfu_machine(4, 0));
  pool.push_back(pfu_machine(PfuConfig::kUnlimited, 0));

  MachineConfig narrow = pfu_machine(2, 50);
  narrow.fetch_width = narrow.decode_width = 2;
  narrow.issue_width = narrow.commit_width = 2;
  narrow.ruu_size = 16;
  narrow.fetch_queue_size = 4;
  narrow.int_alus = 2;
  narrow.mem_ports = 1;
  narrow.max_outstanding_misses = 2;
  pool.push_back(narrow);

  MachineConfig small_caches = pfu_machine(2, 10);
  small_caches.il1 = {.size_bytes = 4 * 1024, .line_bytes = 16, .assoc = 1,
                      .hit_latency = 1};
  small_caches.dl1 = {.size_bytes = 4 * 1024, .line_bytes = 16, .assoc = 2,
                      .hit_latency = 1};
  small_caches.l2 = {.size_bytes = 64 * 1024, .line_bytes = 32, .assoc = 2,
                     .hit_latency = 8};
  small_caches.memory_latency = 40;
  small_caches.itlb.entries = 8;
  small_caches.dtlb.entries = 8;
  pool.push_back(small_caches);

  MachineConfig bimodal = pfu_machine(2, 10);
  bimodal.branch.kind = BranchPredictorKind::kBimodal;
  pool.push_back(bimodal);

  MachineConfig multi_cycle = pfu_machine(4, 10);
  multi_cycle.pfu.multi_cycle_ext = true;
  multi_cycle.pfu.levels_per_cycle = 1;
  pool.push_back(multi_cycle);

  MachineConfig wide = pfu_machine(8, 0);
  wide.fetch_width = wide.decode_width = 8;
  wide.issue_width = wide.commit_width = 8;
  wide.ruu_size = 128;
  wide.int_alus = 8;
  wide.mem_ports = 4;
  pool.push_back(wide);
  return pool;
}

struct Prepared {
  const Program* program;
  const ExtInstTable* table;
  const CommittedTrace* trace;
};

// One experiment per selector, shared across rounds (trace recording is
// the expensive part). kSelective compiles for the pool's 2-PFU machines;
// lanes with more PFUs than the selection assumed are still legal.
Prepared prepared_for(Selector selector) {
  static WorkloadExperiment exp(*find_workload("gsm_dec"));
  RunSpec spec;
  spec.workload = "gsm_dec";
  spec.selector = selector;
  if (selector == Selector::kSelective) spec.policy.num_pfus = 2;
  const WorkloadExperiment::PreparedView view = exp.prepared(spec);
  return {view.program, view.table, view.trace};
}

std::string lane_fingerprint(const SimStats& stats,
                             const SimObservation* obs) {
  std::string fp = to_json(stats).dump();
  if (obs != nullptr) fp += "|" + to_json(obs->stalls).dump();
  return fp;
}

TEST(BatchReplay, RandomizedLaneSetsMatchIndependentReplays) {
  std::mt19937 rng(0xC0FFEEu);
  const std::vector<MachineConfig> pool = config_pool();

  for (const Selector selector :
       {Selector::kNone, Selector::kGreedy, Selector::kSelective}) {
    const Prepared prep = prepared_for(selector);
    ASSERT_NE(prep.program, nullptr);
    ASSERT_NE(prep.trace, nullptr);

    for (int round = 0; round < 6; ++round) {
      // A random draw (with repeats) of random size, in shuffled order,
      // with a random subset of lanes observed.
      const std::size_t lane_count =
          1 + rng() % (2 * pool.size());
      std::vector<std::size_t> picks(lane_count);
      std::vector<bool> observe(lane_count);
      for (std::size_t i = 0; i < lane_count; ++i) {
        picks[i] = rng() % pool.size();
        observe[i] = rng() % 2 == 0;
      }
      std::shuffle(picks.begin(), picks.end(), rng);

      BatchSimRequest request;
      request.program = prep.program;
      request.ext_table = prep.table;
      request.trace = prep.trace;
      request.lanes.resize(lane_count);
      std::vector<SimObservation> batch_obs(lane_count);
      for (std::size_t i = 0; i < lane_count; ++i) {
        request.lanes[i].machine = pool[picks[i]];
        if (observe[i]) request.lanes[i].observation = &batch_obs[i];
      }
      const std::vector<BatchLaneResult> lanes =
          simulate_replay_batch(request);
      ASSERT_EQ(lanes.size(), lane_count);

      for (std::size_t i = 0; i < lane_count; ++i) {
        ASSERT_EQ(lanes[i].error, nullptr)
            << "selector " << selector_name(selector) << " round " << round
            << " lane " << i;
        SimObservation single_obs;
        const SimStats single = simulate(
            {.program = prep.program,
             .ext_table = prep.table,
             .trace = prep.trace,
             .machine = pool[picks[i]],
             .observation = observe[i] ? &single_obs : nullptr});
        EXPECT_EQ(lane_fingerprint(lanes[i].stats,
                                   observe[i] ? &batch_obs[i] : nullptr),
                  lane_fingerprint(single,
                                   observe[i] ? &single_obs : nullptr))
            << "selector " << selector_name(selector) << " round " << round
            << " lane " << i << " (config " << picks[i] << ")";
      }
    }
  }
}

TEST(BatchReplay, LaneFailuresAreIsolated) {
  // A lane that exhausts its cycle budget carries SimError in its slot;
  // sibling lanes complete untouched and stay byte-identical to their
  // independent replays.
  const Prepared prep = prepared_for(Selector::kNone);
  BatchSimRequest request;
  request.program = prep.program;
  request.trace = prep.trace;
  request.lanes.resize(3);
  request.lanes[0].machine = baseline_machine();
  request.lanes[1].machine = baseline_machine();
  request.lanes[1].max_cycles = 10;  // guaranteed to blow the budget
  request.lanes[2].machine = pfu_machine(2, 10);

  const std::vector<BatchLaneResult> lanes = simulate_replay_batch(request);
  ASSERT_EQ(lanes.size(), 3u);
  EXPECT_EQ(lanes[0].error, nullptr);
  ASSERT_NE(lanes[1].error, nullptr);
  EXPECT_THROW(std::rethrow_exception(lanes[1].error), SimError);
  EXPECT_EQ(lanes[2].error, nullptr);

  const SimStats a = simulate(
      {.program = prep.program, .trace = prep.trace,
       .machine = baseline_machine()});
  const SimStats c = simulate(
      {.program = prep.program, .trace = prep.trace,
       .machine = pfu_machine(2, 10)});
  EXPECT_EQ(to_json(lanes[0].stats).dump(), to_json(a).dump());
  EXPECT_EQ(to_json(lanes[2].stats).dump(), to_json(c).dump());
}

TEST(BatchReplay, InvalidLaneMachineFailsAlone) {
  // Machine validation runs inside each lane's own try: a lane with an
  // unusable machine carries SimError naming the field, and its siblings
  // still complete.
  const Prepared prep = prepared_for(Selector::kNone);
  BatchSimRequest request;
  request.program = prep.program;
  request.trace = prep.trace;
  request.lanes.resize(3);
  request.lanes[0].machine = baseline_machine();
  request.lanes[1].machine = baseline_machine();
  request.lanes[1].machine.ruu_size = 0;
  request.lanes[2].machine = baseline_machine();
  request.lanes[2].machine.commit_width = 0;

  const std::vector<BatchLaneResult> lanes = simulate_replay_batch(request);
  ASSERT_EQ(lanes.size(), 3u);
  EXPECT_EQ(lanes[0].error, nullptr);
  const auto message = [](const std::exception_ptr& error) -> std::string {
    try {
      std::rethrow_exception(error);
    } catch (const SimError& e) {
      return e.what();
    } catch (...) {
      return "not a SimError";
    }
  };
  ASSERT_NE(lanes[1].error, nullptr);
  EXPECT_NE(message(lanes[1].error).find("ruu_size"), std::string::npos);
  ASSERT_NE(lanes[2].error, nullptr);
  EXPECT_NE(message(lanes[2].error).find("commit_width"), std::string::npos);
  const SimStats a = simulate(
      {.program = prep.program, .trace = prep.trace,
       .machine = baseline_machine()});
  EXPECT_EQ(to_json(lanes[0].stats).dump(), to_json(a).dump());
}

TEST(BatchReplay, SingleLaneBatchMatchesPlainReplay) {
  const Prepared prep = prepared_for(Selector::kGreedy);
  BatchSimRequest request;
  request.program = prep.program;
  request.ext_table = prep.table;
  request.trace = prep.trace;
  request.lanes.resize(1);
  request.lanes[0].machine = pfu_machine(4, 10);
  const std::vector<BatchLaneResult> lanes = simulate_replay_batch(request);
  ASSERT_EQ(lanes.size(), 1u);
  ASSERT_EQ(lanes[0].error, nullptr);
  const SimStats single = simulate(
      {.program = prep.program, .ext_table = prep.table, .trace = prep.trace,
       .machine = pfu_machine(4, 10)});
  EXPECT_EQ(to_json(lanes[0].stats).dump(), to_json(single).dump());
}

}  // namespace
}  // namespace t1000
