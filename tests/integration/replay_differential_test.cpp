// The replay-equivalence proof behind the trace-sharing engine.
//
// Every timing run replays a recorded committed trace (sim/trace.hpp)
// through a TraceCursor, and the pipeline reads nothing but the cursor's
// stream. Replay is therefore exact iff that stream equals what live
// execution of the same rewritten program yields: `halted`, `next_pc`,
// and every DecodedStep field but the architectural values, off-the-end
// halt sentinel included. This suite checks that stream against the
// reference interpreter over every registered workload (paper suite +
// extended suite) and all three selectors, then holds the engine's
// replayed, observed and batched runs to the standalone simulate() entry
// over a deliberately hostile set of machine configurations: PFU counts
// from 2 to unlimited, reconfiguration latencies from free to punitive,
// shrunken cache/TLB geometries, a real (mispredicting) branch predictor,
// multi-cycle extended instructions, and a narrow machine with tight
// RUU/MSHR limits.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "asmkit/assembler.hpp"
#include "harness/experiment.hpp"
#include "harness/serialize.hpp"
#include "sim/executor.hpp"
#include "sim/trace.hpp"
#include "uarch/timing.hpp"

namespace t1000 {
namespace {

struct NamedMachine {
  std::string name;
  MachineConfig machine;
};

// The sweep axes. Every configuration carries PFUs so the rewritten
// (EXT-bearing) programs are legal everywhere.
const std::vector<NamedMachine>& machines() {
  static const std::vector<NamedMachine> configs = [] {
    std::vector<NamedMachine> out;
    out.push_back({"2pfu_lat10", pfu_machine(2, 10)});
    out.push_back({"4pfu_lat10", pfu_machine(4, 10)});
    out.push_back({"unlimited_lat0", pfu_machine(PfuConfig::kUnlimited, 0)});
    out.push_back({"2pfu_lat0", pfu_machine(2, 0)});
    out.push_back({"2pfu_lat100", pfu_machine(2, 100)});

    MachineConfig small = pfu_machine(2, 10);
    small.il1 = {.size_bytes = 4 * 1024, .line_bytes = 16, .assoc = 1,
                 .hit_latency = 1};
    small.dl1 = {.size_bytes = 4 * 1024, .line_bytes = 16, .assoc = 2,
                 .hit_latency = 1};
    small.l2 = {.size_bytes = 64 * 1024, .line_bytes = 32, .assoc = 2,
                .hit_latency = 8};
    small.memory_latency = 40;
    small.itlb.entries = 8;
    small.dtlb.entries = 8;
    out.push_back({"small_caches", small});

    MachineConfig bimodal = pfu_machine(2, 10);
    bimodal.branch.kind = BranchPredictorKind::kBimodal;
    out.push_back({"bimodal", bimodal});

    MachineConfig deep = pfu_machine(4, 10);
    deep.pfu.multi_cycle_ext = true;
    deep.pfu.levels_per_cycle = 1;
    out.push_back({"multi_cycle_ext", deep});

    MachineConfig narrow = pfu_machine(2, 10);
    narrow.fetch_width = 2;
    narrow.decode_width = 2;
    narrow.issue_width = 2;
    narrow.commit_width = 2;
    narrow.ruu_size = 16;
    narrow.fetch_queue_size = 4;
    narrow.int_alus = 2;
    narrow.mem_ports = 1;
    narrow.max_outstanding_misses = 2;
    out.push_back({"narrow_ruu16_mshr2", narrow});
    return out;
  }();
  return configs;
}

const std::vector<Workload>& every_workload() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> out = all_workloads();
    const std::vector<Workload>& extra = extended_workloads();
    out.insert(out.end(), extra.begin(), extra.end());
    return out;
  }();
  return all;
}

RunSpec spec_for(const Workload& w, Selector selector,
                 const NamedMachine& nm) {
  RunSpec spec;
  spec.workload = w.name;
  spec.label = nm.name;
  spec.selector = selector;
  spec.machine = nm.machine;
  if (selector == Selector::kSelective) {
    // The selection must know the PFU budget it compiles for (the same
    // invariant selective_spec() maintains).
    spec.policy.num_pfus = nm.machine.pfu.count == PfuConfig::kUnlimited
                               ? kUnlimitedPfus
                               : nm.machine.pfu.count;
  }
  return spec;
}

// The first timing-visible field on which two decoded steps differ, or
// "" when they agree. Everything the pipeline reads is compared; the
// architectural values (src_vals/result/has_result/num_src) are outside
// the recorded projection.
std::string timing_view_diff(const DecodedStep& got, const DecodedStep& want) {
  if (got.info.index != want.info.index) return "index";
  if (got.info.next_index != want.info.next_index) return "next_index";
  if (!(got.info.ins == want.info.ins)) return "ins";
  if (got.info.is_mem != want.info.is_mem) return "is_mem";
  if (got.info.mem_addr != want.info.mem_addr) return "mem_addr";
  if (got.info.mem_size != want.info.mem_size) return "mem_size";
  if (got.info.branch_taken != want.info.branch_taken) return "branch_taken";
  if (got.pc != want.pc) return "pc";
  if (got.fu != want.fu) return "fu";
  if (got.srcs.count != want.srcs.count) return "srcs.count";
  for (int i = 0; i < got.srcs.count; ++i) {
    if (got.srcs.reg[i] != want.srcs.reg[i]) return "srcs.reg";
  }
  if (got.dst != want.dst) return "dst";
  if (got.dst2 != want.dst2) return "dst2";
  if (got.is_ctrl != want.is_ctrl) return "is_ctrl";
  if (got.is_store != want.is_store) return "is_store";
  if (got.is_ext != want.is_ext) return "is_ext";
  return "";
}

// Walks a TraceCursor over `trace` in lockstep with the reference
// interpreter running `program` live; returns the number of steps.
std::size_t expect_stream_matches_reference(const CommittedTrace& trace,
                                            const Program& program,
                                            const ExtInstTable* table,
                                            const std::string& tag) {
  TraceCursor cursor(trace, program);
  Executor exec(program, table, ExecMode::kReference);
  std::size_t n = 0;
  while (!exec.halted()) {
    EXPECT_FALSE(cursor.halted()) << tag << ": trace ends at step " << n;
    if (cursor.halted()) return n;
    EXPECT_EQ(cursor.next_pc(), program.pc_of(exec.pc()))
        << tag << " step " << n;
    const DecodedStep want = decode_step(exec.step(), program);
    const std::string diff = timing_view_diff(cursor.step(), want);
    EXPECT_EQ(diff, "") << tag << " step " << n << " differs in " << diff;
    if (!diff.empty()) return n;
    ++n;
  }
  EXPECT_TRUE(cursor.halted()) << tag << ": trace runs past the halt";
  EXPECT_EQ(trace.checksum(), exec.reg(kRegV0)) << tag;
  return n;
}

class ReplayDifferential : public ::testing::TestWithParam<std::size_t> {
 protected:
  static WorkloadExperiment& experiment(std::size_t index) {
    static std::vector<std::unique_ptr<WorkloadExperiment>> cache(
        every_workload().size());
    auto& slot = cache[index];
    if (!slot) {
      slot = std::make_unique<WorkloadExperiment>(every_workload()[index]);
    }
    return *slot;
  }
};

TEST_P(ReplayDifferential, ReplayMatchesDirectSimulationByteForByte) {
  // The engine's prepared trace, replayed, must yield the stream the
  // reference interpreter yields live, step for step and field for field.
  const Workload& w = every_workload()[GetParam()];
  WorkloadExperiment& exp = experiment(GetParam());

  for (const Selector selector :
       {Selector::kNone, Selector::kGreedy, Selector::kSelective}) {
    const RunSpec spec = spec_for(w, selector, machines()[0]);
    const WorkloadExperiment::PreparedView view = exp.prepared(spec);
    ASSERT_NE(view.program, nullptr);
    ASSERT_NE(view.trace, nullptr);
    const std::string tag = w.name + " / " + std::string(selector_name(selector));

    const std::size_t steps = expect_stream_matches_reference(
        *view.trace, *view.program, view.table, tag);
    EXPECT_EQ(steps, view.trace->size()) << tag;

    // The engine reports the very trace it replayed.
    const RunOutcome replayed = exp.run(spec);
    EXPECT_EQ(replayed.trace_steps, view.trace->size()) << tag;
    EXPECT_EQ(replayed.trace_hash, view.trace->content_hash()) << tag;
    EXPECT_EQ(replayed.checksum, view.trace->checksum()) << tag;
  }
}

TEST_P(ReplayDifferential, ObservedReplayMatchesDirectStallBreakdown) {
  // The engine's observed runs replay the shared prepared trace, while a
  // standalone observed simulate() replays it too (or, on the first
  // machine, records its own): both must attribute identically. Every
  // non-committing cycle is charged to exactly one cause, and observation
  // is invisible to the statistics. Observed runs step every cycle while
  // plain runs jump over quiet stretches, so equal statistics on every
  // hostile machine is also the independent check of that jump.
  const Workload& w = every_workload()[GetParam()];
  WorkloadExperiment& exp = experiment(GetParam());

  for (const Selector selector :
       {Selector::kNone, Selector::kGreedy, Selector::kSelective}) {
    for (const NamedMachine& nm : machines()) {
      RunSpec spec = spec_for(w, selector, nm);
      spec.observe = true;
      const WorkloadExperiment::PreparedView view = exp.prepared(spec);
      ASSERT_NE(view.program, nullptr);
      ASSERT_NE(view.trace, nullptr);
      const std::string tag = w.name + " / " +
                              std::string(selector_name(selector)) + " / " +
                              nm.name;

      SimObservation obs;
      const bool records = &nm == &machines().front();
      const SimStats standalone = simulate({.program = view.program, .ext_table = view.table, .trace = records ? nullptr : view.trace, .machine = spec.machine, .max_cycles = spec.max_cycles, .observation = &obs});
      EXPECT_EQ(obs.stalls.cycles, standalone.cycles) << tag;
      EXPECT_EQ(obs.stalls.cause_cycles(), obs.stalls.stall_cycles()) << tag;

      const SimStats plain = simulate({.program = view.program, .ext_table = view.table, .trace = view.trace, .machine = spec.machine, .max_cycles = spec.max_cycles});
      EXPECT_EQ(to_json(plain).dump(), to_json(standalone).dump()) << tag;

      const RunOutcome engine = exp.run(spec);
      ASSERT_TRUE(engine.observed) << tag;
      EXPECT_EQ(to_json(engine.stats).dump(), to_json(standalone).dump())
          << tag;
      EXPECT_EQ(to_json(engine.stalls).dump(), to_json(obs.stalls).dump())
          << tag;
    }
  }
}

TEST_P(ReplayDifferential, BatchedReplayMatchesSequentialRuns) {
  // The config-parallel engine path: every machine configuration that
  // shares a preparation is timed as one lane of a single batched sweep.
  // Batching is only sound if each lane's outcome — statistics and, for
  // observed lanes, the stall breakdown — is byte-identical to the run
  // the sequential path would have produced.
  const Workload& w = every_workload()[GetParam()];
  WorkloadExperiment& exp = experiment(GetParam());

  for (const Selector selector :
       {Selector::kNone, Selector::kGreedy, Selector::kSelective}) {
    std::vector<RunSpec> specs;
    for (const NamedMachine& nm : machines()) {
      // Selective lanes must share the selection policy (the batch-identity
      // rule): restrict that sweep to the 2-PFU machines.
      if (selector == Selector::kSelective && nm.machine.pfu.count != 2) {
        continue;
      }
      RunSpec spec = spec_for(w, selector, nm);
      spec.observe = specs.size() % 2 == 1;  // mix observed and plain lanes
      specs.push_back(spec);
    }
    ASSERT_GT(specs.size(), 1u);

    const std::vector<WorkloadExperiment::BatchRunOutcome> lanes =
        exp.run_batch(specs);
    ASSERT_EQ(lanes.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ASSERT_EQ(lanes[i].error, nullptr)
          << w.name << " / " << selector_name(selector) << " / "
          << specs[i].label;
      const RunOutcome single = exp.run(specs[i]);
      EXPECT_EQ(to_json(lanes[i].outcome.stats).dump(),
                to_json(single.stats).dump())
          << w.name << " / " << selector_name(selector) << " / "
          << specs[i].label;
      EXPECT_EQ(lanes[i].outcome.observed, single.observed);
      if (single.observed) {
        EXPECT_EQ(to_json(lanes[i].outcome.stalls).dump(),
                  to_json(single.stalls).dump())
            << w.name << " / " << selector_name(selector) << " / "
            << specs[i].label;
      }
    }
  }
}

TEST_P(ReplayDifferential, WidenedShapesReplayByteForByte) {
  // Widened candidate shapes (ExtractPolicy::max_inputs/max_outputs) route
  // through their own shape-sensitive analysis and produce MIMO EXTs; the
  // replay engine must stay cycle-exact for them too, and the selections
  // must pass the full static battery (translation proof included) before
  // they are timed.
  const Workload& w = every_workload()[GetParam()];
  WorkloadExperiment& exp = experiment(GetParam());

  const int shapes[][2] = {{4, 1}, {4, 2}};
  for (const auto& shape : shapes) {
    for (const Selector selector : {Selector::kGreedy, Selector::kSelective}) {
      RunSpec spec = spec_for(w, selector, machines()[0]);
      spec.policy.extract.max_inputs = shape[0];
      spec.policy.extract.max_outputs = shape[1];
      spec.verify = true;
      const std::string tag = w.name + " / " +
                              std::string(selector_name(selector)) + " / " +
                              std::to_string(shape[0]) + "in" +
                              std::to_string(shape[1]) + "out";

      const VerifyReport& report = exp.verify(spec);
      EXPECT_TRUE(report.ok()) << tag << ": " << report.summary();

      const WorkloadExperiment::PreparedView view = exp.prepared(spec);
      ASSERT_NE(view.program, nullptr);
      const RunOutcome replayed = exp.run(spec);
      const SimStats direct =
          simulate({.program = view.program, .ext_table = view.table, .machine = spec.machine, .max_cycles = spec.max_cycles});
      EXPECT_EQ(to_json(direct).dump(), to_json(replayed.stats).dump()) << tag;
      EXPECT_EQ(replayed.checksum, view.trace->checksum()) << tag;
    }
  }
}

TEST_P(ReplayDifferential, SharedSelectorsReuseOneTraceAcrossMachines) {
  // Baseline and greedy preparations do not depend on the machine, so
  // every machine configuration must replay the very same trace object.
  const Workload& w = every_workload()[GetParam()];
  WorkloadExperiment& exp = experiment(GetParam());
  for (const Selector selector : {Selector::kNone, Selector::kGreedy}) {
    const CommittedTrace* first = nullptr;
    for (const NamedMachine& nm : machines()) {
      const WorkloadExperiment::PreparedView view =
          exp.prepared(spec_for(w, selector, nm));
      if (first == nullptr) {
        first = view.trace;
      } else {
        EXPECT_EQ(view.trace, first)
            << w.name << " / " << selector_name(selector) << " / " << nm.name;
      }
    }
  }
}

TEST(ReplayStepStream, CoversOffTheEndSentinel) {
  // Workloads end in `halt`; a program that returns from main instead
  // commits one synthetic off-the-end step, which the cursor must hand
  // out exactly as live execution does.
  const Program p = assemble(R"(
        li $s0, 3
  loop: addiu $v0, $v0, 2
        addiu $s0, $s0, -1
        bgtz $s0, loop
        jr $ra
  )");
  const CommittedTrace trace = record_trace(p, nullptr, 1000);
  ASSERT_EQ(trace.index_at(trace.size() - 1), p.size());
  EXPECT_EQ(expect_stream_matches_reference(trace, p, nullptr, "sentinel"),
            trace.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ReplayDifferential,
    ::testing::Range<std::size_t>(0, every_workload().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return every_workload()[info.param].name;
    });

}  // namespace
}  // namespace t1000
