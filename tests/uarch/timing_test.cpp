#include "uarch/timing.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "asmkit/assembler.hpp"
#include "extinst/rewrite.hpp"
#include "extinst/select.hpp"
#include "harness/experiment.hpp"
#include "workloads/workload.hpp"

namespace t1000 {
namespace {

MachineConfig base_machine() {
  MachineConfig cfg;
  return cfg;
}

TEST(Timing, CommitsEveryInstructionExactlyOnce) {
  const Program p = assemble(R"(
        li $t0, 0
        li $t1, 100
  loop: addiu $t0, $t0, 1
        bne $t0, $t1, loop
        halt
  )");
  const SimStats st = simulate({.program = &p, .machine = base_machine()});
  EXPECT_EQ(st.committed, 2u + 100 * 2 + 1);
  EXPECT_GT(st.cycles, 0u);
}

TEST(Timing, IndependentOpsReachSuperscalarIpc) {
  // Long stretches of independent single-cycle ops: IPC should approach the
  // 4-wide limit once caches warm up.
  std::string src;
  for (int i = 0; i < 200; ++i) {
    src += "  addiu $t" + std::to_string(i % 8) + ", $zero, " +
           std::to_string(i % 100) + "\n";
  }
  // Repeat the block via a loop to amortize cold-start.
  std::string full = "  li $s0, 200\nloop:\n" + src +
                     "  addiu $s0, $s0, -1\n  bgtz $s0, loop\n  halt\n";
  const Program p = assemble(full);
  const SimStats st = simulate({.program = &p, .machine = base_machine()});
  EXPECT_GT(st.ipc(), 3.0);
  EXPECT_LE(st.ipc(), 4.0);
}

TEST(Timing, DependentChainLimitsIpc) {
  std::string src = "  li $s0, 200\nloop:\n";
  for (int i = 0; i < 64; ++i) src += "  addiu $t0, $t0, 1\n";
  src += "  addiu $s0, $s0, -1\n  bgtz $s0, loop\n  halt\n";
  const Program p = assemble(src);
  const SimStats st = simulate({.program = &p, .machine = base_machine()});
  // The dependent chain serializes: ~1 IPC.
  EXPECT_LT(st.ipc(), 1.3);
  EXPECT_GT(st.ipc(), 0.8);
}

TEST(Timing, MulLatencyVisible) {
  // A dependent multiply chain that crosses iterations serializes at the
  // 3-cycle multiply latency (t0 stays 1, so the chain never widens).
  std::string src = "  li $s0, 100\n  li $t0, 1\nloop:\n";
  for (int i = 0; i < 16; ++i) src += "  mul $t0, $t0, $t0\n";
  src += "  addiu $s0, $s0, -1\n  bgtz $s0, loop\n  halt\n";
  const Program p = assemble(src);
  const SimStats st = simulate({.program = &p, .machine = base_machine()});
  EXPECT_LT(st.ipc(), 0.5);
  EXPECT_GT(st.ipc(), 0.25);
}

TEST(Timing, CacheMissesCostCycles) {
  // Stride through a buffer far larger than DL1 (16 KiB): many L1 misses.
  const Program p = assemble(R"(
        la $t0, buf
        li $t1, 2048          # 2048 * 32B stride = 64 KiB > DL1
        li $v0, 0
  loop: lw $t2, 0($t0)
        addu $v0, $v0, $t2
        addiu $t0, $t0, 32
        addiu $t1, $t1, -1
        bgtz $t1, loop
        halt
        .data
  buf:  .space 65536
  )");
  const SimStats st = simulate({.program = &p, .machine = base_machine()});
  EXPECT_GT(st.dl1.misses, 1500u);
  // Misses cost latency; independent loads overlap (no MSHR limit is
  // modelled), so IPC dips but does not collapse.
  EXPECT_LT(st.ipc(), 3.0);
}

TEST(Timing, WarmLoopHasFewIcacheMisses) {
  const Program p = assemble(R"(
        li $t1, 1000
  loop: addiu $t1, $t1, -1
        bgtz $t1, loop
        halt
  )");
  const SimStats st = simulate({.program = &p, .machine = base_machine()});
  EXPECT_LE(st.il1.misses, 4u);
}

TEST(Timing, StoreToLoadDependencyRespected) {
  // A load must see the just-stored value's timing (it waits for the
  // store), so a store->load->add chain is slow; the run must terminate
  // with all instructions committed.
  const Program p = assemble(R"(
        la $t0, buf
        li $s0, 50
  loop: sw $s0, 0($t0)
        lw $t1, 0($t0)
        addu $v0, $v0, $t1
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
        .data
  buf:  .space 16
  )");
  const SimStats st = simulate({.program = &p, .machine = base_machine()});
  EXPECT_EQ(st.committed, 3u + 50 * 5 + 1);  // la expands to 2 instructions
}

TEST(Timing, ExtNeedsReconfigOnlyOnce) {
  ExtInstTable table;
  table.intern(ExtInstDef(2, {{.op = Opcode::kSll, .dst = 2, .a = 0, .imm = 2},
                              {.op = Opcode::kAddu, .dst = 3, .a = 2, .b = 1}}));
  const Program p = assemble(R"(
        li $t0, 3
        li $t1, 5
        li $s0, 100
  loop: ext $t2, $t0, $t1, 0
        sw $t2, 0($sp)
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  MachineConfig cfg = base_machine();
  cfg.pfu = {.count = 2, .reconfig_latency = 10};
  const SimStats st = simulate({.program = &p, .ext_table = &table, .machine = cfg});
  EXPECT_EQ(st.pfu.reconfigurations, 1u);
  EXPECT_EQ(st.pfu.lookups, 100u);
  EXPECT_EQ(st.pfu.hits, 99u);
}

TEST(Timing, PfuThrashingIsSlowerThanBaseline) {
  // Three configurations rotating through 2 PFUs inside a hot loop: every
  // iteration reconfigures. The same loop expressed as plain ALU ops is
  // faster - the Section 4 result that motivates the selective algorithm.
  ExtInstTable table;
  for (int v = 0; v < 3; ++v) {
    table.intern(
        ExtInstDef(2, {{.op = Opcode::kSll, .dst = 2, .a = 0,
                        .imm = static_cast<std::int32_t>(v + 1)},
                       {.op = Opcode::kAddu, .dst = 3, .a = 2, .b = 1}}));
  }
  const Program ext_version = assemble(R"(
        li $t0, 3
        li $t1, 5
        li $s0, 500
  loop: ext $t2, $t0, $t1, 0
        ext $t3, $t0, $t1, 1
        ext $t4, $t0, $t1, 2
        addu $v0, $t2, $t3
        addu $v0, $v0, $t4
        sw $v0, 0($sp)
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  const Program plain_version = assemble(R"(
        li $t0, 3
        li $t1, 5
        li $s0, 500
  loop: sll $t2, $t0, 1
        addu $t2, $t2, $t1
        sll $t3, $t0, 2
        addu $t3, $t3, $t1
        sll $t4, $t0, 3
        addu $t4, $t4, $t1
        addu $v0, $t2, $t3
        addu $v0, $v0, $t4
        sw $v0, 0($sp)
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  MachineConfig cfg = base_machine();
  cfg.pfu = {.count = 2, .reconfig_latency = 10};
  const SimStats thrash = simulate({.program = &ext_version, .ext_table = &table, .machine = cfg});
  const SimStats plain = simulate({.program = &plain_version, .machine = base_machine()});
  EXPECT_GT(thrash.pfu.reconfigurations, 1000u);  // ~3 per iteration
  EXPECT_GT(thrash.cycles, plain.cycles);
}

TEST(Timing, MorePfusRemoveThrashing) {
  ExtInstTable table;
  for (int v = 0; v < 3; ++v) {
    table.intern(
        ExtInstDef(2, {{.op = Opcode::kSll, .dst = 2, .a = 0,
                        .imm = static_cast<std::int32_t>(v + 1)},
                       {.op = Opcode::kAddu, .dst = 3, .a = 2, .b = 1}}));
  }
  const Program p = assemble(R"(
        li $t0, 3
        li $t1, 5
        li $s0, 500
  loop: ext $t2, $t0, $t1, 0
        ext $t3, $t0, $t1, 1
        ext $t4, $t0, $t1, 2
        addu $v0, $t2, $t3
        addu $v0, $v0, $t4
        sw $v0, 0($sp)
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  MachineConfig two = base_machine();
  two.pfu = {.count = 2, .reconfig_latency = 10};
  MachineConfig four = base_machine();
  four.pfu = {.count = 4, .reconfig_latency = 10};
  const SimStats st2 = simulate({.program = &p, .ext_table = &table, .machine = two});
  const SimStats st4 = simulate({.program = &p, .ext_table = &table, .machine = four});
  EXPECT_LT(st4.cycles, st2.cycles);
  EXPECT_EQ(st4.pfu.reconfigurations, 3u);  // one load per configuration
}

TEST(Timing, ExtSpeedsUpDependentChains) {
  // End-to-end: select + rewrite a dependent-chain kernel and check the
  // rewritten program needs fewer cycles on a 2-PFU machine.
  const Program p = assemble(R"(
        li $t1, 100
        li $t3, 3
        li $s0, 2000
  loop: sll $t5, $t3, 4
        addu $t6, $t5, $t1
        sll $t7, $t6, 1
        xori $t7, $t7, 0x55
        sw  $t7, 0($sp)
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  const AnalyzedProgram ap = analyze_program(p, 1u << 22);
  SelectPolicy policy;
  policy.num_pfus = 2;
  Selection sel = select_selective(ap, policy);
  ASSERT_FALSE(sel.apps.empty());
  const RewriteResult rr = rewrite_program(p, sel.apps);

  MachineConfig cfg = base_machine();
  cfg.pfu = {.count = 2, .reconfig_latency = 10};
  const SimStats before = simulate({.program = &p, .machine = base_machine()});
  const SimStats after = simulate({.program = &rr.program, .ext_table = &sel.table, .machine = cfg});
  EXPECT_LT(after.cycles, before.cycles);
}

TEST(Timing, ThrowsOnCycleBound) {
  const Program p = assemble("loop: j loop");
  EXPECT_THROW(simulate({.program = &p, .machine = base_machine(), .max_cycles = 1000}), SimError);
}

TEST(Timing, EmptyProgramCompletes) {
  const Program p = assemble("halt");
  const SimStats st = simulate({.program = &p, .machine = base_machine()});
  EXPECT_EQ(st.committed, 1u);
}

// Machines validate() rejects. Unchecked, each one spun the pipeline to
// its 2^32-cycle bound (tens of seconds) or died in std::bad_alloc.
struct BadMachine {
  const char* field;
  MachineConfig machine;
};

std::vector<BadMachine> bad_machines() {
  std::vector<BadMachine> out;
  const auto with = [&](const char* field, auto set) {
    MachineConfig m = base_machine();
    set(m);
    out.push_back({field, m});
  };
  with("ruu_size", [](MachineConfig& m) { m.ruu_size = 0; });
  with("ruu_size", [](MachineConfig& m) { m.ruu_size = -5; });
  with("ruu_size", [](MachineConfig& m) { m.ruu_size = 2000000000; });
  with("issue_width", [](MachineConfig& m) { m.issue_width = 0; });
  with("commit_width", [](MachineConfig& m) { m.commit_width = 0; });
  // Each of these divided by zero (SIGFPE) or indexed an empty table
  // (SIGSEGV) inside the pipeline.
  with("dl1.line_bytes", [](MachineConfig& m) { m.dl1.line_bytes = 0; });
  with("l2.assoc", [](MachineConfig& m) { m.l2.assoc = 0; });
  with("dtlb.page_bytes", [](MachineConfig& m) { m.dtlb.page_bytes = 0; });
  with("pfu.levels_per_cycle", [](MachineConfig& m) {
    m.pfu.multi_cycle_ext = true;
    m.pfu.levels_per_cycle = 0;
  });
  with("itlb.entries", [](MachineConfig& m) { m.itlb.entries = 0; });
  with("branch.bimodal_entries", [](MachineConfig& m) {
    m.branch.kind = BranchPredictorKind::kBimodal;
    m.branch.bimodal_entries = 0;
  });
  with("branch.target_entries", [](MachineConfig& m) {
    m.branch.kind = BranchPredictorKind::kBimodal;
    m.branch.target_entries = 0;
  });
  // No set: 1 KiB cannot hold one 4-way set of 512-byte lines.
  with("il1.size_bytes", [](MachineConfig& m) {
    m.il1 = {.size_bytes = 1024, .line_bytes = 512, .assoc = 4};
  });
  // Each of these spun to the cycle bound, or would have.
  with("int_alus", [](MachineConfig& m) { m.int_alus = 0; });
  with("int_mults", [](MachineConfig& m) { m.int_mults = 0; });
  with("mem_ports", [](MachineConfig& m) { m.mem_ports = 0; });
  with("max_outstanding_misses",
       [](MachineConfig& m) { m.max_outstanding_misses = -1; });
  with("memory_latency", [](MachineConfig& m) { m.memory_latency = -5; });
  with("dl1.hit_latency", [](MachineConfig& m) { m.dl1.hit_latency = -1; });
  with("dtlb.miss_latency", [](MachineConfig& m) { m.dtlb.miss_latency = -1; });
  with("pfu.reconfig_latency",
       [](MachineConfig& m) { m.pfu.reconfig_latency = -10; });
  with("branch.mispredict_penalty",
       [](MachineConfig& m) { m.branch.mispredict_penalty = -3; });
  with("pfu.count", [](MachineConfig& m) { m.pfu.count = -2; });
  // Each of these allocated gigabytes (or overflowed int arithmetic).
  with("l2.size_bytes", [](MachineConfig& m) {
    m.l2 = {.size_bytes = 0xFFFFFFF0u, .line_bytes = 16, .assoc = 1};
  });
  with("branch.bimodal_entries",
       [](MachineConfig& m) { m.branch.bimodal_entries = 1u << 31; });
  with("itlb.entries", [](MachineConfig& m) { m.itlb.entries = 1u << 30; });
  with("memory_latency",
       [](MachineConfig& m) { m.memory_latency = 2000000000; });
  return out;
}

TEST(Timing, InvalidMachinesFailFastNamingTheField) {
  const Program p = assemble(R"(
        li $s0, 100
  loop: addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  for (const BadMachine& bad : bad_machines()) {
    const auto start = std::chrono::steady_clock::now();
    try {
      simulate({.program = &p, .machine = bad.machine});
      ADD_FAILURE() << bad.field << ": accepted";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find(bad.field), std::string::npos)
          << e.what();
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1))
        << bad.field;
  }
  // The bounds themselves are accepted.
  MachineConfig edge = base_machine();
  edge.ruu_size = 1;
  edge.fetch_width = edge.decode_width = edge.issue_width =
      edge.commit_width = MachineConfig::kMaxWidth;
  EXPECT_NO_THROW(validate(edge));
  edge.ruu_size = MachineConfig::kMaxQueue;
  EXPECT_NO_THROW(validate(edge));
  edge.fetch_queue_size = MachineConfig::kMaxQueue + 1;
  EXPECT_THROW(validate(edge), SimError);

  MachineConfig lowest = base_machine();
  lowest.int_alus = lowest.int_mults = lowest.mem_ports = 1;
  lowest.max_outstanding_misses = 0;  // unlimited
  lowest.dl1 = {.size_bytes = 1, .line_bytes = 1, .assoc = 1,
                .hit_latency = 0};
  lowest.itlb = {.entries = 1, .page_bytes = 1, .miss_latency = 0};
  lowest.memory_latency = 0;
  lowest.pfu = {.count = 0, .reconfig_latency = 0, .levels_per_cycle = 1};
  lowest.branch = {.kind = BranchPredictorKind::kBimodal,
                   .bimodal_entries = 1, .target_entries = 1,
                   .mispredict_penalty = 0};
  EXPECT_NO_THROW(validate(lowest));
  MachineConfig highest = base_machine();
  highest.l2 = {.size_bytes = 64u * MachineConfig::kMaxTable, .line_bytes = 64,
                .assoc = MachineConfig::kMaxAssoc,
                .hit_latency = MachineConfig::kMaxLatency};
  highest.dtlb.entries = MachineConfig::kMaxAssoc;
  highest.pfu.count = MachineConfig::kMaxAssoc;
  highest.branch.bimodal_entries = MachineConfig::kMaxTable;
  EXPECT_NO_THROW(validate(highest));
  highest.l2.size_bytes += 64;  // one line too many
  EXPECT_THROW(validate(highest), SimError);
}

// A program returning from main ends with the off-the-end halt sentinel,
// which fetch consumes without enqueueing. Under a real predictor the
// return mispredicts, so the sentinel is fetched only after the redirect,
// into an empty machine: that fetch is the cycle's only activity, and a
// jump taken from it would skip past the end of the run.
TEST(Timing, SentinelFetchedIntoAnEmptyMachineEndsTheRunOnTime) {
  const Program p = assemble(R"(
        li $s0, 3
  loop: addiu $v0, $v0, 2
        addiu $s0, $s0, -1
        bgtz $s0, loop
        jr $ra
  )");
  for (const BranchPredictorKind kind :
       {BranchPredictorKind::kPerfect, BranchPredictorKind::kBimodal}) {
    MachineConfig m = base_machine();
    m.branch.kind = kind;
    const SimStats plain = simulate({.program = &p, .machine = m});
    SimObservation obs;
    const SimStats observed =
        simulate({.program = &p, .machine = m, .observation = &obs});
    EXPECT_EQ(plain.cycles, observed.cycles);
    EXPECT_EQ(obs.stalls.cycles, plain.cycles);
    EXPECT_LT(plain.cycles, 1000u);
  }
}

// simulate() over a prepared workload; max_cycles and observation vary.
SimStats time_prepared(const WorkloadExperiment::PreparedView& view,
                       const MachineConfig& machine, std::uint64_t max_cycles,
                       SimObservation* observation) {
  return simulate({.program = view.program,
                   .ext_table = view.table,
                   .trace = view.trace,
                   .machine = machine,
                   .max_cycles = max_cycles,
                   .observation = observation});
}

// Plain and observed runs jump over quiet cycles. The jump is clamped so
// the cycle bound fires exactly where stepping fires it: with C the plain
// run's cycle count (its last cycle is C - 1), a bound of C - 1 admits the
// run and C - 2 trips it, observed and plain alike. The thrashing
// machine (2 PFUs, 100-cycle reconfiguration) has the longest quiet
// stretches.
TEST(Timing, CycleBoundFiresOnTheSameCycleWithAndWithoutTheJump) {
  MachineConfig mispredicting = pfu_machine(2, 10);
  mispredicting.branch.kind = BranchPredictorKind::kBimodal;
  mispredicting.max_outstanding_misses = 2;
  const RunSpec cases[] = {
      baseline_spec("gsm_dec"),
      greedy_spec("gsm_enc", "thrash", 2, 100),
      greedy_spec("g721_dec", "thrash", 2, 100),
      [&] {
        RunSpec spec = selective_spec("g721_enc", "bimodal", 2, 10);
        spec.machine = mispredicting;
        return spec;
      }(),
  };
  const auto expect_bound_exceeded = [](const auto& run,
                                        const std::string& tag) {
    try {
      run();
      ADD_FAILURE() << tag << ": no cycle bound";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("cycle bound exceeded"),
                std::string::npos)
          << tag << ": " << e.what();
    }
  };
  for (const RunSpec& spec : cases) {
    const Workload* w = find_workload(spec.workload);
    ASSERT_NE(w, nullptr) << spec.workload;
    WorkloadExperiment exp(*w);
    const WorkloadExperiment::PreparedView view = exp.prepared(spec);
    ASSERT_NE(view.trace, nullptr);
    const std::string tag = spec.workload + " / " + spec.label;

    const SimStats plain =
        time_prepared(view, spec.machine, spec.max_cycles, nullptr);
    const std::uint64_t c = plain.cycles;
    ASSERT_GT(c, 2u) << tag;
    const SimStats bounded =
        time_prepared(view, spec.machine, c - 1, nullptr);
    EXPECT_EQ(bounded.cycles, c) << tag;
    EXPECT_EQ(bounded.committed, plain.committed) << tag;
    SimObservation obs;
    EXPECT_EQ(time_prepared(view, spec.machine, c - 1, &obs).cycles, c)
        << tag;
    EXPECT_EQ(obs.stalls.cycles, c) << tag;

    expect_bound_exceeded(
        [&] { time_prepared(view, spec.machine, c - 2, nullptr); },
        tag + " plain");
    SimObservation tripped;
    expect_bound_exceeded(
        [&] { time_prepared(view, spec.machine, c - 2, &tripped); },
        tag + " observed");
  }
}

}  // namespace
}  // namespace t1000

namespace t1000 {
namespace {

TEST(Timing, MultiCycleExtChargesDeepChains) {
  // A 6-op add chain maps to 6 LUT levels -> 2 cycles at 3 levels/cycle,
  // 6 cycles at 1 level/cycle. The dependent EXT chain exposes the latency.
  ExtInstTable table;
  std::vector<MicroOp> uops;
  for (int i = 0; i < 6; ++i) {
    uops.push_back({.op = Opcode::kAddu,
                    .dst = static_cast<std::int8_t>(2 + i),
                    .a = static_cast<std::int8_t>(i == 0 ? 0 : 1 + i),
                    .b = 1});
  }
  table.intern(ExtInstDef(2, uops));
  const Program p = assemble(R"(
        li $t0, 1
        li $s0, 1000
  loop: ext $t0, $t0, $t0, 0   # dependent chain across iterations
        andi $t0, $t0, 0xFF
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  MachineConfig single;
  single.pfu = {.count = 1, .reconfig_latency = 10};
  MachineConfig depth = single;
  depth.pfu.multi_cycle_ext = true;
  MachineConfig strict = depth;
  strict.pfu.levels_per_cycle = 1;
  const SimStats a = simulate({.program = &p, .ext_table = &table, .machine = single});
  const SimStats b = simulate({.program = &p, .ext_table = &table, .machine = depth});
  const SimStats c = simulate({.program = &p, .ext_table = &table, .machine = strict});
  EXPECT_GT(b.cycles, a.cycles);
  EXPECT_GT(c.cycles, b.cycles);
  // ~6 cycles/iteration of extra latency at 1 level/cycle.
  EXPECT_GT(c.cycles, a.cycles + 4000);
}

TEST(Timing, MultiCycleExtLeavesShallowChainsAlone) {
  ExtInstTable table;
  table.intern(ExtInstDef(2, {{.op = Opcode::kSll, .dst = 2, .a = 0, .imm = 1},
                              {.op = Opcode::kAddu, .dst = 3, .a = 2, .b = 1}}));
  const Program p = assemble(R"(
        li $t0, 1
        li $t1, 2
        li $s0, 500
  loop: ext $t2, $t0, $t1, 0
        sw $t2, 0($sp)
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  MachineConfig single;
  single.pfu = {.count = 1, .reconfig_latency = 10};
  MachineConfig depth = single;
  depth.pfu.multi_cycle_ext = true;
  const SimStats a = simulate({.program = &p, .ext_table = &table, .machine = single});
  const SimStats b = simulate({.program = &p, .ext_table = &table, .machine = depth});
  EXPECT_EQ(a.cycles, b.cycles);  // sll is wiring, addu is 1 level -> 1 cycle
}

}  // namespace
}  // namespace t1000
