// Schedule invariants: an oracle for the timing model that does not share
// its scheduler.
//
// The differential suites hold paths to each other and to fixtures the
// same code regenerates, so a model error common to every path passes
// them. This suite reads only what an observed run reports per committed
// instruction (InstLifecycle: dispatch, issue, completion and commit
// cycles) and re-derives every dependence from the committed trace
// itself. It then asserts what any correct schedule of this machine
// satisfies, whatever the issue logic looks like:
//
//   - an instruction issues after the cycle it dispatched in;
//   - it issues no earlier than the completion of each register producer;
//   - a load issues no earlier than the completion of each older store
//     that overlaps it;
//   - per cycle, at most issue_width instructions issue, each FU class
//     issues at most its unit count, and at most commit_width commit;
//   - commit is in program order, and complete lies between issue and
//     commit.
//
// Swept over every workload x selector x differential machine, plus
// machines whose L1 hits take zero cycles (results ready in the issuing
// cycle), one of them the narrow one, and one with a large, wide window.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/experiment.hpp"
#include "isa/opcode.hpp"
#include "sim/trace.hpp"
#include "support/differential_machines.hpp"
#include "uarch/timing.hpp"

namespace t1000 {
namespace {

using differential::every_workload;
using differential::NamedMachine;

const std::vector<NamedMachine>& invariant_machines() {
  static const std::vector<NamedMachine> configs = [] {
    std::vector<NamedMachine> out = differential::machines();
    MachineConfig zero = pfu_machine(2, 10);
    zero.dl1.hit_latency = 0;
    out.push_back({"dl1_hit0", zero});

    MachineConfig narrow_zero =
        std::find_if(out.begin(), out.end(), [](const NamedMachine& nm) {
          return nm.name == "narrow_ruu16_mshr2";
        })->machine;
    narrow_zero.dl1.hit_latency = 0;
    out.push_back({"narrow_dl1_hit0", narrow_zero});

    MachineConfig wide = pfu_machine(4, 10);
    wide.fetch_width = 8;
    wide.decode_width = 8;
    wide.issue_width = 8;
    wide.commit_width = 8;
    wide.ruu_size = 1024;
    wide.fetch_queue_size = 64;
    wide.int_alus = 6;
    wide.int_mults = 2;
    wide.mem_ports = 3;
    wide.max_outstanding_misses = 8;
    out.push_back({"wide_ruu1024", wide});
    return out;
  }();
  return configs;
}

// Issue-port groups with a per-cycle unit count; kPfu and kNone have none
// beyond the issue width.
enum PortGroup : std::uint64_t { kAlu, kMul, kMem, kUnbounded, kNumGroups };

PortGroup port_group(FuClass fu) {
  switch (fu) {
    case FuClass::kIntAlu:
    case FuClass::kBranch: return kAlu;
    case FuClass::kIntMul: return kMul;
    case FuClass::kMemRead:
    case FuClass::kMemWrite: return kMem;
    case FuClass::kPfu:
    case FuClass::kNone: return kUnbounded;
  }
  return kUnbounded;
}

// The first violated invariant of `life` (the lifecycles of a run of
// `trace`'s program on `m`), or "" when the schedule is sound.
std::string first_violation(const CommittedTrace& trace,
                            const Program& program, const MachineConfig& m,
                            const std::vector<InstLifecycle>& life) {
  TraceCursor cursor(trace, program);
  std::uint64_t reg_done[kNumRegs] = {};  // completion of the last writer
  std::unordered_map<std::uint32_t, std::uint64_t> byte_stored;  // ditto
  std::vector<std::uint64_t> issues;  // issue cycle * kNumGroups + group
  issues.reserve(life.size());
  std::uint64_t commit_cycle = 0;
  int commits_in_cycle = 0;

  for (std::uint64_t i = 0; i < life.size(); ++i) {
    const InstLifecycle& l = life[i];
    if (cursor.halted()) return "more commits than trace steps";
    const DecodedStep step = cursor.step();
    const auto fail = [&](const std::string& what) {
      return "seq " + std::to_string(i) + " (pc " +
             std::to_string(step.info.index) + ", " +
             std::string(mnemonic(step.info.ins.op)) + "): " + what;
    };
    if (l.seq != i) return fail("committed out of order");
    if (l.issue <= l.dispatch) return fail("issued before dispatch + 1");
    if (l.complete < l.issue) return fail("completed before issue");
    if (l.commit < l.complete) return fail("committed before complete");
    for (int s = 0; s < step.srcs.count; ++s) {
      if (l.issue < reg_done[step.srcs.reg[s]]) {
        return fail("issued before its producer of r" +
                    std::to_string(step.srcs.reg[s]) + " completed");
      }
    }
    const std::uint32_t addr = step.info.mem_addr;
    if (step.fu == FuClass::kMemRead) {
      for (std::uint32_t b = addr; b < addr + step.info.mem_size; ++b) {
        const auto it = byte_stored.find(b);
        if (it != byte_stored.end() && l.issue < it->second) {
          return fail("load issued before an older overlapping store "
                      "completed");
        }
      }
    }
    if (step.is_store) {
      for (std::uint32_t b = addr; b < addr + step.info.mem_size; ++b) {
        std::uint64_t& done = byte_stored[b];
        done = std::max(done, l.complete);
      }
    }
    if (step.dst >= 0) reg_done[step.dst] = l.complete;
    if (step.dst2 >= 0) reg_done[step.dst2] = l.complete;

    if (l.commit < commit_cycle) return fail("commit cycle went backwards");
    commits_in_cycle = l.commit == commit_cycle ? commits_in_cycle + 1 : 1;
    commit_cycle = l.commit;
    if (commits_in_cycle > m.commit_width) return fail("commit width exceeded");
    issues.push_back(l.issue * kNumGroups + port_group(step.fu));
  }

  std::sort(issues.begin(), issues.end());
  const int units[kNumGroups] = {m.int_alus, m.int_mults, m.mem_ports,
                                 m.issue_width};
  std::size_t begin = 0;  // first issue of the current cycle
  for (std::size_t j = 0, run = 0; j < issues.size(); ++j) {
    const std::uint64_t cycle = issues[j] / kNumGroups;
    if (cycle != issues[begin] / kNumGroups) begin = j;
    run = j > 0 && issues[j] == issues[j - 1] ? run + 1 : 1;
    if (static_cast<int>(j - begin) + 1 > m.issue_width) {
      return "cycle " + std::to_string(cycle) + ": issue width exceeded";
    }
    if (static_cast<int>(run) > units[issues[j] % kNumGroups]) {
      return "cycle " + std::to_string(cycle) + ": port group " +
             std::to_string(issues[j] % kNumGroups) + " oversubscribed";
    }
  }
  return "";
}

class TimingInvariants : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TimingInvariants, EveryScheduleRespectsDependencesAndResources) {
  const Workload& w = every_workload()[GetParam()];
  const WorkloadExperiment exp(w);
  for (const Selector selector :
       {Selector::kNone, Selector::kGreedy, Selector::kSelective}) {
    for (const NamedMachine& nm : invariant_machines()) {
      RunSpec spec;
      spec.workload = w.name;
      spec.selector = selector;
      spec.machine = nm.machine;
      if (selector == Selector::kSelective) {
        spec.policy.num_pfus = nm.machine.pfu.count == PfuConfig::kUnlimited
                                   ? kUnlimitedPfus
                                   : nm.machine.pfu.count;
      }
      const WorkloadExperiment::PreparedView view = exp.prepared(spec);
      ASSERT_NE(view.trace, nullptr);
      SimObservation obs;
      obs.want_lifecycles = true;
      const SimStats st = simulate({.program = view.program,
                                    .ext_table = view.table,
                                    .trace = view.trace,
                                    .machine = spec.machine,
                                    .max_cycles = spec.max_cycles,
                                    .observation = &obs});
      const std::string tag = w.name + " / " +
                              std::string(selector_name(selector)) + " / " +
                              nm.name;
      ASSERT_EQ(obs.lifecycles.size(), st.committed) << tag;
      ASSERT_LE(obs.lifecycles.back().commit, st.cycles) << tag;
      EXPECT_EQ(first_violation(*view.trace, *view.program, spec.machine,
                                obs.lifecycles),
                "")
          << tag;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TimingInvariants,
    ::testing::Range<std::size_t>(0, every_workload().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return every_workload()[info.param].name;
    });

}  // namespace
}  // namespace t1000
