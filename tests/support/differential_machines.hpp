// The workload and machine axes shared by the timing suites that sweep
// every bundled workload: the replay differential proof
// (tests/integration/replay_differential_test.cpp) and the schedule
// invariants (tests/integration/timing_invariants_test.cpp).
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "uarch/config.hpp"
#include "workloads/workload.hpp"

namespace t1000 {
namespace differential {

struct NamedMachine {
  std::string name;
  MachineConfig machine;
};

// A deliberately hostile set of machine configurations: PFU counts from 2
// to unlimited, reconfiguration latencies from free to punitive, shrunken
// cache/TLB geometries, a real (mispredicting) branch predictor,
// multi-cycle extended instructions, and a narrow machine with tight
// RUU/MSHR limits. Every configuration carries PFUs so the rewritten
// (EXT-bearing) programs are legal everywhere.
inline const std::vector<NamedMachine>& machines() {
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

// The paper suite followed by the extended suite.
inline const std::vector<Workload>& every_workload() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> out = all_workloads();
    const std::vector<Workload>& extra = extended_workloads();
    out.insert(out.end(), extra.begin(), extra.end());
    return out;
  }();
  return all;
}

}  // namespace differential
}  // namespace t1000
