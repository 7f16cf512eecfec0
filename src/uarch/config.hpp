// Machine configuration for the T1000 timing model. Defaults follow the
// paper's Section 3 (a 4-issue out-of-order superscalar with RUU scheduling,
// realistic L1/L2 caches and TLBs, perfect branch prediction) with
// SimpleScalar-era cache parameters.
#pragma once

#include <cstdint>

#include "uarch/branch.hpp"

namespace t1000 {

struct CacheConfig {
  std::uint32_t size_bytes = 0;
  std::uint32_t line_bytes = 32;
  std::uint32_t assoc = 1;
  int hit_latency = 1;

  std::uint32_t num_sets() const {
    return size_bytes / (line_bytes * assoc);
  }
};

struct TlbConfig {
  std::uint32_t entries = 64;
  std::uint32_t page_bytes = 4096;
  int miss_latency = 30;
};

struct PfuConfig {
  // Number of programmable functional units; kUnlimited gives every
  // configuration its own unit.
  static constexpr int kUnlimited = -1;
  int count = 0;  // 0 = plain superscalar, no PFUs
  int reconfig_latency = 10;
  // The paper assumes every extended instruction evaluates in one cycle and
  // chooses sequences for which that holds; it notes the model "could
  // easily be altered to allow for varying execution times". Enabling this
  // derives each configuration's latency from its mapped logic depth
  // (one cycle per `levels_per_cycle` LUT levels).
  bool multi_cycle_ext = false;
  int levels_per_cycle = 3;
};

struct MachineConfig {
  // Bounds validate() (uarch/timing.hpp) enforces, so no machine can
  // crash the model, spin it to its cycle bound or allocate gigabytes:
  // every width and FU count lies in [1, kMaxWidth]; ruu_size and
  // fetch_queue_size in [1, kMaxQueue], MSHRs in [0, kMaxQueue]; a cache
  // holds at least one set and at most kMaxTable lines, and predictor
  // tables hold [1, kMaxTable] entries; associativity, TLB entries and the
  // PFU count (each searched linearly) are at most kMaxAssoc; every
  // latency and penalty lies in [0, kMaxLatency], which also keeps their
  // sums within int, and pfu.levels_per_cycle in [1, kMaxLatency].
  static constexpr int kMaxWidth = 64;
  static constexpr int kMaxQueue = 1 << 20;
  static constexpr int kMaxTable = 1 << 20;
  static constexpr int kMaxAssoc = 1 << 12;
  static constexpr int kMaxLatency = 1 << 16;

  int fetch_width = 4;
  int decode_width = 4;
  int issue_width = 4;
  int commit_width = 4;
  int ruu_size = 64;
  int fetch_queue_size = 16;

  int int_alus = 4;
  int int_mults = 1;
  int mem_ports = 2;
  // Outstanding long-latency memory accesses allowed in flight (MSHRs);
  // 0 = unlimited (the paper-era SimpleScalar default behaviour).
  int max_outstanding_misses = 0;

  CacheConfig il1{.size_bytes = 16 * 1024, .line_bytes = 32, .assoc = 1,
                  .hit_latency = 1};
  CacheConfig dl1{.size_bytes = 16 * 1024, .line_bytes = 32, .assoc = 4,
                  .hit_latency = 1};
  CacheConfig l2{.size_bytes = 256 * 1024, .line_bytes = 64, .assoc = 4,
                 .hit_latency = 6};
  int memory_latency = 18;

  TlbConfig itlb;
  TlbConfig dtlb;

  PfuConfig pfu;
  BranchPredictorConfig branch;  // perfect by default, as in the paper
};

}  // namespace t1000
