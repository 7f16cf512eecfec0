// Seeded inputs of the three benchmark workloads.
//
// Every list here is a pure function of the seed: the same seed gives the
// same specs in the same order and the same serve arrival schedule. The
// seed only moves choices that leave the amount of work unchanged (grid
// insertion order; the serve mix's selective latencies and hot reads), so
// runs on different seeds measure the same work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/json.hpp"

namespace perfbench {

// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double uniform();  // [0, 1)

 private:
  std::uint64_t state_;
};

// all_workloads() + extended_workloads() + compiled_workloads(), in that
// order: the 13 bundled workloads the grid and the daemon can name.
std::vector<t1000::Workload> bundled_workloads();

// sweep_cold: every bundled workload x {baseline, greedy, selective} x
// PFUs {1, 2, 4, unlimited} x reconfiguration latency {10, 50}, in seeded
// insertion order.
std::vector<t1000::RunSpec> sweep_cold_specs(std::uint64_t seed);

// prep_verify: per workload, seven distinct preparations (greedy and
// selective at 1/2/4 PFUs over candidate shapes {2,1}/{4,1}/{4,2} and two
// selection-policy variants), each timed under one machine at 10-cycle
// reconfiguration; verify on; seeded insertion order. Every batch group is
// a singleton.
std::vector<t1000::RunSpec> prep_verify_specs(std::uint64_t seed);

// One serve_mixed job: a small grid request and whether it is a hot-set
// read (already in the daemon's cache) or a novel write.
struct ServeJob {
  double at_s = 0.0;  // scheduled send time from the segment's start
  bool hot = false;
  std::vector<t1000::RunSpec> runs;  // 1-4 runs
};

struct ServePlan {
  double rate_per_s = 0.0;
  std::vector<ServeJob> hot_set;               // warmed before timing
  std::vector<std::vector<ServeJob>> segments;  // one fresh daemon each
};

// Fixed serve load: open-loop Poisson arrivals at this rate, about a tenth
// of the runner's capacity measured for this mix on the commit that
// defined the benchmark (~90-110 jobs/s, a 9-11 ms mean job run; see
// perfbench/README.md). Nearer saturation, queueing turned a shared
// machine's +-20% CPU-speed drift into +-40-70% latency swings between
// runs.
inline constexpr double kServeRatePerS = 10.0;
// Share of jobs that are novel writes; the rest re-read the hot set. With
// 90% reads most reads find the runner idle, so the median measures the
// per-request path of a read and the tail the novel runs.
inline constexpr double kServeNovelShare = 0.1;
// Seed of the serve load (arrival times, novel slots and jobs); see
// serve_plan().
inline constexpr std::uint64_t kServeLoadSeed = 20001;
inline constexpr int kServeSegments = 3;
// On-disk cache budget of the daemon: a few dozen entries, so the novel
// writes force LRU evictions.
inline constexpr std::uint64_t kServeCacheBudgetBytes = 64 * 1024;

// `seconds` is the timed length of the whole run; it is split evenly over
// kServeSegments segments with a fixed job count each. The hot set holds
// one 1-4 run job per (workload, selector); kServeNovelShare of each
// segment's jobs are novel two-run grids, the rest re-read the hot set.
ServePlan serve_plan(std::uint64_t seed, double seconds);

// The grid request document of one job ({"runs": [...]}).
t1000::Json job_request(const ServeJob& job);

// Identity of a run's simulated result, independent of its label and of
// the verify/observe flags: the key of the recorded digest table.
std::string digest_key(const t1000::RunSpec& spec);
// FNV-1a of the outcome's canonical JSON (stats, selection, checksum,
// trace identity).
std::string outcome_digest(const t1000::RunOutcome& outcome);

// Every spec any seed of any workload can produce: what the digest table
// must cover.
std::vector<t1000::RunSpec> spec_universe();

}  // namespace perfbench
