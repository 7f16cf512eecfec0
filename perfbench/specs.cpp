#include "specs.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>

#include "harness/serialize.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

using t1000::PfuConfig;
using t1000::RunSpec;
using t1000::Selector;

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

namespace {

constexpr int kPfuCounts[] = {1, 2, 4, PfuConfig::kUnlimited};
// Reconfiguration latencies (cycles). Replay time grows with simulated
// cycles, and greedy selection at 1-2 PFUs reconfigures tens of thousands
// of times, so the latency of a run moves its cost: the grids fix them.
constexpr int kSweepLatencies[] = {10, 50};
constexpr int kPrepLatency = 10;
// What the serve mix draws its configurations from.
constexpr int kServeLatencies[] = {0, 5, 10, 15, 20, 30, 40, 50};
// The serve mix uses the bundled workloads whose single replay takes the
// least time, so one job is a small request; the expensive ones stay in
// the two grid workloads.
const char* const kServeWorkloads[] = {"gsm_dec", "gsm_enc", "pegwit",
                                       "cc_cikernel"};

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x100000001b3ull ^ (stream * 0x9e3779b97f4a7c15ull);
}

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

std::string pfu_label(int pfus) {
  return pfus == PfuConfig::kUnlimited ? "unl" : std::to_string(pfus);
}

RunSpec make_spec(const std::string& workload, Selector selector, int pfus,
                  int latency) {
  const std::string label = std::string(t1000::selector_name(selector)) +
                            "-p" + pfu_label(pfus) + "-l" +
                            std::to_string(latency);
  return selector == Selector::kGreedy
             ? t1000::greedy_spec(workload, label, pfus, latency)
             : t1000::selective_spec(workload, label, pfus, latency);
}

// The seven preparations prep_verify times per workload: greedy and
// selective at 1/2/4 PFUs over the candidate shapes, plus the two
// selection-policy variants at 2 PFUs.
struct PrepTemplate {
  Selector selector;
  int pfus;
  int max_inputs;
  int max_outputs;
  double time_threshold;  // 0 = policy default
  bool subsequence_matrix;
};
constexpr PrepTemplate kPrepTemplates[] = {
    {Selector::kGreedy, 4, 2, 1, 0.0, true},
    {Selector::kGreedy, 4, 4, 2, 0.0, true},
    {Selector::kSelective, 1, 2, 1, 0.0, true},
    {Selector::kSelective, 2, 4, 1, 0.0, true},
    {Selector::kSelective, 4, 4, 2, 0.0, true},
    {Selector::kSelective, 2, 2, 1, 0.02, true},
    {Selector::kSelective, 2, 2, 1, 0.0, false},
};

RunSpec prep_spec(const std::string& workload, const PrepTemplate& t,
                  int latency) {
  RunSpec spec = make_spec(workload, t.selector, t.pfus, latency);
  spec.policy.extract.max_inputs = t.max_inputs;
  spec.policy.extract.max_outputs = t.max_outputs;
  spec.label += "-s" + std::to_string(t.max_inputs) +
                std::to_string(t.max_outputs);
  if (t.time_threshold > 0.0) {
    spec.policy.time_threshold = t.time_threshold;
    spec.label += "-t" + std::to_string(t.time_threshold).substr(0, 4);
  }
  if (!t.subsequence_matrix) {
    spec.policy.use_subsequence_matrix = false;
    spec.label += "-nomatrix";
  }
  return spec;
}

}  // namespace

std::vector<t1000::Workload> bundled_workloads() {
  std::vector<t1000::Workload> out = t1000::all_workloads();
  for (const auto* suite :
       {&t1000::extended_workloads(), &t1000::compiled_workloads()}) {
    out.insert(out.end(), suite->begin(), suite->end());
  }
  return out;
}

std::vector<RunSpec> sweep_cold_specs(std::uint64_t seed) {
  Rng rng(mix(seed, 1));
  std::vector<RunSpec> out;
  for (const t1000::Workload& w : bundled_workloads()) {
    out.push_back(t1000::baseline_spec(w.name));
    for (const Selector selector : {Selector::kGreedy, Selector::kSelective}) {
      for (const int pfus : kPfuCounts) {
        for (const int latency : kSweepLatencies) {
          out.push_back(make_spec(w.name, selector, pfus, latency));
        }
      }
    }
  }
  shuffle(out, rng);
  return out;
}

std::vector<RunSpec> prep_verify_specs(std::uint64_t seed) {
  Rng rng(mix(seed, 2));
  std::vector<RunSpec> out;
  for (const t1000::Workload& w : bundled_workloads()) {
    for (const PrepTemplate& t : kPrepTemplates) {
      RunSpec spec = prep_spec(w.name, t, kPrepLatency);
      spec.verify = true;
      out.push_back(std::move(spec));
    }
  }
  shuffle(out, rng);
  return out;
}

namespace {

// The shape of a serve job: one workload and selector, `runs` machine
// configurations.
struct JobShape {
  const char* workload;
  Selector selector;
  int runs;
};

// Fills `shape` with distinct specs absent from `used` (and marks them
// used). PFU counts, and a greedy run's latency, come from `load`; a
// selective run's latency comes from `pick`. Selective jobs use distinct
// PFU counts, so each of their runs is a separate preparation; greedy jobs
// share one preparation across lanes.
ServeJob draw_job(const JobShape& shape, Rng& load, Rng& pick,
                  std::set<std::string>* used) {
  ServeJob job;
  std::vector<int> pfus(std::begin(kPfuCounts), std::end(kPfuCounts));
  shuffle(pfus, load);
  const bool selective = shape.selector == Selector::kSelective;
  for (int i = 0; static_cast<int>(job.runs.size()) < shape.runs; ++i) {
    const int p = selective ? pfus[job.runs.size()] : pfus[load.below(pfus.size())];
    Rng& latency_rng = selective ? pick : load;
    const int latency =
        kServeLatencies[latency_rng.below(std::size(kServeLatencies))];
    RunSpec spec = make_spec(shape.workload, shape.selector, p, latency);
    if (used->insert(digest_key(spec)).second) job.runs.push_back(std::move(spec));
    if (i > 1000) throw std::runtime_error("serve plan: spec universe exhausted");
  }
  return job;
}

}  // namespace

ServePlan serve_plan(std::uint64_t seed, double seconds) {
  // The load is one fixed seeded realization (kServeLoadSeed): arrival
  // times, which slots are novel, the novel jobs' order and PFU counts, and
  // the greedy runs' latencies. Replay cost follows simulated cycles, which
  // greedy selection at 1-2 PFUs multiplies with every reconfiguration, and
  // queueing amplifies any cost difference, so every seed meets the same
  // load. The seed draws the selective runs' latencies (a selective run
  // reconfigures a handful of times) and the hot job each read asks for.
  Rng rng(mix(seed, 3));
  Rng load(mix(kServeLoadSeed, 4));
  ServePlan plan;
  plan.rate_per_s = kServeRatePerS;
  std::vector<JobShape> combos;
  for (const char* workload : kServeWorkloads) {
    for (const Selector selector : {Selector::kGreedy, Selector::kSelective}) {
      combos.push_back({workload, selector, 0});
    }
  }
  // Hot set: one job per (workload, selector), of 1, 2, 3 and 4 runs in
  // turn.
  std::set<std::string> hot_keys;
  for (std::size_t i = 0; i < combos.size(); ++i) {
    JobShape shape = combos[i];
    shape.runs = 1 + static_cast<int>(i % 4);
    ServeJob job = draw_job(shape, load, rng, &hot_keys);
    job.hot = true;
    plan.hot_set.push_back(std::move(job));
  }
  // Per segment, kServeNovelShare of the jobs are novel two-run grids
  // cycling through every (workload, selector): one size keeps the novel
  // latencies, and so the tail, from straddling job-size classes.
  const double segment_s = seconds / kServeSegments;
  const int per_segment =
      std::max(1, static_cast<int>(std::lround(segment_s * kServeRatePerS)));
  const int novel_per_segment =
      static_cast<int>(std::lround(kServeNovelShare * per_segment));
  std::size_t shape_index = 0;
  for (int s = 0; s < kServeSegments; ++s) {
    // Specs are distinct within a segment (one daemon), so every novel job
    // is a cache miss.
    std::set<std::string> used = hot_keys;
    std::vector<ServeJob> novel;
    for (int i = 0; i < novel_per_segment; ++i) {
      JobShape shape = combos[shape_index++ % combos.size()];
      shape.runs = 2;
      novel.push_back(draw_job(shape, load, rng, &used));
    }
    shuffle(novel, load);
    // Poisson arrivals conditioned on the segment's job count: sorted
    // uniform times over the segment.
    std::vector<double> times;
    for (int i = 0; i < per_segment; ++i) times.push_back(load.uniform() * segment_s);
    std::sort(times.begin(), times.end());
    std::vector<char> is_novel(static_cast<std::size_t>(per_segment), 0);
    std::fill(is_novel.begin(), is_novel.begin() + novel_per_segment, 1);
    shuffle(is_novel, load);
    std::vector<ServeJob> segment;
    std::size_t next_novel = 0;
    for (std::size_t i = 0; i < times.size(); ++i) {
      ServeJob job = is_novel[i] != 0 ? novel[next_novel++]
                                      : plan.hot_set[rng.below(plan.hot_set.size())];
      job.at_s = times[i];
      segment.push_back(std::move(job));
    }
    plan.segments.push_back(std::move(segment));
  }
  return plan;
}

t1000::Json job_request(const ServeJob& job) {
  t1000::Json runs = t1000::Json::array();
  for (const RunSpec& spec : job.runs) runs.push_back(t1000::to_json(spec));
  t1000::Json doc = t1000::Json::object();
  doc["runs"] = std::move(runs);
  return doc;
}

std::string digest_key(const RunSpec& spec) {
  RunSpec identity = spec;
  identity.label.clear();
  identity.verify = false;
  identity.observe = false;
  return t1000::to_hex(t1000::fnv1a64(t1000::to_json(identity).dump()));
}

std::string outcome_digest(const t1000::RunOutcome& outcome) {
  return t1000::to_hex(t1000::fnv1a64(t1000::to_json(outcome).dump()));
}

std::vector<RunSpec> spec_universe() {
  std::vector<RunSpec> out;
  std::set<std::string> seen;
  const auto add = [&](RunSpec spec) {
    if (seen.insert(digest_key(spec)).second) out.push_back(std::move(spec));
  };
  const auto add_pfu_grid = [&](const std::string& workload,
                                const auto& latencies) {
    for (const Selector selector : {Selector::kGreedy, Selector::kSelective}) {
      for (const int pfus : kPfuCounts) {
        for (const int latency : latencies) {
          add(make_spec(workload, selector, pfus, latency));
        }
      }
    }
  };
  for (const t1000::Workload& w : bundled_workloads()) {
    add(t1000::baseline_spec(w.name));
    add_pfu_grid(w.name, kSweepLatencies);
    for (const PrepTemplate& t : kPrepTemplates) add(prep_spec(w.name, t, kPrepLatency));
  }
  for (const char* workload : kServeWorkloads) add_pfu_grid(workload, kServeLatencies);
  return out;
}

}  // namespace perfbench
