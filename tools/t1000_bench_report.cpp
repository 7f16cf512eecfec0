// t1000-bench-report: the repo's machine-readable perf trajectory.
//
//   t1000-bench-report [--json FILE] [--list] [--only NAME] [--jobs N]
//
// Runs a registered subset of the bench suite's scenarios in-process —
// small, fast grids chosen to cover every engine path whose performance
// the repo cares about (greedy/selective selection, a replay sweep over
// one preparation, cache round-trips, compiled code, verified sweeps) —
// and emits one JSON document per invocation:
//
//   {"schema": "t1000-bench-report/v1",
//    "host":    {...compiler/cpu fingerprint...},
//    "benches": [{"name":..., "wall_ms":..., "counters": {...}}, ...]}
//
// The counters are *deterministic* for a given source tree (run counts,
// traces recorded, replays, cache hit/miss/store tallies): CI diffs them
// exactly against the committed BENCH_14.json baseline, so any change to
// scheduling, caching, or trace sharing shows up as a
// counter diff, reviewable like a golden file. wall_ms is hardware- and
// load-dependent; the gate (tools/check_bench_report.py) only bounds it
// with a generous percentage tolerance to catch order-of-magnitude
// regressions without flaking on runner variance.
//
// Every scenario runs on a private in-memory cache (no cache_dir, or an
// explicitly shared ResultCache for the round-trip scenario), so the
// counters cannot be perturbed by an ambient $T1000_CACHE_DIR.
#include <sys/utsname.h>

#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/grid.hpp"
#include "harness/json.hpp"
#include "harness/options.hpp"
#include "workloads/workload.hpp"

using namespace t1000;

namespace {

struct BenchOutcome {
  double wall_ms = 0.0;
  EngineStats engine;          // counters of the (final) grid
  ResultCache::Counters cache; // cache movement across the whole scenario
};

struct RegisteredBench {
  const char* name;
  const char* what;  // one line for --list
  std::function<BenchOutcome(int jobs)> run;
};

// Registers the bundled workloads a scenario may name.
void add_suites(ExperimentGrid* grid) {
  grid->add_workloads(all_workloads());
  grid->add_workloads(extended_workloads());
  grid->add_workloads(compiled_workloads());
}

BenchOutcome run_grid(const ExperimentGrid& grid, GridOptions options) {
  const GridResult res = grid.run(options);
  BenchOutcome out;
  out.wall_ms = res.engine().wall_ms;
  out.engine = res.engine();
  out.cache = res.engine().cache;
  return out;
}

// The paper's two selection algorithms over two MediaBench analogs.
BenchOutcome bench_paper_greedy(int jobs) {
  ExperimentGrid grid;
  add_suites(&grid);
  for (const char* w : {"gsm_dec", "g721_dec"}) {
    grid.add(baseline_spec(w));
    grid.add(greedy_spec(w, "greedy2", 2, 10));
  }
  GridOptions options;
  options.jobs = jobs;
  return run_grid(grid, options);
}

BenchOutcome bench_paper_selective(int jobs) {
  ExperimentGrid grid;
  add_suites(&grid);
  for (const char* w : {"gsm_dec", "g721_dec"}) {
    grid.add(baseline_spec(w));
    grid.add(selective_spec(w, "sel2", 2, 10));
  }
  GridOptions options;
  options.jobs = jobs;
  return run_grid(grid, options);
}

// A reconfiguration-latency sweep over one selective preparation: one
// recording, then one replay per latency.
BenchOutcome bench_single_replay(int jobs) {
  ExperimentGrid grid;
  add_suites(&grid);
  grid.add(baseline_spec("gsm_dec"));
  for (const int latency : {5, 10, 20, 40}) {
    grid.add(selective_spec("gsm_dec", "L" + std::to_string(latency), 2,
                            latency));
  }
  GridOptions options;
  options.jobs = jobs;
  return run_grid(grid, options);
}

// Two identical grids over one shared in-memory cache: the first run is
// all misses+stores, the second all memory hits. The combined counters pin
// the cache contract (hits == stores == misses == runs of one grid).
BenchOutcome bench_cache_roundtrip(int jobs) {
  ExperimentGrid grid;
  add_suites(&grid);
  grid.add(baseline_spec("g721_enc"));
  grid.add(selective_spec("g721_enc", "sel2", 2, 10));

  ResultCache cache;  // in-memory tier only
  GridOptions options;
  options.jobs = jobs;
  options.cache = &cache;

  const BenchOutcome cold = run_grid(grid, options);
  BenchOutcome warm = run_grid(grid, options);
  warm.wall_ms += cold.wall_ms;
  warm.cache = cache.counters();  // whole-scenario movement
  return warm;
}

// Compiler output through the same machinery: the bundled t1000-cc
// kernel's compile + select + replay path.
BenchOutcome bench_compiled_kernel(int jobs) {
  ExperimentGrid grid;
  add_suites(&grid);
  grid.add(baseline_spec("cc_cikernel"));
  grid.add(selective_spec("cc_cikernel", "sel2", 2, 10));
  GridOptions options;
  options.jobs = jobs;
  return run_grid(grid, options);
}

// Static verification in the loop (--verify): the verifier's wall-clock
// rides the same trajectory as the simulator's.
BenchOutcome bench_verified_sweep(int jobs) {
  ExperimentGrid grid;
  add_suites(&grid);
  grid.add(baseline_spec("mpeg2_dec"));
  grid.add(selective_spec("mpeg2_dec", "sel2", 2, 10));
  GridOptions options;
  options.jobs = jobs;
  options.verify = true;
  return run_grid(grid, options);
}

// Stall observation on: per-cycle attribution is the observability layer's
// hot path and must stay cheap relative to the unobserved run.
BenchOutcome bench_observed_sweep(int jobs) {
  ExperimentGrid grid;
  add_suites(&grid);
  grid.add(baseline_spec("epic"));
  grid.add(selective_spec("epic", "sel2", 2, 10));
  GridOptions options;
  options.jobs = jobs;
  options.observe = true;
  return run_grid(grid, options);
}

const std::vector<RegisteredBench>& registered_benches() {
  static const std::vector<RegisteredBench> benches = {
      {"paper_greedy", "greedy selection over gsm_dec + g721_dec",
       bench_paper_greedy},
      {"paper_selective", "selective selection over gsm_dec + g721_dec",
       bench_paper_selective},
      {"single_replay", "reconfig-latency sweep over one preparation",
       bench_single_replay},
      {"cache_roundtrip", "cold + warm grid over one shared cache",
       bench_cache_roundtrip},
      {"compiled_kernel", "t1000-cc cikernel compile + select + replay",
       bench_compiled_kernel},
      {"verified_sweep", "selective sweep with static verification on",
       bench_verified_sweep},
      {"observed_sweep", "selective sweep with stall observation on",
       bench_observed_sweep},
  };
  return benches;
}

Json counters_json(const BenchOutcome& out) {
  const EngineStats& e = out.engine;
  Json j = Json::object();
  j["runs"] = Json(e.runs);
  j["ok"] = Json(e.ok);
  j["failed"] = Json(e.failed + e.timeouts + e.skipped);
  j["simulated"] = Json(e.simulated);
  j["traces_recorded"] = Json(e.traces_recorded);
  j["trace_replays"] = Json(e.trace_replays);
  j["verified_preps"] = Json(e.verified_preps);
  j["observed"] = Json(e.observed);
  j["cache_hits"] = Json(out.cache.hits());
  j["cache_misses"] = Json(out.cache.misses);
  j["cache_stores"] = Json(out.cache.stores);
  return j;
}

// Where the numbers came from: enough to tell two runners apart in a
// baseline diff, nothing that varies run-to-run on one machine.
Json host_json() {
  Json j = Json::object();
  j["cpus"] = Json(std::thread::hardware_concurrency());
  j["compiler"] = Json(std::string(__VERSION__));
  j["pointer_bits"] = Json(static_cast<double>(sizeof(void*) * 8));
#ifdef NDEBUG
  j["assertions"] = Json(false);
#else
  j["assertions"] = Json(true);
#endif
  utsname u{};
  if (uname(&u) == 0) {
    j["os"] = Json(std::string(u.sysname));
    j["machine"] = Json(std::string(u.machine));
  }
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string only;
  long jobs = 1;  // deterministic default: counters must not depend on host
  bool list = false;

  OptionParser parser("t1000-bench-report",
                      "perf-trajectory report over registered bench "
                      "scenarios (BENCH_*.json)");
  parser.add_string("--json", "FILE", "write the report here (default "
                    "stdout)", &json_path);
  parser.add_string("--only", "NAME", "run a single registered scenario",
                    &only);
  parser.add_int("--jobs", "N", "grid worker threads (default 1, so the "
                 "counters are schedule-independent)", &jobs, 1, 4096);
  parser.add_flag("--list", "list registered scenarios and exit", &list);
  parser.parse(argc, argv);

  if (list) {
    for (const RegisteredBench& b : registered_benches()) {
      std::printf("%-18s %s\n", b.name, b.what);
    }
    return 0;
  }

  Json benches = Json::array();
  bool matched = false;
  for (const RegisteredBench& b : registered_benches()) {
    if (!only.empty() && only != b.name) continue;
    matched = true;
    BenchOutcome out;
    try {
      out = b.run(static_cast<int>(jobs));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "t1000-bench-report: %s: %s\n", b.name, e.what());
      return 1;
    }
    if (out.engine.runs != out.engine.ok) {
      std::fprintf(stderr,
                   "t1000-bench-report: %s: %llu of %llu runs not ok\n",
                   b.name,
                   static_cast<unsigned long long>(out.engine.runs -
                                                   out.engine.ok),
                   static_cast<unsigned long long>(out.engine.runs));
      return 1;
    }
    Json entry = Json::object();
    entry["name"] = Json(std::string(b.name));
    entry["wall_ms"] = Json(out.wall_ms);
    entry["counters"] = counters_json(out);
    benches.push_back(std::move(entry));
    std::fprintf(stderr, "t1000-bench-report: %-18s %8.1f ms\n", b.name,
                 out.wall_ms);
  }
  if (!matched) {
    std::fprintf(stderr, "t1000-bench-report: unknown scenario '%s'\n",
                 only.c_str());
    return 2;
  }

  Json doc = Json::object();
  doc["schema"] = Json(std::string("t1000-bench-report/v1"));
  doc["host"] = host_json();
  doc["benches"] = std::move(benches);
  const std::string text = doc.dump(2) + "\n";

  if (json_path.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "t1000-bench-report: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return 0;
}
