#include "harness/grid.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "analysis/diagnostic.hpp"
#include "harness/identity.hpp"
#include "harness/once_cell.hpp"
#include "harness/report.hpp"
#include "harness/serialize.hpp"
#include "obs/scope.hpp"
#include "sim/executor.hpp"

namespace t1000 {
namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Per-workload lazily built shared state. The program hash is cheap (one
// assembly pass) and unlocks cache hits without profiling; the full
// WorkloadExperiment (profile + extraction + baseline run) is only built
// when some spec actually misses the cache.
struct WorkloadSlot {
  const Workload* workload = nullptr;
  ExperimentObs obs;  // set before the workers start
  OnceCell<std::uint64_t> hash;
  OnceCell<std::unique_ptr<WorkloadExperiment>> experiment;

  std::uint64_t program_hash_for() {
    return hash.get([this] { return program_hash(workload_program(*workload)); });
  }

  const WorkloadExperiment& experiment_for() {
    return *experiment.get(
        [this] { return std::make_unique<WorkloadExperiment>(*workload, obs); });
  }
};

}  // namespace

RunErrorKind classify_current_exception(std::string* message) {
  try {
    throw;
  } catch (const VerifyError& e) {
    *message = e.what();
    return RunErrorKind::kVerify;
  } catch (const SimError& e) {
    *message = e.what();
    return RunErrorKind::kSim;
  } catch (const JsonError& e) {
    *message = e.what();
    return RunErrorKind::kJson;
  } catch (const CacheIoError& e) {
    *message = e.what();
    return RunErrorKind::kCacheIo;
  } catch (const std::exception& e) {
    *message = e.what();
    return RunErrorKind::kStdException;
  } catch (...) {
    *message = "non-std::exception thrown";
    return RunErrorKind::kUnknown;
  }
}

GridResult::GridResult(std::vector<RunResult> runs, EngineStats engine)
    : runs_(std::move(runs)), engine_(engine) {}

const RunResult& GridResult::at(std::string_view workload,
                                std::string_view label) const {
  for (const RunResult& r : runs_) {
    if (r.spec.workload == workload && r.spec.label == label) return r;
  }
  std::string what = "no grid result for (" + std::string(workload) + ", " +
                     std::string(label) + ")";
  if (engine_.incomplete() > 0) {
    what += strprintf(" [%llu of %llu runs did not complete]",
                      static_cast<unsigned long long>(engine_.incomplete()),
                      static_cast<unsigned long long>(engine_.runs));
  }
  throw std::out_of_range(what);
}

bool GridResult::workload_ok(std::string_view workload) const {
  bool any = false;
  for (const RunResult& r : runs_) {
    if (r.spec.workload != workload) continue;
    if (!r.ok()) return false;
    any = true;
  }
  return any;
}

const RunOutcome& GridResult::outcome(std::string_view workload,
                                      std::string_view label) const {
  const RunResult& r = at(workload, label);
  if (!r.ok()) {
    throw std::runtime_error(
        "grid run (" + std::string(workload) + ", " + std::string(label) +
        ") did not complete: " + std::string(run_status_name(r.status)) +
        (r.error_kind == RunErrorKind::kNone
             ? ""
             : std::string(" [") + std::string(run_error_kind_name(r.error_kind)) +
                   "]") +
        (r.error.empty() ? "" : ": " + r.error));
  }
  return r.outcome;
}

Json GridResult::results_json() const {
  Json results = Json::array();
  for (const RunResult& r : runs_) {
    results.push_back(t1000::to_json(r));
  }
  return results;
}

Json GridResult::to_json() const {
  Json engine = Json::object();
  engine["jobs"] = Json(engine_.jobs);
  engine["runs"] = Json(engine_.runs);
  engine["simulated"] = Json(engine_.simulated);
  engine["ok"] = Json(engine_.ok);
  engine["failed"] = Json(engine_.failed);
  engine["timeouts"] = Json(engine_.timeouts);
  engine["skipped"] = Json(engine_.skipped);
  engine["cache_memory_hits"] = Json(engine_.cache.memory_hits);
  engine["cache_disk_hits"] = Json(engine_.cache.disk_hits);
  engine["cache_misses"] = Json(engine_.cache.misses);
  engine["cache_disk_errors"] = Json(engine_.cache.disk_errors);
  engine["cache_quarantined"] = Json(engine_.cache.quarantined);
  engine["cache_quarantine_removed"] = Json(engine_.cache.quarantine_removed);
  engine["cache_evicted"] = Json(engine_.cache.evicted);
  engine["cache_size_evicted"] = Json(engine_.cache.size_evicted);
  engine["traces_recorded"] = Json(engine_.traces_recorded);
  engine["trace_replays"] = Json(engine_.trace_replays);
  engine["observed"] = Json(engine_.observed);
  if (engine_.observed > 0) engine["stalls"] = t1000::to_json(engine_.stalls);
  engine["verified_preps"] = Json(engine_.verified_preps);
  engine["verify_ms"] = Json(engine_.verify_ms);
  engine["wall_ms"] = Json(engine_.wall_ms);
  Json run_wall = Json::array();
  Json run_cached = Json::array();
  for (const RunResult& r : runs_) {
    run_wall.push_back(Json(r.wall_ms));
    run_cached.push_back(Json(r.cache_hit));
  }
  engine["run_wall_ms"] = std::move(run_wall);
  engine["run_cache_hit"] = std::move(run_cached);

  Json doc = Json::object();
  doc["results"] = results_json();
  doc["engine"] = std::move(engine);
  return doc;
}

std::string GridResult::engine_summary() const {
  using ull = unsigned long long;
  // Built with a growing formatter: this line accretes counters across PRs
  // and must never silently truncate (pinned by a test).
  std::string out = strprintf(
      "[engine] %llu runs in %.0f ms, %d job(s); status: %llu ok, %llu"
      " failed, %llu timeout, %llu skipped; cache: %llu hit(s) (%llu memory,"
      " %llu disk), %llu simulated",
      static_cast<ull>(engine_.runs), engine_.wall_ms, engine_.jobs,
      static_cast<ull>(engine_.ok), static_cast<ull>(engine_.failed),
      static_cast<ull>(engine_.timeouts), static_cast<ull>(engine_.skipped),
      static_cast<ull>(engine_.cache.hits()),
      static_cast<ull>(engine_.cache.memory_hits),
      static_cast<ull>(engine_.cache.disk_hits),
      static_cast<ull>(engine_.simulated));
  if (engine_.cache.quarantined > 0 || engine_.cache.quarantine_removed > 0 ||
      engine_.cache.evicted > 0 || engine_.cache.size_evicted > 0 ||
      engine_.cache.disk_errors > 0) {
    // quarantine_removed stays distinct from quarantined: a removed corrupt
    // entry left no .corrupt file behind, and the summary must not claim
    // one exists.
    out += strprintf(
        " (%llu quarantined, %llu corrupt-removed, %llu evicted, %llu"
        " size-evicted, %llu disk error(s))",
        static_cast<ull>(engine_.cache.quarantined),
        static_cast<ull>(engine_.cache.quarantine_removed),
        static_cast<ull>(engine_.cache.evicted),
        static_cast<ull>(engine_.cache.size_evicted),
        static_cast<ull>(engine_.cache.disk_errors));
  }
  out += strprintf("; traces: %llu recorded, %llu replayed",
                   static_cast<ull>(engine_.traces_recorded),
                   static_cast<ull>(engine_.trace_replays));
  if (engine_.verified_preps > 0) {
    out += strprintf("; verify: %llu preparation(s) in %.1f ms",
                     static_cast<ull>(engine_.verified_preps),
                     engine_.verify_ms);
  }
  if (engine_.observed > 0) {
    const std::uint64_t stall = engine_.stalls.stall_cycles();
    out += strprintf("; stalls: %llu observed run(s), %llu/%llu stall cycle(s)",
                     static_cast<ull>(engine_.observed),
                     static_cast<ull>(stall),
                     static_cast<ull>(engine_.stalls.cycles));
    if (stall > 0) {
      int top = 0;
      for (int c = 1; c < kNumStallCauses; ++c) {
        if (engine_.stalls.causes[c] > engine_.stalls.causes[top]) top = c;
      }
      out += strprintf(
          " (top: %s %.1f%%)",
          std::string(stall_cause_name(static_cast<StallCause>(top))).c_str(),
          100.0 * static_cast<double>(engine_.stalls.causes[top]) /
              static_cast<double>(stall));
    }
  }
  return out;
}

void ExperimentGrid::add_workload(const Workload& workload) {
  const auto it = index_.find(workload.name);
  if (it != index_.end()) {
    workloads_[it->second] = workload;
    return;
  }
  index_.emplace(workload.name, workloads_.size());
  workloads_.push_back(workload);
}

void ExperimentGrid::add_workloads(const std::vector<Workload>& workloads) {
  for (const Workload& w : workloads) add_workload(w);
}

void ExperimentGrid::add(RunSpec spec) {
  if (index_.find(spec.workload) == index_.end()) {
    throw std::invalid_argument("ExperimentGrid: unregistered workload '" +
                                spec.workload + "'");
  }
  // (workload, label) is the lookup key of GridResult::at(); duplicates
  // would shadow each other silently.
  for (const RunSpec& existing : specs_) {
    if (existing.workload == spec.workload && existing.label == spec.label) {
      throw std::invalid_argument("ExperimentGrid: duplicate spec (" +
                                  spec.workload + ", " + spec.label + ")");
    }
  }
  specs_.push_back(std::move(spec));
}

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

GridResult ExperimentGrid::run(const GridOptions& options) const {
  const auto grid_start = std::chrono::steady_clock::now();
  const int jobs = std::max(
      1, std::min<int>(resolve_jobs(options.jobs),
                       static_cast<int>(std::max<std::size_t>(specs_.size(), 1))));

  // Metrics instruments are resolved once, up front; the per-run updates in
  // the workers are then lock-free saturating atomics.
  struct GridInstruments {
    obs::Counter* runs = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* simulated = nullptr;
    obs::Counter* incomplete = nullptr;
    obs::Histogram* run_ns = nullptr;    // simulated runs, as their spans
    obs::Histogram* cache_ns = nullptr;  // cache lookups and stores
  } metrics;
  if (options.metrics != nullptr) {
    metrics.runs = options.metrics->counter("grid.runs");
    metrics.cache_hits = options.metrics->counter("grid.cache_hits");
    metrics.simulated = options.metrics->counter("grid.simulated");
    metrics.incomplete = options.metrics->counter("grid.runs_incomplete");
    metrics.run_ns = options.metrics->ns_histogram("grid.run_ns");
    metrics.cache_ns = options.metrics->ns_histogram("exp.phase_ns|phase=cache");
  }

  ResultCache local_cache(options.cache_dir, options.cache_budget_bytes);
  ResultCache& cache = options.cache != nullptr ? *options.cache : local_cache;
  // With a borrowed cache the counters are cumulative across grids; the
  // engine section reports only what this run contributed.
  const ResultCache::Counters cache_baseline = cache.counters();
  std::vector<WorkloadSlot> slots(workloads_.size());
  for (std::size_t i = 0; i < workloads_.size(); ++i) {
    slots[i].workload = &workloads_[i];
    slots[i].obs = ExperimentObs{options.metrics, options.journal};
  }

  // Cache operations and runs are obs::Scopes: each is one span in the
  // journal (under the worker's current trace context; the experiment's
  // phase spans parent under the run's) and one observation in its `*_ns`
  // histogram. Without a journal and an active trace only the histograms
  // record.
  obs::Journal* const journal = options.journal;
  const auto cache_lookup = [&](ResultCache& c, const CacheKey& key,
                                RunOutcome* outcome) {
    obs::Scope scope(metrics.cache_ns, journal, obs::current_trace_context(),
                     "cache.lookup");
    const bool hit = c.lookup(key, outcome);
    if (journal != nullptr) {
      Json attrs = Json::object();
      attrs["hit"] = Json(hit);
      scope.set_end_attrs(std::move(attrs));
    }
    return hit;
  };
  const auto cache_store = [&](ResultCache& c, const CacheKey& key,
                               const RunOutcome& outcome) {
    const obs::Scope scope(metrics.cache_ns, journal,
                           obs::current_trace_context(), "cache.store");
    c.store(key, outcome);
  };
  const auto run_attrs = [&](const RunSpec& spec) {
    if (journal == nullptr) return Json();
    Json attrs = Json::object();
    attrs["workload"] = Json(spec.workload);
    attrs["label"] = Json(spec.label);
    return attrs;
  };

  // The scheduling unit is the specs that share a preparation
  // (RunIdentity::batch_key), grouped greedily in insertion order. A
  // worker takes a whole unit and runs its specs one after another, so the
  // first builds the preparation and the rest replay its trace, instead of
  // several workers blocking in call_once on one build. A twin spec hits
  // the cache entry its predecessor stored. Grouping only schedules:
  // results are the same for any grouping and any number of jobs.
  std::vector<std::vector<std::size_t>> groups;
  {
    std::map<std::string, std::size_t> group_of;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const auto [it, fresh] =
          group_of.emplace(RunIdentity::batch_key(specs_[i]), groups.size());
      if (fresh) groups.emplace_back();
      groups[it->second].push_back(i);
    }
  }

  std::vector<RunResult> results(specs_.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};
  std::atomic<std::uint64_t> failures{0};
  std::mutex error_mu;
  std::exception_ptr first_error;

  // Called on the worker after a run fails or times out: records the
  // verdict, trips the strict/fail-limit abort, and keeps the first
  // exception for strict mode's post-drain rethrow. Never lets a worker
  // exit early — the queue must drain so every spec gets a status.
  const auto record_failure = [&](RunResult& out, RunStatus status,
                                  RunErrorKind kind, std::string message,
                                  std::exception_ptr error) {
    out.status = status;
    out.error_kind = kind;
    out.error = std::move(message);
    out.outcome = RunOutcome{};  // drop any partially filled outcome
    if (metrics.incomplete != nullptr) metrics.incomplete->add(1);
    const std::uint64_t count =
        failures.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options.strict ||
        (options.fail_limit > 0 && count >= options.fail_limit)) {
      abort.store(true, std::memory_order_relaxed);
    }
    if (options.strict && error) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!first_error) first_error = std::move(error);
    }
  };

  // One spec, start to finish: abort check, fault hook, cache lookup, and
  // on a miss the run itself under a "run" span, then the cache store and
  // the budget check.
  const auto run_spec = [&](std::size_t i) {
    RunResult& out = results[i];
    out.spec = specs_[i];
    // Stamp before the cache key is built: verified (or observed) runs
    // must not share entries with unverified (or unobserved) ones.
    if (options.verify) out.spec.verify = true;
    if (options.observe) out.spec.observe = true;
    if (abort.load(std::memory_order_relaxed)) {
      out.status = RunStatus::kSkipped;
      out.error = options.strict
                      ? "skipped: an earlier run failed in strict mode"
                      : "skipped: the grid's fail limit was reached";
      return;
    }
    const auto run_start = std::chrono::steady_clock::now();
    try {
      if (options.fault_hook) options.fault_hook(out.spec);
      WorkloadSlot& slot = slots[index_.find(out.spec.workload)->second];
      const CacheKey key = make_cache_key(out.spec, slot.program_hash_for(),
                                          slot.workload->max_steps);
      if (cache_lookup(cache, key, &out.outcome)) {
        out.cache_hit = true;
      } else {
        const obs::Scope run(metrics.run_ns, journal,
                             obs::current_trace_context(), "run",
                             run_attrs(out.spec));
        const obs::ScopedTraceContext run_context(run.context());
        out.outcome = slot.experiment_for().run(out.spec);
        cache_store(cache, key, out.outcome);
      }
      if (metrics.runs != nullptr) {
        metrics.runs->add(1);
        if (out.cache_hit) metrics.cache_hits->add(1);
        else metrics.simulated->add(1);
      }
      out.wall_ms = ms_since(run_start);
      if (options.run_budget_ms > 0 && out.wall_ms > options.run_budget_ms) {
        const std::string msg =
            strprintf("run exceeded wall-clock budget: %.1f ms > %.1f ms",
                      out.wall_ms, options.run_budget_ms);
        record_failure(out, RunStatus::kTimeout, RunErrorKind::kNone, msg,
                       std::make_exception_ptr(GridTimeoutError(msg)));
      } else {
        out.status = RunStatus::kOk;
      }
    } catch (const GridTimeoutError& e) {
      out.wall_ms = ms_since(run_start);
      record_failure(out, RunStatus::kTimeout, RunErrorKind::kNone, e.what(),
                     std::current_exception());
    } catch (...) {
      out.wall_ms = ms_since(run_start);
      std::string message;
      const RunErrorKind kind = classify_current_exception(&message);
      record_failure(out, RunStatus::kError, kind, std::move(message),
                     std::current_exception());
    }
  };

  const auto worker = [&] {
    // The grid's trace crosses the thread boundary here: each worker
    // installs it so every emission below (and the experiment phases
    // underneath) lands in the right trace.
    const obs::ScopedTraceContext grid_scope(options.trace);
    for (;;) {
      const std::size_t g = next.fetch_add(1, std::memory_order_relaxed);
      if (g >= groups.size()) return;
      for (const std::size_t i : groups[g]) run_spec(i);
    }
  };

  if (jobs == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  if (options.strict && first_error) std::rethrow_exception(first_error);

  EngineStats engine;
  engine.jobs = jobs;
  engine.runs = specs_.size();
  for (const RunResult& r : results) {
    switch (r.status) {
      case RunStatus::kOk: ++engine.ok; break;
      case RunStatus::kError: ++engine.failed; break;
      case RunStatus::kTimeout: ++engine.timeouts; break;
      case RunStatus::kSkipped: ++engine.skipped; break;
    }
    if (r.ok() && r.outcome.observed) {
      ++engine.observed;
      engine.stalls.accumulate(r.outcome.stalls);
    }
  }
  engine.cache = cache.counters().since(cache_baseline);
  engine.simulated = engine.cache.misses;
  for (const WorkloadSlot& slot : slots) {
    const WorkloadExperiment* experiment = slot.experiment.peek().get();
    if (experiment == nullptr) continue;
    const WorkloadExperiment::TraceCounters tc = experiment->trace_counters();
    engine.traces_recorded += tc.recorded;
    engine.trace_replays += tc.reused;
    const WorkloadExperiment::VerifyCounters vc =
        experiment->verify_counters();
    engine.verified_preps += vc.reports;
    engine.verify_ms += vc.wall_ms;
  }
  engine.wall_ms = ms_since(grid_start);
  return GridResult(std::move(results), engine);
}

BenchOptions parse_bench_options(int argc, char** argv,
                                 const std::string& name,
                                 const std::string& summary) {
  BenchOptions out;
  const char* env_dir = std::getenv("T1000_CACHE_DIR");
  out.grid.cache_dir = env_dir != nullptr ? env_dir : ".t1000-cache";

  // Far beyond any sane thread count, but small enough that the int cast
  // and per-worker allocations cannot overflow or OOM from a typo'd value.
  constexpr long kMaxJobs = 1 << 15;
  long jobs = 0;
  long cache_budget = 0;
  if (const char* env_budget = std::getenv("T1000_CACHE_BUDGET_BYTES")) {
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(env_budget, &end, 10);
    if (errno == 0 && end != env_budget && *end == '\0' && parsed >= 0) {
      cache_budget = parsed;
    }
  }
  double run_budget_ms = 0.0;
  bool no_cache = false;
  OptionParser parser(name, summary);
  parser.add_int("--jobs", "N", "worker threads (default: all hardware threads)",
                 &jobs, 0, kMaxJobs);
  parser.add_string("--json", "FILE", "also write results + engine stats as JSON",
                    &out.json_path);
  parser.add_string("--cache-dir", "DIR",
                    "on-disk result cache (default: $T1000_CACHE_DIR or "
                    ".t1000-cache)",
                    &out.grid.cache_dir);
  parser.add_flag("--no-cache", "disable the on-disk result cache", &no_cache);
  parser.add_int("--cache-budget-bytes", "N",
                 "size budget for the on-disk cache; least-recently-used "
                 "entries are evicted to fit (default: "
                 "$T1000_CACHE_BUDGET_BYTES or unbounded)",
                 &cache_budget, 0, std::numeric_limits<long>::max());
  parser.add_flag("--verify",
                  "statically verify every selection/rewrite before "
                  "simulating it (failures are recorded as verify errors)",
                  &out.grid.verify);
  parser.add_flag("--observe",
                  "attribute stall cycles on every run (adds a 'stalls' "
                  "breakdown to each outcome and a grid-level aggregate)",
                  &out.grid.observe);
  parser.add_string("--metrics-out", "FILE",
                    "write the engine's metrics registry as JSON: grid.* "
                    "counters and wall-clock histograms in ns (grid.run_ns, "
                    "exp.phase_ns per phase)",
                    &out.metrics_path);
  long journal_max_bytes = 64l << 20;
  parser.add_string("--journal-out", "FILE",
                    "append-only JSONL event journal of the grid's "
                    "run/cache/phase spans (one JSON object per line)",
                    &out.journal_path);
  parser.add_int("--journal-max-bytes", "N",
                 "rotate the journal to FILE.1 past this size (default: "
                 "64 MiB)",
                 &journal_max_bytes, 1, std::numeric_limits<long>::max());
  parser.add_flag("--strict",
                  "abort the grid on the first failing run (default: record "
                  "the failure and keep going)",
                  &out.grid.strict);
  parser.add_flag("--keep-going",
                  "exit 0 even when some runs failed (failures still show in "
                  "the summary and JSON)",
                  &out.keep_going);
  parser.add_double("--run-budget-ms", "MS",
                    "per-run wall-clock budget; slower runs are recorded as "
                    "timeouts (default: unlimited)",
                    &run_budget_ms);
  parser.set_positional("", 0, 0);
  parser.parse(argc, argv);

  out.grid.jobs = static_cast<int>(jobs);
  out.grid.run_budget_ms = run_budget_ms;
  out.grid.cache_budget_bytes = static_cast<std::uint64_t>(cache_budget);
  if (no_cache) out.grid.cache_dir.clear();
  if (!out.metrics_path.empty()) {
    out.metrics = std::make_shared<obs::MetricsRegistry>();
    out.grid.metrics = out.metrics.get();
  }
  if (!out.journal_path.empty()) {
    obs::Journal::Options jopts;
    jopts.path = out.journal_path;
    jopts.max_bytes = static_cast<std::uint64_t>(journal_max_bytes);
    out.journal = std::make_shared<obs::Journal>(std::move(jopts));
    out.grid.journal = out.journal.get();
    // The whole bench invocation is one trace rooted at span 0.
    out.grid.trace = obs::TraceContext{out.journal->new_id(), 0};
  }
  return out;
}

int finish_bench(const GridResult& result, const BenchOptions& options) {
  if (!options.json_path.empty() &&
      !write_json_file(options.json_path, result.to_json())) {
    return 1;
  }
  if (!options.metrics_path.empty() && options.metrics != nullptr &&
      !write_json_file(options.metrics_path, options.metrics->to_json())) {
    return 1;
  }
  std::printf("%s\n", result.engine_summary().c_str());
  const EngineStats& engine = result.engine();
  if (engine.incomplete() == 0) return 0;
  using ull = unsigned long long;
  std::fprintf(stderr,
               "[engine] %llu of %llu run(s) did not complete (%llu failed, "
               "%llu timeout, %llu skipped)%s\n",
               static_cast<ull>(engine.incomplete()),
               static_cast<ull>(engine.runs), static_cast<ull>(engine.failed),
               static_cast<ull>(engine.timeouts),
               static_cast<ull>(engine.skipped),
               options.keep_going ? "; --keep-going, exiting 0" : "");
  return options.keep_going ? 0 : 1;
}

}  // namespace t1000
