// t1000-perfbench: the C++ half of the benchmark (perfbench/run.py is the
// entry point). Each mode prints one JSON object as its last stdout line.
//
//   setup                          time registry + MiniC compile + assembly
//   run   --workload W --seed N --seconds S --jobs J --expected F
//                                  untraced grid workload (sweep_cold,
//                                  prep_verify): end-to-end numbers + checks
//   trace --workload W --seed N --seconds S --jobs J --expected F
//         --spans-out FILE [--work-dir DIR]
//                                  traced run: per-layer self times
//   plan  --seed N --seconds S     the serve_mixed jobs and arrival schedule
//   check-serve --in FILE --expected F
//                                  daemon results vs SimService::run_local
//   record-expected --out F --jobs J
//                                  writes the digest table the checks use
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/grid.hpp"
#include "harness/serialize.hpp"
#include "layers.hpp"
#include "serve/service.hpp"
#include "specs.hpp"
#include "workloads/workload.hpp"

using t1000::Json;
using t1000::RunSpec;
namespace fs = std::filesystem;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// Peak RSS since the last reset_peak_rss(): VmHWM of /proc/self/status.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

// Writing 5 to clear_refs resets the process's peak RSS to its current RSS,
// so each repetition reports its own peak.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest percentile with at least ten samples beyond it: the 11th
// largest sample (falls back to the maximum below 11 samples).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t beyond = std::min<std::size_t>(10, v.size() - 1);
  t.value = v[v.size() - 1 - beyond];
  t.percentile = 100.0 * static_cast<double>(v.size() - beyond) /
                 static_cast<double>(v.size());
  return t;
}

struct Args {
  std::string mode;
  std::map<std::string, std::string> values;

  std::string get(const std::string& key, const std::string& fallback = "") const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : std::stoull(it->second);
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) throw std::invalid_argument("missing mode");
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("bad argument " + key);
    }
    args.values[key.substr(2)] = argv[++i];
  }
  return args;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

// --- set-up -----------------------------------------------------------

struct Setup {
  double compile_s = 0.0;   // first compiled_workloads(): the MiniC compile
  double register_s = 0.0;  // the hand-written suites
  double assemble_s = 0.0;  // every bundled workload
  double total() const { return compile_s + register_s + assemble_s; }
};

// Must run first in the process: the registries build lazily, once.
Setup measure_setup() {
  Setup s;
  double t = now_s();
  (void)t1000::all_workloads();
  (void)t1000::extended_workloads();
  s.register_s = now_s() - t;
  t = now_s();
  (void)t1000::compiled_workloads();
  s.compile_s = now_s() - t;
  t = now_s();
  for (const t1000::Workload& w : perfbench::bundled_workloads()) {
    (void)t1000::workload_program(w);
  }
  s.assemble_s = now_s() - t;
  return s;
}

Json setup_json(const Setup& s) {
  Json j = Json::object();
  j["setup_s"] = Json(s.total());
  j["register_s"] = Json(s.register_s);
  j["compile_s"] = Json(s.compile_s);
  j["assemble_s"] = Json(s.assemble_s);
  return j;
}

// --- output checks ------------------------------------------------------

// The recorded digest table: outcome digest per run identity, and the
// functional checksum every run of a workload must reproduce.
struct Expected {
  std::map<std::string, std::string> digests;
  std::map<std::string, std::uint32_t> checksums;
};

Expected load_expected(const std::string& path) {
  const Json doc = Json::parse(read_file(path));
  Expected e;
  for (const auto& [key, value] : doc.at("digests").members()) {
    e.digests[key] = value.as_string();
  }
  for (const auto& [key, value] : doc.at("checksums").members()) {
    e.checksums[key] = static_cast<std::uint32_t>(value.as_uint());
  }
  return e;
}

struct Checker {
  const Expected* expected = nullptr;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void fail(const std::string& what) {
    if (problems.size() < 20) problems.push_back(what);
  }
  bool correct() const { return failed == 0 && problems.empty(); }

  // One run's outcome against the recorded digest and checksum.
  void check_outcome(const RunSpec& spec, const t1000::RunOutcome& outcome) {
    const std::string where = spec.workload + "/" + spec.label;
    const auto sum = expected->checksums.find(spec.workload);
    if (sum == expected->checksums.end() || sum->second != outcome.checksum) {
      fail(where + ": functional checksum not validated");
    }
    const auto digest = expected->digests.find(perfbench::digest_key(spec));
    if (digest == expected->digests.end()) {
      fail(where + ": no recorded digest");
    } else if (digest->second != perfbench::outcome_digest(outcome)) {
      fail(where + ": simulated statistics differ from the recorded digest");
    }
  }

  void check_run(const t1000::RunResult& r) {
    ++attempted;
    if (!r.ok()) {
      ++failed;
      fail(r.spec.workload + "/" + r.spec.label + ": " + r.error);
      return;
    }
    check_outcome(r.spec, r.outcome);
  }

  Json to_json() const {
    Json j = Json::object();
    j["correct"] = Json(correct());
    j["attempted"] = Json(attempted);
    j["failed"] = Json(failed);
    j["problems"] = Json::array_of(problems);
    return j;
  }
};

std::vector<RunSpec> grid_specs(const std::string& workload, std::uint64_t seed) {
  if (workload == "sweep_cold") return perfbench::sweep_cold_specs(seed);
  if (workload == "prep_verify") return perfbench::prep_verify_specs(seed);
  throw std::invalid_argument("unknown grid workload " + workload);
}

t1000::ExperimentGrid make_grid(const std::vector<RunSpec>& specs) {
  t1000::ExperimentGrid grid;
  grid.add_workloads(perfbench::bundled_workloads());
  for (const RunSpec& spec : specs) grid.add(spec);
  return grid;
}

// --- fidelity table -----------------------------------------------------

// Paper reference values from EXPERIMENTS.md (Figures 2 and 6).
struct PaperRow {
  const char* workload;
  const char* greedy_unlimited;
};
constexpr PaperRow kPaper[] = {
    {"unepic", "~10%"},   {"epic", "~10%"},     {"gsm_dec", "44%"},
    {"gsm_enc", "~35%"},  {"g721_dec", "4.5%"}, {"g721_enc", "~6%"},
    {"mpeg2_dec", "~20%"}, {"mpeg2_enc", "~13%"},
};

Json fidelity_table(const t1000::GridResult& result) {
  Json rows = Json::array();
  for (const PaperRow& row : kPaper) {
    const auto cycles = [&](const std::string& label) {
      return static_cast<double>(result.stats(row.workload, label).cycles);
    };
    const double base = cycles("baseline");
    Json r = Json::object();
    r["workload"] = Json(row.workload);
    for (const char* sel : {"greedy", "selective"}) {
      for (const char* pfu : {"2", "4", "unl"}) {
        r[std::string(sel) + "_" + pfu] = Json(
            base / cycles(std::string(sel) + "-p" + pfu + "-l10"));
      }
    }
    r["paper_greedy_unl"] = Json(row.greedy_unlimited);
    r["paper_greedy_2"] = Json("<1.0x (thrash)");
    r["paper_selective_2"] = Json("+2..27% range");
    r["paper_selective_4"] = Json("~= unlimited");
    rows.push_back(std::move(r));
  }
  return rows;
}

// --- modes --------------------------------------------------------------

int mode_setup() {
  std::printf("%s\n", setup_json(measure_setup()).dump().c_str());
  return 0;
}

int mode_run(const Args& args) {
  const Setup setup = measure_setup();
  const std::string workload = args.get("workload");
  const double seconds = std::stod(args.get("seconds", "10"));
  const Expected expected = load_expected(args.get("expected"));
  const std::vector<RunSpec> specs = grid_specs(workload, args.get_u64("seed", 1));
  const t1000::ExperimentGrid grid = make_grid(specs);
  t1000::GridOptions options;
  options.jobs = static_cast<int>(args.get_u64("jobs", 1));

  Checker checker;
  checker.expected = &expected;
  std::vector<double> walls, cpus, minst, jobs_per_s, p50s, tails, rss;
  Tail tail_shape;
  std::vector<std::string> first_digests;
  Json fidelity;
  const double start = now_s();
  // At least three repetitions, so every median has a middle.
  while (walls.size() < 3 || now_s() - start < seconds) {
    reset_peak_rss();
    const double cpu0 = cpu_s();
    const double t0 = now_s();
    const t1000::GridResult result = grid.run(options);
    const double wall = now_s() - t0;
    const double cpu = cpu_s() - cpu0;
    rss.push_back(peak_rss_mb());
    std::vector<double> run_ms;
    std::uint64_t committed = 0;
    std::vector<std::string> digests;
    for (const t1000::RunResult& r : result.runs()) {
      checker.check_run(r);
      run_ms.push_back(r.wall_ms);
      digests.push_back(r.ok() ? perfbench::outcome_digest(r.outcome) : "");
      if (r.ok() && !r.cache_hit) committed += r.outcome.stats.committed;
    }
    if (first_digests.empty()) {
      first_digests = digests;
    } else if (digests != first_digests) {
      checker.fail("simulated statistics differ between repetitions");
    }
    if (workload == "sweep_cold" && fidelity.is_null() && checker.correct()) {
      fidelity = fidelity_table(result);
    }
    walls.push_back(wall);
    cpus.push_back(cpu);
    minst.push_back(static_cast<double>(committed) / wall / 1e6);
    jobs_per_s.push_back(static_cast<double>(result.runs().size()) / wall);
    p50s.push_back(median(run_ms));
    tail_shape = tail_of(run_ms);
    tails.push_back(tail_shape.value);
  }

  Json metrics = Json::object();
  metrics["wall_s"] = Json(median(walls));
  metrics["cpu_s"] = Json(median(cpus));
  metrics["sim_minst_per_s"] = Json(median(minst));
  metrics["jobs_per_s"] = Json(median(jobs_per_s));
  metrics["latency_p50_ms"] = Json(median(p50s));
  metrics["latency_tail_ms"] = Json(median(tails));
  metrics["peak_rss_mb"] = Json(median(rss));
  Json out = checker.to_json();
  out["metrics"] = std::move(metrics);
  out["setup"] = setup_json(setup);
  out["repetitions"] = Json(walls.size());
  out["runs_per_repetition"] = Json(specs.size());
  out["jobs"] = Json(options.jobs);
  Json tail = Json::object();
  tail["percentile"] = Json(tail_shape.percentile);
  tail["samples_per_repetition"] = Json(tail_shape.samples);
  out["latency_tail"] = std::move(tail);
  out["wall_s_all"] = Json::array_of(walls);
  if (!fidelity.is_null()) out["fidelity"] = std::move(fidelity);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// Per-layer metrics of traced drives: `d` holds the spans and counts of
// `passes` passes and their mean wall.
Json layer_metrics(const perfbench::DriveResult& d, double passes, int jobs,
                   const Setup& setup, const t1000::ResultCache::Counters* cache) {
  std::map<std::string, double> self = perfbench::self_seconds(d.spans);
  const auto s = [&](const char* name) { return self[name] / passes; };
  const auto per = [&](double v) { return v / passes; };
  const perfbench::LayerCounts& c = d.counts;
  Json m = Json::object();
  m["uarch.replay_s"] = Json(s("uarch.replay"));
  m["uarch.batch_s"] = Json(s("uarch.batch"));
  m["uarch.replay_ns_per_inst"] =
      Json(c.replay_insts == 0 ? 0.0
                               : (self["uarch.replay"] + self["uarch.batch"]) *
                                     1e9 / static_cast<double>(c.replay_insts));
  m["uarch.batch_lanes"] =
      Json(c.batch_calls == 0 ? 0.0
                              : static_cast<double>(c.batch_lanes) /
                                    static_cast<double>(c.batch_calls));
  m["sim.record_s"] = Json(s("sim.record"));
  m["sim.record_ns_per_step"] =
      Json(c.record_steps == 0 ? 0.0
                               : self["sim.record"] * 1e9 /
                                     static_cast<double>(c.record_steps));
  m["sim.record_steps"] = Json(per(static_cast<double>(c.record_steps)));
  m["sim.decode_s"] = Json(s("sim.decode"));
  m["extinst.analyze_s"] = Json(s("extinst.analyze"));
  m["extinst.select_s"] = Json(s("extinst.select"));
  m["extinst.rewrite_s"] = Json(s("extinst.rewrite"));
  m["extinst.sites"] = Json(per(static_cast<double>(c.sites)));
  m["extinst.apps"] = Json(per(static_cast<double>(c.apps)));
  m["analysis.verify_s"] = Json(s("analysis.verify"));
  m["analysis.verify_reports"] = Json(per(static_cast<double>(c.verify_reports)));
  m["asmkit.assemble_s"] = Json(setup.assemble_s + s("asmkit.assemble"));
  m["minic.compile_s"] = Json(setup.compile_s);
  m["harness.grid_self_s"] = Json(s("harness.grid") + s("harness.group"));
  m["harness.trace_reuse_ratio"] =
      Json(c.traces_recorded == 0 ? 0.0
                                  : static_cast<double>(c.runs) /
                                        static_cast<double>(c.traces_recorded));
  m["harness.cache_lookup_s"] = Json(s("harness.cache_lookup"));
  m["harness.cache_store_s"] = Json(s("harness.cache_store"));
  const double lookups = cache != nullptr ? static_cast<double>(cache->lookups())
                                          : static_cast<double>(c.runs);
  const double hits = cache != nullptr ? static_cast<double>(cache->hits()) : 0.0;
  m["harness.cache_lookups"] = Json(per(lookups));
  m["harness.cache_hit_ratio"] = Json(lookups == 0 ? 0.0 : hits / lookups);
  m["harness.cache_evictions"] = Json(
      cache != nullptr ? per(static_cast<double>(cache->size_evicted + cache->evicted))
                       : 0.0);
  m["harness.serialize_s"] = Json(s("harness.serialize"));
  m["harness.result_bytes"] = Json(per(static_cast<double>(c.result_bytes)));
  // Unattributed: worker-thread capacity of the traced wall (per pass) not
  // covered by any span below the per-job root.
  double covered = 0.0;
  for (const perfbench::Span& span : d.spans) {
    if (span.name == "harness.group" || span.name == "harness.serialize") {
      covered += static_cast<double>(span.end_ns - span.start_ns) * 1e-9 / passes;
    }
  }
  const double capacity = d.wall_s * static_cast<double>(jobs);
  m["trace.unattributed_frac"] =
      Json(capacity <= 0.0 ? 0.0 : std::max(0.0, 1.0 - covered / capacity));
  return m;
}

void check_same_work(const perfbench::DriveResult& d,
                     const std::vector<std::vector<std::string>>& reference,
                     Checker* checker) {
  for (const std::string& e : d.errors) checker->fail("traced run: " + e);
  if (d.digests != reference) {
    checker->fail("traced run produced different outcomes than the engine");
  }
}

std::vector<std::string> grid_digests(const t1000::GridResult& result,
                                      Checker* checker) {
  std::vector<std::string> out;
  for (const t1000::RunResult& r : result.runs()) {
    checker->check_run(r);
    out.push_back(r.ok() ? perfbench::outcome_digest(r.outcome) : "");
  }
  return out;
}

int mode_trace_grid(const Args& args, const Setup& setup) {
  const std::string workload = args.get("workload");
  const double seconds = std::stod(args.get("seconds", "10"));
  const Expected expected = load_expected(args.get("expected"));
  const std::vector<RunSpec> specs = grid_specs(workload, args.get_u64("seed", 1));
  const t1000::ExperimentGrid grid = make_grid(specs);
  t1000::GridOptions options;
  options.jobs = static_cast<int>(args.get_u64("jobs", 1));
  perfbench::DriveOptions drive;
  drive.jobs = options.jobs;

  Checker checker;
  checker.expected = &expected;
  std::vector<double> untraced, traced;
  perfbench::DriveResult all;
  const double start = now_s();
  // Alternate untraced engine and traced replica passes of the same work.
  while (traced.empty() || now_s() - start < seconds) {
    const double t0 = now_s();
    const t1000::GridResult result = grid.run(options);
    untraced.push_back(now_s() - t0);
    const std::vector<std::string> reference = grid_digests(result, &checker);
    perfbench::DriveResult d = perfbench::drive_layers({specs}, drive);
    traced.push_back(d.wall_s);
    check_same_work(d, {reference}, &checker);
    all.wall_s += d.wall_s;
    all.counts.add(d.counts);
    all.spans.insert(all.spans.end(), d.spans.begin(), d.spans.end());
  }
  const double passes = static_cast<double>(traced.size());
  all.wall_s /= passes;
  Json m = layer_metrics(all, passes, drive.jobs, setup, nullptr);
  m["trace.overhead_s"] = Json(median(traced) - median(untraced));
  m["trace.overhead_frac"] = Json(median(traced) / median(untraced) - 1.0);
  write_file(args.get("spans-out"), perfbench::spans_jsonl(all.spans));
  Json out = checker.to_json();
  out["metrics"] = std::move(m);
  out["passes"] = Json(traced.size());
  out["untraced_wall_s"] = Json(median(untraced));
  out["traced_wall_s"] = Json(median(traced));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

std::vector<perfbench::GridJob> job_specs(const std::vector<perfbench::ServeJob>& jobs) {
  std::vector<perfbench::GridJob> out;
  for (const perfbench::ServeJob& job : jobs) out.push_back(job.runs);
  return out;
}

// serve_mixed's daemon-side layers: each segment's jobs in submission order
// on one worker with a fresh byte-budgeted disk cache, as the daemon's
// single runner executes them. The untraced reference is SimService itself.
int mode_trace_serve(const Args& args, const Setup& setup) {
  const double seconds = std::stod(args.get("seconds", "10"));
  const Expected expected = load_expected(args.get("expected"));
  const perfbench::ServePlan plan =
      perfbench::serve_plan(args.get_u64("seed", 1), seconds);
  const fs::path work = args.get("work-dir");
  Checker checker;
  checker.expected = &expected;
  double untraced = 0.0;
  perfbench::DriveResult all;
  t1000::ResultCache::Counters cache_total;
  int segment_index = 0;
  for (const std::vector<perfbench::ServeJob>& segment : plan.segments) {
    const fs::path dir = work / ("segment-" + std::to_string(segment_index++));
    fs::remove_all(dir);
    std::vector<std::vector<std::string>> reference;
    {
      t1000::serve::ServiceOptions service_options;
      service_options.jobs = 1;
      service_options.cache_dir = (dir / "service").string();
      service_options.cache_budget_bytes = perfbench::kServeCacheBudgetBytes;
      t1000::serve::SimService service(service_options);
      for (const perfbench::ServeJob& job : plan.hot_set) {
        (void)service.run_local(perfbench::job_request(job));
      }
      const double t0 = now_s();
      for (const perfbench::ServeJob& job : segment) {
        const Json doc = service.run_local(perfbench::job_request(job));
        std::vector<std::string> digests;
        for (const Json& run : doc.at("results").items()) {
          const RunSpec spec = t1000::run_spec_from_json(run.at("spec"));
          const t1000::RunOutcome outcome =
              t1000::run_outcome_from_json(run.at("outcome"));
          ++checker.attempted;
          if (run.at("status").as_string() != "ok") {
            ++checker.failed;
            checker.fail(spec.workload + "/" + spec.label + ": not ok");
          } else {
            checker.check_outcome(spec, outcome);
          }
          digests.push_back(perfbench::outcome_digest(outcome));
        }
        reference.push_back(std::move(digests));
      }
      untraced += now_s() - t0;
    }
    t1000::ResultCache cache((dir / "traced").string(),
                             perfbench::kServeCacheBudgetBytes);
    perfbench::DriveOptions drive;
    drive.jobs = 1;
    drive.cache = &cache;
    drive.traced = false;
    (void)perfbench::drive_layers(job_specs(plan.hot_set), drive);
    const t1000::ResultCache::Counters before = cache.counters();
    drive.traced = true;
    perfbench::DriveResult d = perfbench::drive_layers(job_specs(segment), drive);
    const t1000::ResultCache::Counters delta = cache.counters().since(before);
    cache_total.memory_hits += delta.memory_hits;
    cache_total.disk_hits += delta.disk_hits;
    cache_total.misses += delta.misses;
    cache_total.evicted += delta.evicted;
    cache_total.size_evicted += delta.size_evicted;
    check_same_work(d, reference, &checker);
    all.wall_s += d.wall_s;
    all.counts.add(d.counts);
    all.spans.insert(all.spans.end(), d.spans.begin(), d.spans.end());
    fs::remove_all(dir);
  }
  Json m = layer_metrics(all, 1.0, 1, setup, &cache_total);
  m["trace.overhead_s"] = Json(all.wall_s - untraced);
  m["trace.overhead_frac"] = Json(all.wall_s / untraced - 1.0);
  write_file(args.get("spans-out"), perfbench::spans_jsonl(all.spans));
  Json out = checker.to_json();
  out["metrics"] = std::move(m);
  out["untraced_wall_s"] = Json(untraced);
  out["traced_wall_s"] = Json(all.wall_s);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int mode_trace(const Args& args) {
  const Setup setup = measure_setup();
  return args.get("workload") == "serve_mixed" ? mode_trace_serve(args, setup)
                                               : mode_trace_grid(args, setup);
}

int mode_plan(const Args& args) {
  const perfbench::ServePlan plan = perfbench::serve_plan(
      args.get_u64("seed", 1), std::stod(args.get("seconds", "10")));
  const auto job_json = [](const perfbench::ServeJob& job) {
    Json j = Json::object();
    j["at_s"] = Json(job.at_s);
    j["hot"] = Json(job.hot);
    j["request"] = perfbench::job_request(job);
    return j;
  };
  Json hot = Json::array();
  for (const perfbench::ServeJob& job : plan.hot_set) hot.push_back(job_json(job));
  Json segments = Json::array();
  for (const auto& segment : plan.segments) {
    Json jobs = Json::array();
    for (const perfbench::ServeJob& job : segment) jobs.push_back(job_json(job));
    segments.push_back(std::move(jobs));
  }
  Json out = Json::object();
  out["rate_per_s"] = Json(plan.rate_per_s);
  out["cache_budget_bytes"] = Json(perfbench::kServeCacheBudgetBytes);
  out["hot_set"] = std::move(hot);
  out["segments"] = std::move(segments);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// Input: JSON lines {"request": <grid request>, "results": "<fetched body>"}.
int mode_check_serve(const Args& args) {
  const Expected expected = load_expected(args.get("expected"));
  Checker checker;
  checker.expected = &expected;
  t1000::serve::ServiceOptions options;
  options.jobs = 1;
  t1000::serve::SimService service(options);
  std::map<std::string, std::string> local;  // request text -> results dump
  std::istringstream lines(read_file(args.get("in")));
  std::string line;
  std::uint64_t jobs = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++jobs;
    const Json entry = Json::parse(line);
    const std::string request = entry.at("request").dump();
    auto it = local.find(request);
    if (it == local.end()) {
      it = local.emplace(request, service.run_local(entry.at("request"))
                                      .at("results")
                                      .dump())
               .first;
    }
    const Json fetched = Json::parse(entry.at("results").as_string());
    const Json& runs = fetched.at("results");
    if (runs.dump() != it->second) {
      checker.fail("job results differ from SimService::run_local: " + request);
    }
    for (const Json& run : runs.items()) {
      ++checker.attempted;
      const RunSpec spec = t1000::run_spec_from_json(run.at("spec"));
      if (run.at("status").as_string() != "ok") {
        ++checker.failed;
        checker.fail(spec.workload + "/" + spec.label + ": not ok");
        continue;
      }
      checker.check_outcome(spec, t1000::run_outcome_from_json(run.at("outcome")));
    }
  }
  Json out = checker.to_json();
  out["jobs"] = Json(jobs);
  out["distinct_requests"] = Json(local.size());
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int mode_record_expected(const Args& args) {
  const std::vector<RunSpec> specs = perfbench::spec_universe();
  const t1000::ExperimentGrid grid = make_grid(specs);
  t1000::GridOptions options;
  options.jobs = static_cast<int>(args.get_u64("jobs", 1));
  const t1000::GridResult result = grid.run(options);
  Json digests = Json::object();
  Json checksums = Json::object();
  for (const t1000::RunResult& r : result.runs()) {
    if (!r.ok()) {
      std::fprintf(stderr, "record-expected: %s/%s failed: %s\n",
                   r.spec.workload.c_str(), r.spec.label.c_str(), r.error.c_str());
      return 1;
    }
    digests[perfbench::digest_key(r.spec)] =
        Json(perfbench::outcome_digest(r.outcome));
    if (r.spec.selector == t1000::Selector::kNone) {
      checksums[r.spec.workload] = Json(r.outcome.checksum);
    }
  }
  Json doc = Json::object();
  doc["checksums"] = std::move(checksums);
  doc["digests"] = std::move(digests);
  write_file(args.get("out"), doc.dump(1) + "\n");
  std::printf("{\"recorded\": %zu}\n", specs.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.mode == "setup") return mode_setup();
    if (args.mode == "run") return mode_run(args);
    if (args.mode == "trace") return mode_trace(args);
    if (args.mode == "plan") return mode_plan(args);
    if (args.mode == "check-serve") return mode_check_serve(args);
    if (args.mode == "record-expected") return mode_record_expected(args);
    std::fprintf(stderr, "t1000-perfbench: unknown mode %s\n", args.mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "t1000-perfbench: %s\n", e.what());
    return 1;
  }
}
