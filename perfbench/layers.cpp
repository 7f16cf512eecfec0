#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "analysis/verifier.hpp"
#include "harness/grid.hpp"
#include "harness/identity.hpp"
#include "harness/serialize.hpp"
#include "sim/ucode.hpp"
#include "specs.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

using t1000::RunOutcome;
using t1000::RunSpec;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Span ids embed the log number, so logs of every drive in the process
// get distinct numbers and merged span lists keep unique ids.
int next_log_id() {
  static std::atomic<int> next{0};
  return next.fetch_add(1);
}

}  // namespace

std::int64_t SpanLog::open(std::string_view name) {
  const std::int64_t id =
      (static_cast<std::int64_t>(thread_) << 32) |
      static_cast<std::int64_t>(spans_.size());
  Span span;
  span.id = id;
  span.name = name;
  span.parent = stack_.empty() ? root_parent_ : stack_.back();
  span.trace_id = trace_id_;
  span.start_ns = now_ns();
  spans_.push_back(span);
  stack_.push_back(id);
  return id;
}

void SpanLog::close(std::int64_t id) {
  spans_[static_cast<std::size_t>(id & 0xffffffff)].end_ns = now_ns();
  stack_.pop_back();
}

void LayerCounts::add(const LayerCounts& o) {
  runs += o.runs;
  sites += o.sites;
  apps += o.apps;
  record_steps += o.record_steps;
  traces_recorded += o.traces_recorded;
  replay_insts += o.replay_insts;
  batch_calls += o.batch_calls;
  batch_lanes += o.batch_lanes;
  verify_reports += o.verify_reports;
  result_bytes += o.result_bytes;
}

namespace {

// Once-built value shared by the workers, as WorkloadExperiment memoizes.
template <typename T>
struct OnceSlot {
  std::once_flag once;
  std::shared_ptr<const T> value;
  std::exception_ptr error;

  template <typename Build>
  const T& get(Build build) {
    std::call_once(once, [&] {
      try {
        value = build();
      } catch (...) {
        error = std::current_exception();
      }
    });
    if (error) std::rethrow_exception(error);
    return *value;
  }
};

// What WorkloadExperiment::PreparedRun holds.
struct Prepared {
  t1000::Selection selection;
  bool rewritten = false;
  t1000::RewriteResult rewrite;
  std::shared_ptr<const t1000::UopProgram> ucode;
  t1000::CommittedTrace trace;
  RunOutcome partial;
};

// One thread's view: its span log (null when untraced) and counters.
struct Worker {
  SpanLog* log = nullptr;
  LayerCounts counts;
};

std::string extract_key(const t1000::ExtractPolicy& policy) {
  return t1000::to_json(policy).dump();
}

// The grid's WorkloadSlot plus the WorkloadExperiment it builds, with each
// layer call wrapped in a span.
class WorkloadState {
 public:
  explicit WorkloadState(const t1000::Workload& workload)
      : workload_(workload) {}

  std::uint64_t program_hash(Worker& w) {
    return hash_.get([&] {
      t1000::Program program;
      {
        const SpanScope span(w.log, "asmkit.assemble");
        program = t1000::workload_program(workload_);
      }
      return std::make_shared<const std::uint64_t>(t1000::program_hash(program));
    });
  }

  const Prepared& prepared(const RunSpec& spec, Worker& w) {
    const Base& base = this->base(w);
    if (spec.selector == t1000::Selector::kNone) return *base.prepared;
    return slot(&prepared_, t1000::RunIdentity::preparation_key(spec))
        .get([&] { return build(spec, base, w); });
  }

  const t1000::VerifyReport& verify(const RunSpec& spec, Worker& w) {
    const Prepared& prep = prepared(spec, w);
    return slot(&verified_, t1000::RunIdentity::preparation_key(spec))
        .get([&] {
          const SpanScope span(w.log, "analysis.verify");
          ++w.counts.verify_reports;
          const t1000::VerifyOptions options =
              t1000::verify_options_for(spec.policy);
          return std::make_shared<const t1000::VerifyReport>(
              prep.rewritten
                  ? t1000::verify_selection(analysis_for(spec.policy.extract, w),
                                            prep.selection, prep.rewrite, options)
                  : t1000::verify_module(base(w).program, nullptr, options));
        });
  }

  const t1000::Program& program_of(const Prepared& prep, Worker& w) {
    return prep.rewritten ? prep.rewrite.program : base(w).program;
  }

 private:
  struct Base {
    t1000::Program program;
    t1000::AnalyzedProgram analysis;
    std::string extract_key;
    std::shared_ptr<const Prepared> prepared;
  };

  template <typename T>
  OnceSlot<T>& slot(std::map<std::string, std::shared_ptr<OnceSlot<T>>>* map,
                    const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<OnceSlot<T>>& entry = (*map)[key];
    if (!entry) entry = std::make_shared<OnceSlot<T>>();
    return *entry;
  }

  void count_analysis(const t1000::AnalyzedProgram& ap, Worker& w) {
    w.counts.sites += ap.sites.size();
  }

  // WorkloadExperiment's constructor: assemble, analyze, record the
  // baseline trace.
  const Base& base(Worker& w) {
    return base_.get([&] {
      auto base = std::make_shared<Base>();
      {
        const SpanScope span(w.log, "asmkit.assemble");
        base->program = t1000::workload_program(workload_);
      }
      {
        const SpanScope span(w.log, "extinst.analyze");
        base->analysis =
            t1000::analyze_program(base->program, workload_.max_steps);
      }
      count_analysis(base->analysis, w);
      base->extract_key = extract_key(base->analysis.extract);
      auto prep = std::make_shared<Prepared>();
      prep->ucode = base->analysis.ucode;
      record(prep.get(), w);
      prep->partial.checksum = prep->trace.checksum();
      base->prepared = std::move(prep);
      return std::shared_ptr<const Base>(std::move(base));
    });
  }

  const t1000::AnalyzedProgram& analysis_for(
      const t1000::ExtractPolicy& policy, Worker& w) {
    const Base& b = base(w);
    const std::string key = extract_key(policy);
    if (key == b.extract_key) return b.analysis;
    return slot(&analyses_, key).get([&] {
      const SpanScope span(w.log, "extinst.analyze");
      auto ap = std::make_shared<const t1000::AnalyzedProgram>(
          t1000::analyze_program(b.program, workload_.max_steps, policy));
      count_analysis(*ap, w);
      return ap;
    });
  }

  void record(Prepared* prep, Worker& w) {
    {
      const SpanScope span(w.log, "sim.record");
      prep->trace = t1000::record_trace(*prep->ucode, workload_.max_steps);
    }
    ++w.counts.traces_recorded;
    w.counts.record_steps += prep->trace.size();
    prep->partial.trace_steps = prep->trace.size();
    prep->partial.trace_hash = prep->trace.content_hash();
  }

  std::shared_ptr<const Prepared> build(const RunSpec& spec, const Base& b,
                                        Worker& w) {
    const t1000::AnalyzedProgram& ap = analysis_for(spec.policy.extract, w);
    auto prep = std::make_shared<Prepared>();
    {
      const SpanScope span(w.log, "extinst.select");
      prep->selection = spec.selector == t1000::Selector::kGreedy
                            ? t1000::select_greedy(ap, spec.policy.lut_budget)
                            : t1000::select_selective(ap, spec.policy);
    }
    {
      const SpanScope span(w.log, "extinst.rewrite");
      prep->rewrite = t1000::rewrite_program(b.program, prep->selection.apps);
    }
    prep->rewritten = true;
    w.counts.apps += prep->selection.apps.size();
    {
      const SpanScope span(w.log, "sim.decode");
      prep->ucode = std::make_shared<const t1000::UopProgram>(
          t1000::UopProgram::build(prep->rewrite.program,
                                   &prep->selection.table));
    }
    record(prep.get(), w);
    const std::uint32_t base_checksum = b.prepared->trace.checksum();
    if (prep->trace.checksum() != base_checksum) {
      throw t1000::SimError("rewrite changed " + workload_.name + " checksum");
    }
    prep->partial.checksum = base_checksum;
    prep->partial.num_configs = prep->selection.num_configs();
    prep->partial.num_apps = static_cast<int>(prep->selection.apps.size());
    prep->partial.lengths = prep->selection.lengths;
    prep->partial.lut_costs = prep->selection.lut_costs;
    return prep;
  }

  const t1000::Workload& workload_;
  OnceSlot<std::uint64_t> hash_;
  OnceSlot<Base> base_;
  std::mutex mu_;
  std::map<std::string, std::shared_ptr<OnceSlot<t1000::AnalyzedProgram>>>
      analyses_;
  std::map<std::string, std::shared_ptr<OnceSlot<Prepared>>> prepared_;
  std::map<std::string, std::shared_ptr<OnceSlot<t1000::VerifyReport>>>
      verified_;
};

// Replays `specs` (all sharing one batch identity) against their shared
// preparation: one simulate() for a singleton group, one
// simulate_replay_batch() otherwise — the grid's rule.
std::vector<RunOutcome> replay(WorkloadState& state,
                               const std::vector<RunSpec>& specs,
                               bool singleton, Worker& w) {
  const Prepared& prep = state.prepared(specs.front(), w);
  // verify is part of the batch identity: one check covers every lane.
  if (specs.front().verify) {
    const t1000::VerifyReport& report = state.verify(specs.front(), w);
    if (!report.ok()) {
      throw t1000::VerifyError(specs.front().workload +
                               " failed verification: " + report.summary());
    }
  }
  const t1000::Program& program = state.program_of(prep, w);
  const t1000::ExtInstTable* table =
      prep.rewritten ? &prep.selection.table : nullptr;
  std::vector<RunOutcome> out(specs.size(), prep.partial);
  if (singleton) {
    const SpanScope span(w.log, "uarch.replay");
    out[0].stats = t1000::simulate({.program = &program,
                                    .ext_table = table,
                                    .trace = &prep.trace,
                                    .machine = specs[0].machine,
                                    .max_cycles = specs[0].max_cycles});
  } else {
    t1000::BatchSimRequest request;
    request.program = &program;
    request.ext_table = table;
    request.trace = &prep.trace;
    for (const RunSpec& spec : specs) {
      request.lanes.push_back({spec.machine, spec.max_cycles, nullptr});
    }
    std::vector<t1000::BatchLaneResult> lanes;
    {
      const SpanScope span(w.log, "uarch.batch");
      lanes = t1000::simulate_replay_batch(request);
    }
    ++w.counts.batch_calls;
    w.counts.batch_lanes += lanes.size();
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      if (lanes[i].error) std::rethrow_exception(lanes[i].error);
      out[i].stats = lanes[i].stats;
    }
  }
  for (const RunOutcome& o : out) w.counts.replay_insts += o.stats.committed;
  return out;
}

}  // namespace

DriveResult drive_layers(const std::vector<GridJob>& jobs,
                         const DriveOptions& options) {
  const std::vector<t1000::Workload> workloads = bundled_workloads();
  DriveResult result;
  std::vector<std::unique_ptr<SpanLog>> logs;
  std::vector<Worker> done;
  const std::int64_t start = now_ns();

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const GridJob& specs = jobs[j];
    const std::uint64_t trace_id = j + 1;
    auto root_log = std::make_unique<SpanLog>(next_log_id(), trace_id, -1);
    Worker root;
    root.log = options.traced ? root_log.get() : nullptr;
    const std::int64_t root_id =
        options.traced ? root_log->open("harness.grid") : -1;

    // Per-job state, as ExperimentGrid::run builds it per call.
    std::map<std::string, std::unique_ptr<WorkloadState>> states;
    for (const t1000::Workload& w : workloads) {
      states.emplace(w.name, std::make_unique<WorkloadState>(w));
    }
    t1000::ResultCache local_cache;
    t1000::ResultCache& cache =
        options.cache != nullptr ? *options.cache : local_cache;
    std::vector<std::vector<std::size_t>> groups;
    {
      std::map<std::string, std::size_t> group_of;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto [it, fresh] = group_of.emplace(
            t1000::RunIdentity::batch_key(specs[i]), groups.size());
        if (fresh) groups.emplace_back();
        groups[it->second].push_back(i);
      }
    }

    std::vector<t1000::RunResult> results(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) results[i].spec = specs[i];
    std::atomic<std::size_t> next{0};
    const int threads = std::max(
        1, std::min<int>(options.jobs, static_cast<int>(groups.size())));
    std::vector<Worker> workers(static_cast<std::size_t>(threads));
    std::vector<std::unique_ptr<SpanLog>> worker_logs;
    for (int t = 0; t < threads; ++t) {
      worker_logs.push_back(
          std::make_unique<SpanLog>(next_log_id(), trace_id, root_id));
      if (options.traced) workers[t].log = worker_logs.back().get();
    }
    const auto work = [&](Worker& w) {
      for (;;) {
        const std::size_t g = next.fetch_add(1);
        if (g >= groups.size()) return;
        const SpanScope group_span(w.log, "harness.group");
        const std::vector<std::size_t>& group = groups[g];
        WorkloadState& state = *states.at(specs[group.front()].workload);
        std::vector<std::size_t> misses;
        std::vector<t1000::CacheKey> keys;
        try {
          const std::uint64_t hash = state.program_hash(w);
          for (const std::size_t i : group) {
            const t1000::Workload& wl = *t1000::find_workload(specs[i].workload);
            t1000::CacheKey key =
                t1000::make_cache_key(specs[i], hash, wl.max_steps);
            bool hit = false;
            {
              const SpanScope span(w.log, "harness.cache_lookup");
              hit = cache.lookup(key, &results[i].outcome);
            }
            results[i].cache_hit = hit;
            ++w.counts.runs;
            if (!hit) {
              misses.push_back(i);
              keys.push_back(std::move(key));
            }
          }
          if (misses.empty()) continue;
          std::vector<RunSpec> lane_specs;
          for (const std::size_t i : misses) lane_specs.push_back(specs[i]);
          const std::vector<RunOutcome> outcomes =
              replay(state, lane_specs, group.size() == 1, w);
          for (std::size_t k = 0; k < misses.size(); ++k) {
            results[misses[k]].outcome = outcomes[k];
            const SpanScope span(w.log, "harness.cache_store");
            cache.store(keys[k], outcomes[k]);
          }
        } catch (const std::exception& e) {
          for (const std::size_t i : group) {
            results[i].status = t1000::RunStatus::kError;
            results[i].error = e.what();
          }
        }
      }
    };
    {
      std::vector<std::thread> pool;
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back(work, std::ref(workers[static_cast<std::size_t>(t)]));
      }
      for (std::thread& t : pool) t.join();
    }
    {
      // The results document a grid caller serializes (GridResult's
      // "results" section).
      const SpanScope span(root.log, "harness.serialize");
      t1000::Json doc = t1000::Json::array();
      for (const t1000::RunResult& r : results) doc.push_back(t1000::to_json(r));
      root.counts.result_bytes += doc.dump().size();
    }
    if (options.traced) root_log->close(root_id);

    std::vector<std::string> digests;
    for (const t1000::RunResult& r : results) {
      if (r.ok()) {
        digests.push_back(outcome_digest(r.outcome));
      } else {
        digests.emplace_back();
        result.errors.push_back(r.spec.workload + "/" + r.spec.label + ": " +
                                r.error);
      }
    }
    result.digests.push_back(std::move(digests));
    logs.push_back(std::move(root_log));
    for (auto& log : worker_logs) logs.push_back(std::move(log));
    done.push_back(std::move(root));
    for (Worker& w : workers) done.push_back(std::move(w));
  }
  result.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  for (const Worker& w : done) result.counts.add(w.counts);
  for (const auto& log : logs) {
    result.spans.insert(result.spans.end(), log->spans().begin(),
                        log->spans().end());
  }
  return result;
}

std::map<std::string, double> self_seconds(const std::vector<Span>& spans) {
  std::map<std::int64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    const auto parent = index_of.find(span.parent);
    if (parent == index_of.end()) continue;
    children[parent->second].emplace_back(span.start_ns, span.end_ns);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    // Children may run on other threads and overlap each other: subtract
    // the union of their intervals, clipped to the parent.
    std::vector<std::pair<std::int64_t, std::int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [begin, end] : kids) {
      const std::int64_t lo = std::max(begin, reach);
      const std::int64_t hi = std::min(end, span.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    out[std::string(span.name)] +=
        static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-9;
  }
  return out;
}

std::string spans_jsonl(const std::vector<Span>& spans) {
  std::string out;
  for (const Span& span : spans) {
    t1000::Json line = t1000::Json::object();
    line["trace"] = t1000::Json(span.trace_id);
    line["span"] = t1000::Json(span.id);
    line["parent"] = t1000::Json(span.parent);
    line["name"] = t1000::Json(span.name);
    line["start_ns"] = t1000::Json(span.start_ns);
    line["end_ns"] = t1000::Json(span.end_ns);
    out += line.dump();
    out += '\n';
  }
  return out;
}

}  // namespace perfbench
