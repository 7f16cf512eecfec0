#include "serve/service.hpp"

#include <chrono>
#include <cstdlib>
#include <utility>

#include "harness/serialize.hpp"
#include "obs/prometheus.hpp"
#include "obs/scope.hpp"
#include "obs/trace_event.hpp"
#include "workloads/workload.hpp"

namespace t1000::serve {
namespace {

HttpResponse json_response(int status, const Json& body) {
  HttpResponse r;
  r.status = status;
  r.body = body.dump(2);
  r.body += '\n';
  return r;
}

HttpResponse error_json(int status, std::string_view message) {
  Json body = Json::object();
  body["error"] = Json(message);
  return json_response(status, body);
}

// Parses the decimal job id segment; returns false on anything else
// (callers answer 404 — a malformed id names no job).
bool parse_job_id(std::string_view segment, std::uint64_t* out) {
  if (segment.empty() || segment.size() > 18) return false;
  std::uint64_t value = 0;
  for (const char c : segment) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

// One event of the job timeline (pid 1, tid = job id).
obs::TraceEvent job_event(std::string name, char ph, std::uint64_t ts, int tid,
                          std::uint64_t flow_id = 0, Json args = Json()) {
  return {std::move(name), ph, ts, 1, tid, flow_id, std::move(args)};
}

// A trace-viewer metadata event naming a track (thread) or group (process).
obs::TraceEvent track_name(const char* kind, int tid, std::string name) {
  Json args = Json::object();
  args["name"] = Json(std::move(name));
  return job_event(kind, 'M', 0, tid, 0, std::move(args));
}

std::uint64_t journal_us(double ts_ms) {
  return static_cast<std::uint64_t>(ts_ms * 1000.0 + 0.5);
}

}  // namespace

Json job_timeline_json(const std::vector<obs::JournalEvent>& events) {
  struct JobTimeline {
    std::uint64_t job = 0;
    std::uint64_t trace_id = 0;
    double submitted_ms = 0.0;
    const obs::JournalEvent* begin = nullptr;  // the "job" span
    const obs::JournalEvent* end = nullptr;
  };
  std::vector<JobTimeline> jobs;  // in submission order
  std::map<std::uint64_t, std::size_t> by_trace;
  for (const obs::JournalEvent& ev : events) {
    if (ev.kind == 'i' && ev.name == "job.submitted" && ev.attrs.is_object()) {
      const Json* job = ev.attrs.find("job");
      if (job == nullptr) continue;
      by_trace[ev.trace_id] = jobs.size();
      jobs.push_back({job->as_uint(), ev.trace_id, ev.ts_ms});
    } else if (ev.name == "job" && ev.parent_id == 0) {
      // A job whose submission has left the ring has no timeline.
      const auto it = by_trace.find(ev.trace_id);
      if (it == by_trace.end()) continue;
      (ev.kind == 'B' ? jobs[it->second].begin : jobs[it->second].end) = &ev;
    }
  }

  std::vector<obs::TraceEvent> metadata = {
      track_name("process_name", 0, "t1000-serve")};
  // Per job: "queued" from submission to the job span's begin, then "run"
  // to its end, and a flow arrow (id = the trace) from submission to run.
  std::vector<obs::TraceEvent> slices;
  for (const JobTimeline& t : jobs) {
    const int tid = static_cast<int>(t.job);
    metadata.push_back(
        track_name("thread_name", tid, "job " + std::to_string(t.job)));
    const std::uint64_t submitted = journal_us(t.submitted_ms);
    slices.push_back(job_event("queued", 'B', submitted, tid));
    slices.push_back(job_event("job", 's', submitted, tid, t.trace_id));
    if (t.begin == nullptr) continue;
    const std::uint64_t start = journal_us(t.begin->ts_ms);
    slices.push_back(job_event("queued", 'E', start, tid));
    slices.push_back(job_event("run", 'B', start, tid));
    slices.push_back(job_event("job", 'f', start, tid, t.trace_id));
    if (t.end == nullptr) continue;
    slices.push_back(job_event("run", 'E', journal_us(t.end->ts_ms), tid, 0,
                               t.end->attrs));
  }
  return obs::trace_events_json(metadata, slices);
}

std::string_view job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
  }
  return "unknown";
}

SimService::SimService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_dir, options_.cache_budget_bytes),
      journal_(obs::Journal::Options{options_.journal_path,
                                     options_.journal_max_bytes,
                                     /*ring_capacity=*/8192}) {
  runner_ = std::thread([this] { runner_main(); });
}

SimService::~SimService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (runner_.joinable()) runner_.join();
}

bool SimService::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_requested_;
}

SimService::ParsedRequest SimService::parse_request(
    const Json& request) const {
  for (const auto& member : request.members()) {
    if (member.first != "runs" && member.first != "options") {
      throw JsonError("unknown member \"" + member.first +
                      "\" in grid request");
    }
  }

  ParsedRequest parsed;
  parsed.options.jobs = options_.jobs;
  parsed.options.run_budget_ms = options_.default_run_budget_ms;
  parsed.options.fail_limit = options_.fail_limit;

  if (const Json* opts = request.find("options")) {
    for (const auto& member : opts->members()) {
      const std::string& name = member.first;
      const Json& value = member.second;
      if (name == "verify") {
        parsed.options.verify = value.as_bool();
      } else if (name == "observe") {
        parsed.options.observe = value.as_bool();
      } else if (name == "run_budget_ms") {
        const double ms = value.as_double();
        if (ms < 0) throw JsonError("run_budget_ms must be >= 0");
        parsed.options.run_budget_ms = ms;
      } else if (name == "fail_limit") {
        parsed.options.fail_limit = value.as_uint();
      } else {
        throw JsonError("unknown member \"" + name +
                        "\" in grid request options");
      }
    }
  }
  // The operator's cap wins over whatever the request asked for; a request
  // of 0 ("unlimited") under a configured cap becomes the cap.
  if (options_.max_run_budget_ms > 0 &&
      (parsed.options.run_budget_ms <= 0 ||
       parsed.options.run_budget_ms > options_.max_run_budget_ms)) {
    parsed.options.run_budget_ms = options_.max_run_budget_ms;
  }

  const Json& runs = request.at("runs");
  if (!runs.is_array() || runs.size() == 0) {
    throw JsonError("\"runs\" must be a non-empty array");
  }
  parsed.specs.reserve(runs.size());
  for (const Json& spec_json : runs.items()) {
    RunSpec spec = run_spec_from_json(spec_json);
    if (find_workload(spec.workload) == nullptr) {
      throw JsonError("unknown workload \"" + spec.workload + "\"");
    }
    parsed.specs.push_back(std::move(spec));
  }
  return parsed;
}

GridResult SimService::execute(const ParsedRequest& parsed,
                               obs::TraceContext trace) {
  ExperimentGrid grid;
  // Everything find_workload() can name — the paper suite, the extended
  // one, and the compiled-kernel set — so parse-time validation and grid
  // registration agree exactly.
  grid.add_workloads(all_workloads());
  grid.add_workloads(extended_workloads());
  grid.add_workloads(compiled_workloads());
  for (const RunSpec& spec : parsed.specs) grid.add(spec);

  GridOptions options = parsed.options;
  // The service's shared long-lived tiers, not per-grid ones.
  options.cache = &cache_;
  options.metrics = &metrics_;
  options.journal = &journal_;
  options.trace = trace;
  options.cache_dir.clear();
  return grid.run(options);
}

Json SimService::run_local(const Json& request) {
  const ParsedRequest parsed = parse_request(request);
  // A --local run is its own trace, rooted like a job's but without the
  // queue bookkeeping.
  return execute(parsed, obs::TraceContext{journal_.new_id(), 0}).to_json();
}

ResultCache::JanitorReport SimService::sweep_now(double min_age_seconds) {
  return cache_.janitor_sweep(min_age_seconds);
}

void SimService::runner_main() {
  for (;;) {
    std::uint64_t id = 0;
    std::uint64_t trace_id = 0;
    ParsedRequest parsed;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;  // queued-but-unstarted jobs die with us
      id = queue_.front();
      queue_.pop_front();
      auto it = parsed_.find(id);
      parsed = std::move(it->second);
      parsed_.erase(it);
      jobs_[id].state = JobState::kRunning;
      trace_id = jobs_[id].trace_id;
    }
    if (test_run_hook) test_run_hook();

    Job finished;
    finished.state = JobState::kFailed;
    const ResultCache::Counters cache_before = cache_.counters();
    {
      Json attrs = Json::object();
      attrs["job"] = Json(id);
      attrs["runs"] = Json(parsed.specs.size());
      obs::Scope job(metrics_.ns_histogram("serve.job_ns"), &journal_,
                     obs::TraceContext{trace_id, 0}, "job", std::move(attrs));
      try {
        const GridResult result = execute(parsed, job.context());
        finished.state = JobState::kDone;
        finished.wall_ms = result.engine().wall_ms;
        finished.summary = result.engine_summary();
        finished.results = result.to_json();
      } catch (const std::exception& e) {
        finished.error = e.what();
      } catch (...) {
        finished.error = "non-standard exception";
      }
      Json end_attrs = Json::object();
      end_attrs["state"] = Json(job_state_name(finished.state));
      job.set_end_attrs(std::move(end_attrs));
    }
    finished.cache_delta = cache_.counters().since(cache_before);

    metrics_
        .counter(finished.state == JobState::kDone ? "serve.jobs_completed"
                                                   : "serve.jobs_failed")
        ->add();
    {
      std::lock_guard<std::mutex> lock(mu_);
      Job& job = jobs_[id];
      job.state = finished.state;
      job.wall_ms = finished.wall_ms;
      job.summary = std::move(finished.summary);
      job.error = std::move(finished.error);
      job.results = std::move(finished.results);
      job.cache_delta = finished.cache_delta;
    }
  }
}

Json SimService::job_status_json(const Job& job) const {
  Json j = Json::object();
  j["job"] = Json(job.id);
  j["state"] = Json(job_state_name(job.state));
  j["runs"] = Json(job.runs);
  j["trace"] = Json(to_hex(job.trace_id));
  if (job.state == JobState::kDone) {
    j["wall_ms"] = Json(job.wall_ms);
    j["summary"] = Json(job.summary);
  }
  if (job.state == JobState::kFailed) j["error"] = Json(job.error);
  return j;
}

HttpResponse SimService::handle_submit(const HttpRequest& request) {
  Json body;
  ParsedRequest parsed;
  try {
    body = Json::parse(request.body);
    parsed = parse_request(body);
  } catch (const JsonError& e) {
    metrics_.counter("serve.jobs_rejected")->add();
    return error_json(400, e.what());
  }

  std::uint64_t id = 0;
  const std::uint64_t trace_id = journal_.new_id();
  const std::size_t runs = parsed.specs.size();
  // The ack snapshot is taken inside the same critical section that
  // enqueues the job: once mu_ is released the runner may pick the job up
  // at any moment, and the 202 body must still say "queued".
  Json ack;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() >= options_.queue_limit) {
      metrics_.counter("serve.jobs_rejected")->add();
      Json reject = Json::object();
      reject["error"] = Json("job queue full");
      reject["queued"] = Json(queue_.size());
      reject["queue_limit"] = Json(options_.queue_limit);
      return json_response(429, reject);
    }
    id = next_job_id_++;
    Job& job = jobs_[id];
    job.id = id;
    job.runs = parsed.specs.size();
    job.trace_id = trace_id;
    parsed_[id] = std::move(parsed);
    queue_.push_back(id);
    ack = job_status_json(job);
    // Journaled before mu_ is released, so the submission always precedes
    // the runner's "job" span in the journal (and in /v1/trace).
    Json attrs = Json::object();
    attrs["job"] = Json(id);
    attrs["runs"] = Json(runs);
    journal_.instant(obs::TraceContext{trace_id, 0}, "job.submitted",
                     std::move(attrs));
  }
  metrics_.counter("serve.jobs_submitted")->add();
  cv_.notify_one();
  return json_response(202, ack);
}

HttpResponse SimService::handle_job_list() const {
  Json jobs = Json::array();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& entry : jobs_) {
      jobs.push_back(job_status_json(entry.second));
    }
  }
  Json body = Json::object();
  body["jobs"] = std::move(jobs);
  return json_response(200, body);
}

HttpResponse SimService::handle_job_status(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return error_json(404, "unknown job");
  return json_response(200, job_status_json(it->second));
}

HttpResponse SimService::handle_job_results(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return error_json(404, "unknown job");
  const Job& job = it->second;
  switch (job.state) {
    case JobState::kQueued:
    case JobState::kRunning:
      // Not an error: the job exists, the results just aren't ready.
      return json_response(202, job_status_json(job));
    case JobState::kFailed:
      return json_response(500, job_status_json(job));
    case JobState::kDone:
      return json_response(200, job.results);
  }
  return error_json(500, "unreachable job state");
}

HttpResponse SimService::handle_job_summary(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return error_json(404, "unknown job");
  const Job& job = it->second;
  if (job.state == JobState::kQueued || job.state == JobState::kRunning) {
    // The deltas only exist once the grid has run; same contract as
    // /results — 202 with the status document while pending.
    return json_response(202, job_status_json(job));
  }
  Json body = job_status_json(job);
  // This job's movement of the shared cache (Counters::since over
  // snapshots around its grid): how much it hit, missed, stored, and
  // evicted — attribution the global /metrics counters cannot give.
  Json cache = Json::object();
  const ResultCache::Counters& d = job.cache_delta;
  cache["memory_hits"] = Json(d.memory_hits);
  cache["disk_hits"] = Json(d.disk_hits);
  cache["misses"] = Json(d.misses);
  cache["stores"] = Json(d.stores);
  cache["disk_errors"] = Json(d.disk_errors);
  cache["quarantined"] = Json(d.quarantined);
  cache["quarantine_removed"] = Json(d.quarantine_removed);
  cache["evicted"] = Json(d.evicted);
  cache["size_evicted"] = Json(d.size_evicted);
  body["cache"] = std::move(cache);
  return json_response(200, body);
}

HttpResponse SimService::handle_job_events(std::uint64_t id) {
  std::uint64_t trace_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return error_json(404, "unknown job");
    trace_id = it->second.trace_id;
  }
  const auto job_finished = [this, id] {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    return it == jobs_.end() || it->second.state == JobState::kDone ||
           it->second.state == JobState::kFailed;
  };
  HttpResponse r;
  r.content_type = "application/x-ndjson";
  // Chunked NDJSON: one journal event per line, as they happen. Idle
  // periods emit {"heartbeat":true} lines (~2/s) so a vanished client is
  // detected by the failing write instead of pinning the handler thread.
  // The stream ends once the job has finished and the ring is drained.
  r.streamer = [this, trace_id, job_finished](const ChunkWriter& write) {
    std::uint64_t after = 0;
    for (;;) {
      // Order matters: check finished *before* polling, so events landing
      // between the poll and the check are picked up next iteration
      // rather than lost.
      const bool finished = job_finished();
      const std::vector<obs::JournalEvent> events =
          journal_.poll(after, trace_id, std::chrono::milliseconds(500));
      if (events.empty()) {
        if (finished) return;
        if (!write("{\"heartbeat\":true}\n")) return;
        continue;
      }
      for (const obs::JournalEvent& event : events) {
        after = event.seq;
        if (!write(obs::journal_event_line(event) + "\n")) return;
      }
    }
  };
  return r;
}

HttpResponse SimService::handle_summary() const {
  std::string lines;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& entry : jobs_) {
      const Job& job = entry.second;
      lines += "job ";
      lines += std::to_string(job.id);
      lines += ": ";
      if (job.state == JobState::kDone) {
        lines += job.summary;
      } else if (job.state == JobState::kFailed) {
        lines += "failed: ";
        lines += job.error;
      } else {
        lines += job_state_name(job.state);
      }
      lines += '\n';
    }
  }
  HttpResponse r;
  r.content_type = "text/plain";
  r.body = std::move(lines);
  return r;
}

HttpResponse SimService::handle_metrics(const HttpRequest& request) const {
  const ResultCache::Counters c = cache_.counters();
  // Content negotiation: a scraper that asks for text/plain gets the
  // Prometheus exposition; everyone else (no Accept, */*, JSON clients)
  // keeps the JSON document, byte-identical to what it always was.
  const std::string_view accept = request.header("accept");
  if (accept.find("text/plain") != std::string_view::npos) {
    std::vector<obs::PrometheusGauge> gauges;
    const auto cache_gauge = [&gauges](const char* kind, double value) {
      gauges.push_back({std::string("serve.cache|counter=") + kind, value});
    };
    cache_gauge("memory_hits", static_cast<double>(c.memory_hits));
    cache_gauge("disk_hits", static_cast<double>(c.disk_hits));
    cache_gauge("misses", static_cast<double>(c.misses));
    cache_gauge("stores", static_cast<double>(c.stores));
    cache_gauge("disk_errors", static_cast<double>(c.disk_errors));
    cache_gauge("quarantined", static_cast<double>(c.quarantined));
    cache_gauge("quarantine_removed",
                static_cast<double>(c.quarantine_removed));
    cache_gauge("evicted", static_cast<double>(c.evicted));
    cache_gauge("size_evicted", static_cast<double>(c.size_evicted));
    gauges.push_back({"serve.cache_disk_usage_bytes",
                      static_cast<double>(cache_.disk_usage_bytes())});
    gauges.push_back({"serve.cache_size_budget_bytes",
                      static_cast<double>(cache_.size_budget_bytes())});
    gauges.push_back({"serve.journal_events",
                      static_cast<double>(journal_.events_appended())});
    gauges.push_back({"serve.journal_disk_errors",
                      static_cast<double>(journal_.disk_errors())});
    HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = obs::render_prometheus(metrics_, gauges);
    return r;
  }
  Json body = Json::object();
  body["metrics"] = metrics_.to_json();
  Json cache = Json::object();
  cache["memory_hits"] = Json(c.memory_hits);
  cache["disk_hits"] = Json(c.disk_hits);
  cache["misses"] = Json(c.misses);
  cache["stores"] = Json(c.stores);
  cache["disk_errors"] = Json(c.disk_errors);
  cache["quarantined"] = Json(c.quarantined);
  cache["quarantine_removed"] = Json(c.quarantine_removed);
  cache["evicted"] = Json(c.evicted);
  cache["size_evicted"] = Json(c.size_evicted);
  cache["disk_usage_bytes"] = Json(cache_.disk_usage_bytes());
  cache["size_budget_bytes"] = Json(cache_.size_budget_bytes());
  body["cache"] = std::move(cache);
  return json_response(200, body);
}

HttpResponse SimService::handle_trace() {
  return json_response(
      200, job_timeline_json(journal_.poll(0, 0, std::chrono::milliseconds(0))));
}

HttpResponse SimService::handle_janitor() {
  // TTL 0: an explicit janitor request means "sweep everything now"; the
  // periodic sweeps the tool schedules use its --janitor-ttl-s.
  const ResultCache::JanitorReport report = sweep_now(0.0);
  Json body = Json::object();
  body["tmp_removed"] = Json(report.tmp_removed);
  body["corrupt_removed"] = Json(report.corrupt_removed);
  return json_response(200, body);
}

HttpResponse SimService::handle_shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_requested_ = true;
  }
  Json body = Json::object();
  body["state"] = Json("shutting down");
  return json_response(200, body);
}

HttpResponse SimService::route_request(const HttpRequest& request,
                                       const std::string& path,
                                       std::string* route_label) {
  const bool get = request.method == "GET";
  const bool post = request.method == "POST";

  if (path == "/healthz") {
    if (!get) return error_json(405, "use GET");
    Json body = Json::object();
    body["status"] = Json("ok");
    body["api"] = Json("v1");
    return json_response(200, body);
  }
  if (path == "/metrics") {
    if (!get) return error_json(405, "use GET");
    return handle_metrics(request);
  }
  if (path == "/v1/jobs") {
    if (post) return handle_submit(request);
    if (get) return handle_job_list();
    return error_json(405, "use GET or POST");
  }
  if (path.rfind("/v1/jobs/", 0) == 0) {
    if (!get) return error_json(405, "use GET");
    std::string_view rest = std::string_view(path).substr(9);
    // Sub-resource suffix, stripped from the id segment. The route label
    // keeps the template, never the raw id — per-route histogram
    // cardinality stays bounded by the API surface.
    std::string_view suffix;
    for (const std::string_view candidate : {"/results", "/summary",
                                             "/events"}) {
      if (rest.size() > candidate.size() &&
          rest.substr(rest.size() - candidate.size()) == candidate) {
        suffix = candidate;
        rest = rest.substr(0, rest.size() - candidate.size());
        break;
      }
    }
    *route_label = "/v1/jobs/<id>" + std::string(suffix);
    std::uint64_t id = 0;
    if (!parse_job_id(rest, &id)) return error_json(404, "unknown job");
    if (suffix == "/results") return handle_job_results(id);
    if (suffix == "/summary") return handle_job_summary(id);
    if (suffix == "/events") return handle_job_events(id);
    return handle_job_status(id);
  }
  if (path == "/v1/summary") {
    if (!get) return error_json(405, "use GET");
    return handle_summary();
  }
  if (path == "/v1/trace") {
    if (!get) return error_json(405, "use GET");
    return handle_trace();
  }
  if (path == "/v1/janitor") {
    if (!post) return error_json(405, "use POST");
    return handle_janitor();
  }
  if (path == "/v1/shutdown") {
    if (!post) return error_json(405, "use POST");
    return handle_shutdown();
  }
  *route_label = "other";
  return error_json(404, "no such route");
}

HttpResponse SimService::handle_http(const HttpRequest& request) {
  metrics_.counter("serve.requests")->add();
  // Timed only: a route is no span of any job's trace.
  obs::Scope timer(nullptr, nullptr, obs::TraceContext{}, "");

  // Strip any query string; the API is path-routed only.
  std::string path = request.target;
  if (const std::size_t q = path.find('?'); q != std::string::npos) {
    path.resize(q);
  }

  std::string route_label = path;
  HttpResponse response = route_request(request, path, &route_label);

  // Per-route latency histogram, labeled "<METHOD> <route template>".
  // Both label parts are bounded: the template come from route_request
  // (raw ids never leak into it) and unknown methods collapse to OTHER.
  const std::string method = request.method == "GET"    ? "GET"
                             : request.method == "POST" ? "POST"
                                                        : "OTHER";
  timer.set_histogram(metrics_.ns_histogram("serve.route_ns|route=" + method +
                                            " " + route_label));
  return response;
}

}  // namespace t1000::serve
