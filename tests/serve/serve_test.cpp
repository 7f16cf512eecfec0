// Tests for the t1000-serve layer: SimService's API surface driven
// directly through handle_http (no socket), plus the HttpServer transport
// exercised over real loopback connections.
//
// The load-bearing claims, in order: a grid submitted to the service
// yields results byte-identical to the same grid run through the
// in-process engine; admission is a bounded queue that rejects with 429
// rather than buffering without bound; per-request budgets ride the grid's
// timeout taxonomy and are clamped by the operator's cap; and the HTTP
// layer speaks enough HTTP/1.1 for curl and the CI smoke job.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "harness/grid.hpp"
#include "harness/serialize.hpp"
#include "serve/http.hpp"
#include "workloads/workload.hpp"

namespace t1000::serve {
namespace {

// Small two-workload request shared by most tests.
Json small_request() {
  Json runs = Json::array();
  runs.push_back(to_json(baseline_spec("gsm_dec")));
  runs.push_back(to_json(greedy_spec("gsm_dec", "greedy", 2, 10)));
  runs.push_back(to_json(baseline_spec("g721_dec")));
  Json request = Json::object();
  request["runs"] = std::move(runs);
  return request;
}

HttpRequest post(std::string target, std::string body) {
  HttpRequest r;
  r.method = "POST";
  r.target = std::move(target);
  r.body = std::move(body);
  return r;
}

HttpRequest get(std::string target) {
  HttpRequest r;
  r.method = "GET";
  r.target = std::move(target);
  return r;
}

// Polls a job until it leaves queued/running; fails the test on timeout.
Json wait_for_job(SimService& service, std::uint64_t id) {
  for (int i = 0; i < 600; ++i) {
    const HttpResponse r =
        service.handle_http(get("/v1/jobs/" + std::to_string(id)));
    EXPECT_EQ(r.status, 200);
    Json status = Json::parse(r.body);
    const std::string& state = status.at("state").as_string();
    if (state != "queued" && state != "running") return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ADD_FAILURE() << "job " << id << " never reached a terminal state";
  return Json();
}

// Machines a request may name that the model cannot run: each is the
// field validate() must name and a "machine" member carrying it. Unchecked,
// the first group spun a worker to the cycle bound (or died in bad_alloc),
// the second killed the daemon with SIGFPE or SIGSEGV.
struct HostileMachine {
  const char* field;
  const char* machine;
};
constexpr HostileMachine kHostileMachines[] = {
    {"ruu_size", R"({"ruu_size": 0})"},
    {"ruu_size", R"({"ruu_size": -5})"},
    {"ruu_size", R"({"ruu_size": 2000000000})"},
    {"issue_width", R"({"issue_width": 0})"},
    {"commit_width", R"({"commit_width": 0})"},
    {"int_alus", R"({"int_alus": 0})"},
    {"max_outstanding_misses", R"({"max_outstanding_misses": -1})"},
    {"memory_latency", R"({"memory_latency": -5})"},
    {"dl1.line_bytes", R"({"dl1": {"line_bytes": 0}})"},
    {"l2.assoc", R"({"l2": {"assoc": 0}})"},
    {"dtlb.page_bytes", R"({"dtlb": {"page_bytes": 0}})"},
    {"pfu.levels_per_cycle",
     R"({"pfu": {"count": 2, "multi_cycle_ext": true, "levels_per_cycle": 0}})"},
    {"itlb.entries", R"({"itlb": {"entries": 0}})"},
    {"branch.bimodal_entries",
     R"({"branch": {"kind": "bimodal", "bimodal_entries": 0}})"},
};

// Selection policies outside validate(SelectPolicy)'s bounds, each with
// the field the 400 must name. Unchecked, a zero max_inputs died in
// std::bad_array_new_length and a zero min_length failed only after the
// analysis, inside ExtInstDef; the negative ones were silently accepted.
struct HostilePolicy {
  const char* field;
  const char* policy;
};
constexpr HostilePolicy kHostilePolicies[] = {
    {"extract.max_inputs", R"({"extract": {"max_inputs": 0}})"},
    {"extract.max_inputs", R"({"extract": {"max_inputs": -1}})"},
    {"extract.max_outputs", R"({"extract": {"max_outputs": 3}})"},
    {"extract.min_length", R"({"extract": {"min_length": 0}})"},
    {"extract.max_length", R"({"extract": {"max_length": 9}})"},
    {"extract.max_width", R"({"extract": {"max_width": -1}})"},
    {"num_pfus", R"({"num_pfus": -5})"},
    {"time_threshold", R"({"time_threshold": 1.5})"},
    {"lut_budget", R"({"lut_budget": -1})"},
};

std::string hostile_policy_request(const HostilePolicy& hostile) {
  return std::string(
             R"({"runs": [{"workload": "gsm_dec", "selector": "selective", )"
             R"("policy": )") +
         hostile.policy + "}]}";
}

std::string hostile_request(const HostileMachine& hostile) {
  return std::string(R"({"runs": [{"workload": "gsm_dec", "machine": )") +
         hostile.machine + "}]}";
}

TEST(Service, SubmittedJobMatchesInProcessGridByteForByte) {
  SimService service(ServiceOptions{});
  const Json request = small_request();

  const HttpResponse submitted =
      service.handle_http(post("/v1/jobs", request.dump()));
  ASSERT_EQ(submitted.status, 202);
  const Json ack = Json::parse(submitted.body);
  EXPECT_EQ(ack.at("state").as_string(), "queued");
  EXPECT_EQ(ack.at("runs").as_uint(), 3u);
  const std::uint64_t id = ack.at("job").as_uint();

  const Json status = wait_for_job(service, id);
  ASSERT_EQ(status.at("state").as_string(), "done");

  const HttpResponse fetched =
      service.handle_http(get("/v1/jobs/" + std::to_string(id) + "/results"));
  ASSERT_EQ(fetched.status, 200);
  const Json doc = Json::parse(fetched.body);

  // The reference: the identical grid through the in-process engine.
  ExperimentGrid grid;
  grid.add_workload(*find_workload("gsm_dec"));
  grid.add_workload(*find_workload("g721_dec"));
  grid.add(baseline_spec("gsm_dec"));
  grid.add(greedy_spec("gsm_dec", "greedy", 2, 10));
  grid.add(baseline_spec("g721_dec"));
  const GridResult reference = grid.run(GridOptions{});

  EXPECT_EQ(doc.at("results").dump(), reference.results_json().dump());

  // run_local shares the parser and engine wiring, so it agrees too.
  const Json local = service.run_local(request);
  EXPECT_EQ(local.at("results").dump(), reference.results_json().dump());
}

TEST(Service, AdmissionRejectsBeyondTheQueueLimitWith429) {
  ServiceOptions options;
  options.queue_limit = 1;
  SimService service(options);

  // Hold the runner mid-job so submissions pile up deterministically:
  // job 1 dequeues and blocks running, job 2 occupies the whole queue.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  service.test_run_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };

  const std::string body = small_request().dump();
  const HttpResponse first = service.handle_http(post("/v1/jobs", body));
  ASSERT_EQ(first.status, 202);
  // Wait until the runner has picked job 1 up (queue drains to empty).
  for (int i = 0; i < 200; ++i) {
    const Json status = Json::parse(
        service.handle_http(get("/v1/jobs/1")).body);
    if (status.at("state").as_string() == "running") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const HttpResponse second = service.handle_http(post("/v1/jobs", body));
  EXPECT_EQ(second.status, 202);
  const HttpResponse third = service.handle_http(post("/v1/jobs", body));
  EXPECT_EQ(third.status, 429);
  const Json rejection = Json::parse(third.body);
  EXPECT_EQ(rejection.at("error").as_string(), "job queue full");
  EXPECT_EQ(rejection.at("queue_limit").as_uint(), 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  // Everything admitted completes; the rejected job never existed.
  EXPECT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");
  EXPECT_EQ(wait_for_job(service, 2).at("state").as_string(), "done");
  EXPECT_EQ(service.handle_http(get("/v1/jobs/3")).status, 404);
}

TEST(Service, PerRequestBudgetYieldsTimeoutTaxonomyInResults) {
  SimService service(ServiceOptions{});
  Json request = small_request();
  Json options = Json::object();
  // A budget no simulation can meet: every run must come back as a
  // timeout — a diagnosable status, not an error and not a hang.
  options["run_budget_ms"] = Json(0.000001);
  request["options"] = std::move(options);

  const HttpResponse submitted =
      service.handle_http(post("/v1/jobs", request.dump()));
  ASSERT_EQ(submitted.status, 202);
  const Json status = wait_for_job(service, 1);
  // Timeouts degrade the grid, they do not fail the job.
  ASSERT_EQ(status.at("state").as_string(), "done");

  const Json doc =
      Json::parse(service.handle_http(get("/v1/jobs/1/results")).body);
  for (const Json& run : doc.at("results").items()) {
    EXPECT_EQ(run.at("status").as_string(), "timeout");
    EXPECT_EQ(run.at("error").at("kind").as_string(), "none");
  }
  EXPECT_EQ(doc.at("engine").at("timeouts").as_uint(), 3u);
}

TEST(Service, OperatorCapClampsAnUnlimitedBudgetRequest) {
  ServiceOptions options;
  options.max_run_budget_ms = 0.000001;  // operator says: nothing runs long
  SimService service(options);
  Json request = small_request();
  Json opts = Json::object();
  opts["run_budget_ms"] = Json(0.0);  // client asks for unlimited
  request["options"] = std::move(opts);

  ASSERT_EQ(service.handle_http(post("/v1/jobs", request.dump())).status,
            202);
  ASSERT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");
  const Json doc =
      Json::parse(service.handle_http(get("/v1/jobs/1/results")).body);
  for (const Json& run : doc.at("results").items()) {
    EXPECT_EQ(run.at("status").as_string(), "timeout");
  }
}

TEST(Service, MalformedSubmissionsAre400WithDiagnostics) {
  SimService service(ServiceOptions{});
  EXPECT_EQ(service.handle_http(post("/v1/jobs", "{not json")).status, 400);
  EXPECT_EQ(service.handle_http(post("/v1/jobs", "{}")).status, 400);
  EXPECT_EQ(
      service.handle_http(post("/v1/jobs", "{\"runs\": []}")).status, 400);

  const HttpResponse unknown_workload = service.handle_http(
      post("/v1/jobs", "{\"runs\": [{\"workload\": \"doom\"}]}"));
  EXPECT_EQ(unknown_workload.status, 400);
  EXPECT_NE(unknown_workload.body.find("doom"), std::string::npos);

  const HttpResponse typo = service.handle_http(post(
      "/v1/jobs",
      "{\"runs\": [{\"workload\": \"gsm_dec\", \"selektor\": \"greedy\"}]}"));
  EXPECT_EQ(typo.status, 400);
  EXPECT_NE(typo.body.find("selektor"), std::string::npos);

  // Nothing malformed was admitted.
  const Json list = Json::parse(service.handle_http(get("/v1/jobs")).body);
  EXPECT_EQ(list.at("jobs").size(), 0u);
}

TEST(Service, HostileBodiesAre400BeforeAdmission) {
  SimService service(ServiceOptions{});
  // 50 KB of '[' used to overflow the parser's stack and kill the daemon.
  const HttpResponse nested =
      service.handle_http(post("/v1/jobs", std::string(50000, '[')));
  EXPECT_EQ(nested.status, 400);
  EXPECT_NE(nested.body.find("kMaxParseDepth"), std::string::npos);

  // Unusable machines are parse errors naming the field.
  for (const HostileMachine& hostile : kHostileMachines) {
    const HttpResponse r =
        service.handle_http(post("/v1/jobs", hostile_request(hostile)));
    EXPECT_EQ(r.status, 400) << hostile.machine;
    EXPECT_NE(r.body.find(hostile.field), std::string::npos) << r.body;
  }
  // So are unusable selection policies.
  for (const HostilePolicy& hostile : kHostilePolicies) {
    const HttpResponse r =
        service.handle_http(post("/v1/jobs", hostile_policy_request(hostile)));
    EXPECT_EQ(r.status, 400) << hostile.policy;
    EXPECT_NE(r.body.find(hostile.field), std::string::npos) << r.body;
  }
  // A value its field cannot hold is an error, not a truncation to 0.
  const HttpResponse wide = service.handle_http(post(
      "/v1/jobs", hostile_request({"dl1", R"({"dl1": {"assoc": 4294967300}})"})));
  EXPECT_EQ(wide.status, 400);
  EXPECT_NE(wide.body.find("assoc"), std::string::npos) << wide.body;
  const Json list = Json::parse(service.handle_http(get("/v1/jobs")).body);
  EXPECT_EQ(list.at("jobs").size(), 0u);
}

TEST(Service, BatchOptionIsAnUnknownMember) {
  // The grid has one execution path; "batch" no longer names an option.
  SimService service(ServiceOptions{});
  Json request = small_request();
  Json options = Json::object();
  options["batch"] = Json(true);
  request["options"] = std::move(options);
  const HttpResponse r = service.handle_http(post("/v1/jobs", request.dump()));
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("batch"), std::string::npos) << r.body;
  const Json list = Json::parse(service.handle_http(get("/v1/jobs")).body);
  EXPECT_EQ(list.at("jobs").size(), 0u);
}

TEST(Service, ObservedRunOnAStarvedMachineSkipsQuietCycles) {
  // Tiny caches in front of a 65536-cycle memory: ~300M cycles, nearly
  // all quiet. Observed runs charge quiet stretches in bulk instead of
  // stepping through them, so the run takes well under a second where
  // stepping took ~20 s.
  const Json request = Json::parse(R"({"runs": [{"workload": "gsm_dec",
      "machine": {"memory_latency": 65536,
                  "dl1": {"size_bytes": 64, "line_bytes": 32, "assoc": 1},
                  "l2": {"size_bytes": 64, "line_bytes": 32, "assoc": 1}}}],
      "options": {"observe": true}})");
  SimService service(ServiceOptions{});
  const auto start = std::chrono::steady_clock::now();
  const Json doc = service.run_local(request);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  const Json& run = doc.at("results").at(0);
  ASSERT_EQ(run.at("status").as_string(), "ok") << doc.dump();
  const Json& outcome = run.at("outcome");
  const std::uint64_t cycles = outcome.at("stats").at("cycles").as_uint();
  EXPECT_GT(cycles, 300000000u);
  const StallBreakdown stalls =
      stall_breakdown_from_json(outcome.at("stalls"));
  EXPECT_EQ(stalls.cycles, cycles);
  EXPECT_EQ(stalls.cause_cycles(), stalls.stall_cycles());
}

TEST(Service, LargeWindowMachinesRunInTimeProportionalToTheirWork) {
  // Two bodies that pass validate() and once held a worker for tens of
  // seconds, because issue scanned every waiting entry on every active
  // cycle: a 2^20-entry window over a 65536-cycle memory (93 s), and a
  // 4096-entry, 64-wide window behind a single MSHR (12 s). Issue now
  // examines only entries whose operands are ready, so both are quick;
  // the cycle counts are the scanning scheduler's.
  struct Body {
    const char* name;
    const char* machine;
    std::uint64_t cycles;
  };
  const Body bodies[] = {
      {"2^20-entry window",
       R"({"ruu_size": 1048576, "fetch_queue_size": 1048576,
           "memory_latency": 65536,
           "dl1": {"size_bytes": 64, "line_bytes": 64, "assoc": 1},
           "l2": {"size_bytes": 64, "line_bytes": 64, "assoc": 1}})",
       647420},
      {"one MSHR",
       R"({"ruu_size": 4096, "fetch_queue_size": 4096, "fetch_width": 64,
           "decode_width": 64, "issue_width": 64, "commit_width": 64,
           "int_alus": 64, "int_mults": 64, "mem_ports": 64,
           "max_outstanding_misses": 1, "memory_latency": 65536})",
       1426426},
  };
  SimService service(ServiceOptions{});
  for (const Body& body : bodies) {
    const Json request = Json::parse(
        std::string(R"({"runs": [{"workload": "gsm_dec", "machine": )") +
        body.machine + "}]}");
    const auto start = std::chrono::steady_clock::now();
    const Json doc = service.run_local(request);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(20))
        << body.name;
    const Json& run = doc.at("results").at(0);
    ASSERT_EQ(run.at("status").as_string(), "ok") << body.name;
    EXPECT_EQ(run.at("outcome").at("stats").at("cycles").as_uint(),
              body.cycles)
        << body.name;
  }
}

TEST(Service, RoutesAndMethodsAreEnforced) {
  SimService service(ServiceOptions{});
  EXPECT_EQ(service.handle_http(get("/healthz")).status, 200);
  EXPECT_EQ(service.handle_http(post("/healthz", "")).status, 405);
  EXPECT_EQ(service.handle_http(get("/v1/janitor")).status, 405);
  EXPECT_EQ(service.handle_http(get("/nope")).status, 404);
  EXPECT_EQ(service.handle_http(get("/v1/jobs/7")).status, 404);
  EXPECT_EQ(service.handle_http(get("/v1/jobs/xyz")).status, 404);
  EXPECT_EQ(service.handle_http(get("/v1/jobs/7/results")).status, 404);

  EXPECT_FALSE(service.shutdown_requested());
  EXPECT_EQ(service.handle_http(post("/v1/shutdown", "")).status, 200);
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(Service, MetricsAndTraceObserveTheJobLifecycle) {
  SimService service(ServiceOptions{});
  ASSERT_EQ(
      service.handle_http(post("/v1/jobs", small_request().dump())).status,
      202);
  ASSERT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");

  const Json metrics =
      Json::parse(service.handle_http(get("/metrics")).body);
  EXPECT_EQ(
      metrics.at("metrics").at("serve.jobs_submitted").at("value").as_uint(),
      1u);
  EXPECT_EQ(
      metrics.at("metrics").at("serve.jobs_completed").at("value").as_uint(),
      1u);
  EXPECT_GE(metrics.at("metrics").at("grid.runs").at("value").as_uint(), 3u);
  EXPECT_EQ(metrics.at("cache").at("misses").as_uint(), 3u);

  // The trace carries the queued and run slices for job 1 on pid 1.
  const Json trace = Json::parse(service.handle_http(get("/v1/trace")).body);
  int begins = 0;
  int ends = 0;
  for (const Json& ev : trace.at("traceEvents").items()) {
    const std::string& ph = ev.at("ph").as_string();
    begins += ph == "B" ? 1 : 0;
    ends += ph == "E" ? 1 : 0;
  }
  EXPECT_EQ(begins, 2);  // "queued" and "run"
  EXPECT_EQ(ends, 2);

  const HttpResponse summary = service.handle_http(get("/v1/summary"));
  EXPECT_EQ(summary.status, 200);
  EXPECT_NE(summary.body.find("job 1: [engine] 3 runs"), std::string::npos);
}

TEST(Service, JobSummaryAttributesCacheDeltasPerJob) {
  SimService service(ServiceOptions{});
  EXPECT_EQ(service.handle_http(get("/v1/jobs/9/summary")).status, 404);

  const std::string body = small_request().dump();
  ASSERT_EQ(service.handle_http(post("/v1/jobs", body)).status, 202);
  ASSERT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");
  ASSERT_EQ(service.handle_http(post("/v1/jobs", body)).status, 202);
  ASSERT_EQ(wait_for_job(service, 2).at("state").as_string(), "done");

  // Job 1 populated the shared cache, job 2 rode it: the per-job deltas
  // attribute exactly that, where the global counters only show totals.
  const Json first =
      Json::parse(service.handle_http(get("/v1/jobs/1/summary")).body);
  EXPECT_EQ(first.at("cache").at("misses").as_uint(), 3u);
  EXPECT_EQ(first.at("cache").at("stores").as_uint(), 3u);
  EXPECT_EQ(first.at("cache").at("memory_hits").as_uint(), 0u);
  const Json second =
      Json::parse(service.handle_http(get("/v1/jobs/2/summary")).body);
  EXPECT_EQ(second.at("cache").at("memory_hits").as_uint(), 3u);
  EXPECT_EQ(second.at("cache").at("misses").as_uint(), 0u);
  EXPECT_EQ(second.at("cache").at("stores").as_uint(), 0u);

  // Every job's status documents carry its trace id.
  EXPECT_NE(first.at("trace").as_string(), "0000000000000000");
  EXPECT_NE(first.at("trace").as_string(), second.at("trace").as_string());
}

TEST(Service, JobSummaryIsStatus202WhilePending) {
  ServiceOptions options;
  SimService service(options);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  service.test_run_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  ASSERT_EQ(
      service.handle_http(post("/v1/jobs", small_request().dump())).status,
      202);
  // While the job is queued/running the deltas do not exist yet; the
  // route answers 202 with the status document, like /results.
  const HttpResponse pending = service.handle_http(get("/v1/jobs/1/summary"));
  EXPECT_EQ(pending.status, 202);
  EXPECT_EQ(Json::parse(pending.body).find("cache"), nullptr);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");
  EXPECT_EQ(service.handle_http(get("/v1/jobs/1/summary")).status, 200);
}

TEST(Service, EventsRouteStreamsTheJobTraceAsNdjson) {
  SimService service(ServiceOptions{});
  EXPECT_EQ(service.handle_http(get("/v1/jobs/9/events")).status, 404);

  ASSERT_EQ(
      service.handle_http(post("/v1/jobs", small_request().dump())).status,
      202);
  ASSERT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");

  const HttpResponse r = service.handle_http(get("/v1/jobs/1/events"));
  ASSERT_TRUE(static_cast<bool>(r.streamer));
  EXPECT_EQ(r.content_type, "application/x-ndjson");

  // The job is done, so the streamer drains the ring and returns.
  std::string collected;
  r.streamer([&collected](std::string_view chunk) {
    collected.append(chunk.data(), chunk.size());
    return true;
  });

  const std::string job_trace =
      Json::parse(service.handle_http(get("/v1/jobs/1")).body)
          .at("trace")
          .as_string();
  int begins = 0;
  int ends = 0;
  int runs = 0;
  bool saw_job = false;
  bool saw_phase = false;
  bool saw_cache = false;
  std::size_t start = 0;
  while (start < collected.size()) {
    const std::size_t nl = collected.find('\n', start);
    ASSERT_NE(nl, std::string::npos) << "stream must end on a newline";
    const Json ev = Json::parse(collected.substr(start, nl - start));
    start = nl + 1;
    if (ev.find("heartbeat") != nullptr) continue;
    // Schema: every event names the job's trace and a valid kind.
    EXPECT_EQ(ev.at("trace").as_string(), job_trace);
    EXPECT_GT(ev.at("seq").as_uint(), 0u);
    const std::string& kind = ev.at("kind").as_string();
    EXPECT_TRUE(kind == "B" || kind == "E" || kind == "i") << kind;
    begins += kind == "B" ? 1 : 0;
    ends += kind == "E" ? 1 : 0;
    const std::string& name = ev.at("name").as_string();
    saw_job = saw_job || name == "job";
    runs += (kind == "B" && name == "run") ? 1 : 0;
    saw_phase = saw_phase || name.rfind("phase.", 0) == 0;
    saw_cache = saw_cache || name.rfind("cache.", 0) == 0;
  }
  EXPECT_EQ(begins, ends);
  EXPECT_TRUE(saw_job);
  EXPECT_EQ(runs, 3);  // one run span per spec
  EXPECT_TRUE(saw_phase);
  EXPECT_TRUE(saw_cache);
}

TEST(Service, MetricsContentNegotiatesPrometheusText) {
  SimService service(ServiceOptions{});
  ASSERT_EQ(
      service.handle_http(post("/v1/jobs", small_request().dump())).status,
      202);
  ASSERT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");

  HttpRequest prom_request = get("/metrics");
  prom_request.headers.push_back({"accept", "text/plain"});
  const HttpResponse prom = service.handle_http(prom_request);
  EXPECT_EQ(prom.status, 200);
  EXPECT_EQ(prom.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(prom.body.find("# TYPE serve_jobs_completed_total counter\n"),
            std::string::npos);
  EXPECT_NE(prom.body.find("serve_jobs_completed_total 1\n"),
            std::string::npos);
  // The per-route and per-phase histograms render with label blocks.
  EXPECT_NE(prom.body.find("serve_route_ns_bucket{route=\"POST /v1/jobs\","),
            std::string::npos);
  EXPECT_NE(prom.body.find("exp_phase_ns_bucket{phase=\"replay\","),
            std::string::npos);
  EXPECT_NE(prom.body.find("# TYPE serve_job_ns histogram\n"),
            std::string::npos);
  // Every timed region is an ns histogram: no summaries, no ms buckets.
  EXPECT_EQ(prom.body.find(" summary\n"), std::string::npos);
  EXPECT_EQ(prom.body.find("_ms_bucket"), std::string::npos);
  // Cache movement rides as gauges.
  EXPECT_NE(prom.body.find("serve_cache{counter=\"misses\"} 3\n"),
            std::string::npos);

  // Default (no Accept) and JSON clients keep the JSON document.
  const HttpResponse json_default = service.handle_http(get("/metrics"));
  EXPECT_EQ(json_default.content_type, "application/json");
  const Json doc = Json::parse(json_default.body);
  EXPECT_NE(doc.find("metrics"), nullptr);
  EXPECT_NE(doc.find("cache"), nullptr);
  HttpRequest json_request = get("/metrics");
  json_request.headers.push_back({"accept", "application/json"});
  EXPECT_EQ(service.handle_http(json_request).content_type,
            "application/json");
}

TEST(Service, TraceCarriesPerJobFlowEvents) {
  SimService service(ServiceOptions{});
  ASSERT_EQ(
      service.handle_http(post("/v1/jobs", small_request().dump())).status,
      202);
  ASSERT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");

  const std::string job_trace =
      Json::parse(service.handle_http(get("/v1/jobs/1")).body)
          .at("trace")
          .as_string();
  const Json trace = Json::parse(service.handle_http(get("/v1/trace")).body);
  int flow_starts = 0;
  int flow_finishes = 0;
  for (const Json& ev : trace.at("traceEvents").items()) {
    const std::string& ph = ev.at("ph").as_string();
    if (ph != "s" && ph != "f") continue;
    // Flow events correlate the submission with the run start via the
    // job's trace id.
    EXPECT_EQ(ev.at("id").as_string(), job_trace);
    flow_starts += ph == "s" ? 1 : 0;
    flow_finishes += ph == "f" ? 1 : 0;
  }
  EXPECT_EQ(flow_starts, 1);
  EXPECT_EQ(flow_finishes, 1);
}

// ---------------------------------------------------------------------------
// job_timeline_json: the /v1/trace renderer over hand-built journal events.

obs::JournalEvent journal_event(double ts_ms, std::uint64_t trace, char kind,
                                std::string name, Json attrs = Json()) {
  obs::JournalEvent ev;
  ev.ts_ms = ts_ms;
  ev.trace_id = trace;
  ev.span_id = kind == 'i' ? 0 : trace + 100;
  ev.kind = kind;
  ev.name = std::move(name);
  ev.attrs = std::move(attrs);
  return ev;
}

obs::JournalEvent submitted(double ts_ms, std::uint64_t trace,
                            std::uint64_t job) {
  Json attrs = Json::object();
  attrs["job"] = Json(job);
  attrs["runs"] = Json(1);
  return journal_event(ts_ms, trace, 'i', "job.submitted", std::move(attrs));
}

// The timeline's slice/flow events of one tid, in document order.
std::vector<Json> events_of_tid(const Json& doc, std::uint64_t tid) {
  std::vector<Json> out;
  for (const Json& ev : doc.at("traceEvents").items()) {
    if (ev.at("ph").as_string() != "M" && ev.at("tid").as_uint() == tid) {
      out.push_back(ev);
    }
  }
  return out;
}

TEST(JobTimeline, RendersQueuedAndRunSlicesWithAFlowPerJob) {
  // Job 1 (trace 0xa) finished; job 2 (trace 0xb) is running; job 3
  // (trace 0xc) is still queued. A phase span inside a job is ignored.
  const std::vector<obs::JournalEvent> events = {
      submitted(1.0, 0xa, 1),
      journal_event(2.5, 0xa, 'B', "job"),
      journal_event(3.0, 0xa, 'B', "phase.replay"),
      submitted(3.5, 0xb, 2),
      journal_event(4.0, 0xa, 'E', "phase.replay"),
      journal_event(4.25, 0xa, 'E', "job"),
      journal_event(5.0, 0xb, 'B', "job"),
      submitted(6.0, 0xc, 3),
  };
  const Json doc = job_timeline_json(events);

  const std::vector<Json> done = events_of_tid(doc, 1);
  std::vector<std::string> phs;
  for (const Json& ev : done) phs.push_back(ev.at("ph").as_string());
  EXPECT_EQ(phs, (std::vector<std::string>{"B", "s", "E", "B", "f", "E"}));
  // ts is in microseconds of the journal clock.
  EXPECT_EQ(done[0].at("name").as_string(), "queued");
  EXPECT_EQ(done[0].at("ts").as_uint(), 1000u);
  EXPECT_EQ(done[3].at("name").as_string(), "run");
  EXPECT_EQ(done[3].at("ts").as_uint(), 2500u);
  EXPECT_EQ(done[5].at("ts").as_uint(), 4250u);
  // The flow pair carries the trace id in hex, from submission to run.
  EXPECT_EQ(done[1].at("id").as_string(), "000000000000000a");
  EXPECT_EQ(done[4].at("id").as_string(), "000000000000000a");
  EXPECT_EQ(done[1].at("ts").as_uint(), 1000u);
  EXPECT_EQ(done[4].at("ts").as_uint(), 2500u);

  // The running job's run slice is open; its queued slice is closed.
  const std::vector<Json> running = events_of_tid(doc, 2);
  int depth = 0;
  for (const Json& ev : running) {
    depth += ev.at("ph").as_string() == "B" ? 1 : 0;
    depth -= ev.at("ph").as_string() == "E" ? 1 : 0;
  }
  EXPECT_EQ(depth, 1);
  EXPECT_EQ(running.back().at("ph").as_string(), "f");
  EXPECT_EQ(running.back().at("id").as_string(), "000000000000000b");

  // Global order is by ts, and only the jobs' slices are present.
  std::uint64_t last = 0;
  for (const Json& ev : doc.at("traceEvents").items()) {
    if (ev.at("ph").as_string() == "M") continue;
    EXPECT_GE(ev.at("ts").as_uint(), last);
    last = ev.at("ts").as_uint();
    EXPECT_NE(ev.at("name").as_string(), "phase.replay");
  }
  EXPECT_EQ(events_of_tid(doc, 3).size(), 2u);  // queued B + flow s
}

TEST(JobTimeline, OmitsAJobWhoseSubmissionLeftTheRing) {
  // The ring dropped job 1's submission: its job span alone renders
  // nothing, while job 2 renders in full and B/E balance per tid.
  const std::vector<obs::JournalEvent> events = {
      journal_event(2.0, 0xa, 'B', "job"),
      submitted(3.0, 0xb, 2),
      journal_event(3.5, 0xa, 'E', "job"),
      journal_event(4.0, 0xb, 'B', "job"),
      journal_event(9.0, 0xb, 'E', "job"),
  };
  const Json doc = job_timeline_json(events);
  EXPECT_TRUE(events_of_tid(doc, 1).empty());
  int threads = 0;
  for (const Json& ev : doc.at("traceEvents").items()) {
    threads += ev.at("name").as_string() == "thread_name" ? 1 : 0;
  }
  EXPECT_EQ(threads, 1);
  int depth = 0;
  int flows = 0;
  for (const Json& ev : events_of_tid(doc, 2)) {
    const std::string& ph = ev.at("ph").as_string();
    depth += ph == "B" ? 1 : ph == "E" ? -1 : 0;
    EXPECT_GE(depth, 0);
    flows += ph == "s" || ph == "f" ? 1 : 0;
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(flows, 2);
  EXPECT_TRUE(job_timeline_json({}).at("traceEvents").size() == 1);  // process
}

// ---------------------------------------------------------------------------
// HTTP transport over real loopback sockets.

// Minimal client: one request, read to EOF (the server closes).
std::string http_round_trip(int port, const std::string& raw_request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, raw_request.data(), raw_request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(raw_request.size()));
  std::string response;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string request_text(const std::string& method, const std::string& target,
                         const std::string& body) {
  std::string out = method + " " + target + " HTTP/1.1\r\n";
  out += "Host: 127.0.0.1\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  out += body;
  return out;
}

TEST(Http, ServesTheServiceOverRealSockets) {
  SimService service(ServiceOptions{});
  HttpServer::Options options;  // ephemeral port
  HttpServer server(options, [&service](const HttpRequest& request) {
    return service.handle_http(request);
  });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  const std::string health =
      http_round_trip(server.port(), request_text("GET", "/healthz", ""));
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("\"status\": \"ok\""), std::string::npos);

  const std::string submitted = http_round_trip(
      server.port(),
      request_text("POST", "/v1/jobs", small_request().dump()));
  EXPECT_NE(submitted.find("HTTP/1.1 202 Accepted"), std::string::npos);

  ASSERT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");
  const std::string results = http_round_trip(
      server.port(), request_text("GET", "/v1/jobs/1/results", ""));
  EXPECT_NE(results.find("HTTP/1.1 200 OK"), std::string::npos);
  // The socket-fetched body is the same document handle_http returns.
  const std::string direct =
      service.handle_http(get("/v1/jobs/1/results")).body;
  const std::size_t body_at = results.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_EQ(results.substr(body_at + 4), direct);

  const std::string missing =
      http_round_trip(server.port(), request_text("GET", "/v1/jobs/9", ""));
  EXPECT_NE(missing.find("HTTP/1.1 404 Not Found"), std::string::npos);

  const std::string malformed =
      http_round_trip(server.port(), "GET missing-the-version\r\n\r\n");
  EXPECT_NE(malformed.find("HTTP/1.1 400 Bad Request"), std::string::npos);

  server.stop();
}

TEST(Http, DeeplyNestedBodyIs400AndTheDaemonKeepsServing) {
  SimService service(ServiceOptions{});
  HttpServer::Options options;  // ephemeral port
  HttpServer server(options, [&service](const HttpRequest& request) {
    return service.handle_http(request);
  });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const auto start = std::chrono::steady_clock::now();
  const std::string nested = http_round_trip(
      server.port(),
      request_text("POST", "/v1/jobs", std::string(50000, '[')));
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(2));
  EXPECT_NE(nested.find("HTTP/1.1 400 Bad Request"), std::string::npos);
  EXPECT_NE(nested.find("kMaxParseDepth"), std::string::npos);

  const std::string health =
      http_round_trip(server.port(), request_text("GET", "/healthz", ""));
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  server.stop();
}

TEST(Http, HostileMachinesAre400AndTheDaemonKeepsServing) {
  SimService service(ServiceOptions{});
  HttpServer::Options options;  // ephemeral port
  HttpServer server(options, [&service](const HttpRequest& request) {
    return service.handle_http(request);
  });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  for (const HostileMachine& hostile : kHostileMachines) {
    const auto start = std::chrono::steady_clock::now();
    const std::string reply = http_round_trip(
        server.port(),
        request_text("POST", "/v1/jobs", hostile_request(hostile)));
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(2))
        << hostile.machine;
    EXPECT_NE(reply.find("HTTP/1.1 400 Bad Request"), std::string::npos)
        << hostile.machine << "\n" << reply;
    EXPECT_NE(reply.find(hostile.field), std::string::npos) << reply;
  }

  // The daemon is alive and still runs a real job to completion.
  const std::string submitted = http_round_trip(
      server.port(),
      request_text("POST", "/v1/jobs", small_request().dump()));
  EXPECT_NE(submitted.find("HTTP/1.1 202 Accepted"), std::string::npos);
  EXPECT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");
  server.stop();
}

// Splits a raw HTTP response into (head, de-chunked body); fails the test
// on a malformed chunk framing.
std::string dechunk(const std::string& raw, std::string* head) {
  const std::size_t split = raw.find("\r\n\r\n");
  EXPECT_NE(split, std::string::npos);
  *head = raw.substr(0, split);
  std::string body;
  std::size_t at = split + 4;
  for (;;) {
    const std::size_t line_end = raw.find("\r\n", at);
    EXPECT_NE(line_end, std::string::npos) << "truncated chunk size line";
    const std::size_t size =
        std::stoull(raw.substr(at, line_end - at), nullptr, 16);
    at = line_end + 2;
    if (size == 0) break;
    body += raw.substr(at, size);
    at += size + 2;  // chunk data + trailing CRLF
  }
  return body;
}

TEST(Http, StreamsChunkedResponsesOverSockets) {
  HttpServer::Options options;
  HttpServer server(options, [](const HttpRequest&) {
    HttpResponse r;
    r.content_type = "text/plain";
    r.streamer = [](const ChunkWriter& write) {
      write("hello ");
      write("");  // empty chunks are suppressed, not stream terminators
      write("world");
    };
    return r;
  });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  std::string head;
  const std::string raw =
      http_round_trip(server.port(), request_text("GET", "/stream", ""));
  const std::string body = dechunk(raw, &head);
  EXPECT_NE(head.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(head.find("Transfer-Encoding: chunked"), std::string::npos);
  EXPECT_NE(head.find("Connection: close"), std::string::npos);
  EXPECT_EQ(head.find("Content-Length"), std::string::npos);
  EXPECT_EQ(body, "hello world");
  server.stop();
}

TEST(Http, EventsStreamEndToEndOverSockets) {
  SimService service(ServiceOptions{});
  HttpServer::Options options;
  HttpServer server(options, [&service](const HttpRequest& request) {
    return service.handle_http(request);
  });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::string submitted = http_round_trip(
      server.port(),
      request_text("POST", "/v1/jobs", small_request().dump()));
  EXPECT_NE(submitted.find("HTTP/1.1 202 Accepted"), std::string::npos);
  ASSERT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");

  // The job is finished, so the stream drains and closes on its own; the
  // client just reads to EOF like any other route.
  std::string head;
  const std::string raw = http_round_trip(
      server.port(), request_text("GET", "/v1/jobs/1/events", ""));
  const std::string body = dechunk(raw, &head);
  EXPECT_NE(head.find("Transfer-Encoding: chunked"), std::string::npos);
  EXPECT_NE(head.find("Content-Type: application/x-ndjson"),
            std::string::npos);
  int events = 0;
  std::size_t start = 0;
  while (start < body.size()) {
    const std::size_t nl = body.find('\n', start);
    ASSERT_NE(nl, std::string::npos);
    const Json ev = Json::parse(body.substr(start, nl - start));
    start = nl + 1;
    events += ev.find("heartbeat") == nullptr ? 1 : 0;
  }
  EXPECT_GT(events, 0);
  server.stop();
}

TEST(Http, RendersResponsesWithLengthAndClose) {
  HttpResponse r;
  r.status = 429;
  r.body = "{\"error\": \"x\"}";
  const std::string text = render_http_response(r);
  EXPECT_NE(text.find("HTTP/1.1 429 Too Many Requests\r\n"),
            std::string::npos);
  EXPECT_NE(text.find("Content-Length: 14\r\n"), std::string::npos);
  EXPECT_NE(text.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(text.find("Content-Type: application/json\r\n"),
            std::string::npos);
}

}  // namespace
}  // namespace t1000::serve
