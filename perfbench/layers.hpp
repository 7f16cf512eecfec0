// The traced run: the benchmark's own replica of the grid engine, calling
// each T1000 layer through its public functions and recording a span
// around every call.
//
// ExperimentGrid::run and WorkloadExperiment do their layer calls
// internally, so the benchmark cannot time them from outside. This file
// repeats the same calls in the same order (analysis, selection, rewrite,
// uop decode, trace recording, verification, single and batched replay,
// cache lookup/store, serialization) and checks that every outcome it
// produces has the digest the real engine produced, so the spans time the
// same work. Spans stay in memory, one log per thread, and are written out
// when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "harness/cache.hpp"
#include "harness/experiment.hpp"
#include "harness/json.hpp"

namespace perfbench {

struct Span {
  std::int64_t id = 0;    // (thread << 32 | index within the thread's log)
  std::string_view name;  // a string literal, "<layer>.<what>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // span id, -1 at a root
  std::uint64_t trace_id = 0;
};

// Spans of one thread.
class SpanLog {
 public:
  SpanLog(int thread, std::uint64_t trace_id, std::int64_t parent)
      : thread_(thread), trace_id_(trace_id), root_parent_(parent) {}

  std::int64_t open(std::string_view name);
  void close(std::int64_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int thread_;
  std::uint64_t trace_id_;
  std::int64_t root_parent_;
  std::vector<std::int64_t> stack_;
  std::vector<Span> spans_;
};

// RAII span; a null log makes it a no-op (the untraced path).
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string_view name)
      : log_(log), id_(log != nullptr ? log->open(name) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  std::int64_t id_;
};

// Work counted at the same boundaries the spans mark.
struct LayerCounts {
  std::uint64_t runs = 0;
  std::uint64_t sites = 0;          // candidate sites over all analyses
  std::uint64_t apps = 0;           // rewrite sites over all preparations
  std::uint64_t record_steps = 0;   // committed steps recorded
  std::uint64_t traces_recorded = 0;
  std::uint64_t replay_insts = 0;   // committed instructions replayed
  std::uint64_t batch_calls = 0;
  std::uint64_t batch_lanes = 0;
  std::uint64_t verify_reports = 0;
  std::uint64_t result_bytes = 0;   // serialized results documents

  void add(const LayerCounts& other);
};

// One grid request: the specs of one ExperimentGrid::run call.
using GridJob = std::vector<t1000::RunSpec>;

struct DriveOptions {
  int jobs = 1;  // worker threads per grid job, as GridOptions::jobs
  // Shared result cache across jobs (the daemon's); null = a fresh
  // in-memory cache per job, as ExperimentGrid does without one.
  t1000::ResultCache* cache = nullptr;
  bool traced = true;
};

struct DriveResult {
  double wall_s = 0.0;
  // Per job, per spec: the outcome digest (empty when the run failed, with
  // the message in `errors`).
  std::vector<std::vector<std::string>> digests;
  std::vector<std::string> errors;
  std::vector<Span> spans;  // all threads, merged
  LayerCounts counts;
};

// Runs `jobs` one after another, each as the grid engine would.
DriveResult drive_layers(const std::vector<GridJob>& jobs,
                         const DriveOptions& options);

// Per span name: summed self time in seconds (duration minus the union of
// the child spans inside it).
std::map<std::string, double> self_seconds(const std::vector<Span>& spans);

// One JSON line per span, for the trace file written at the end of a run.
std::string spans_jsonl(const std::vector<Span>& spans);

}  // namespace perfbench
