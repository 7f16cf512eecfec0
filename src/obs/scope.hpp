// obs::Scope: the one way a wall-clock region is timed.
//
// A Scope reads the steady clock when it opens and once more when it
// closes. The elapsed nanoseconds go into one histogram on the shared
// ns_bounds() (obs/metrics.hpp), and — when a journal and an active
// TraceContext are given — the region is one B/E span pair in the journal
// (obs/journal.hpp), parented under the context's span. Every sink is
// optional: a Scope without any still measures elapsed_ns(), so a caller
// that needs the number (the verify counter, say) reuses the same clock
// reads instead of timing the region a second time.
//
// The registry and the journal therefore count the same regions: each
// `*_ns` histogram observation has exactly one span in a traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "harness/json.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace t1000::obs {

class Scope {
 public:
  // Opens the region. `histogram` may be null (no metric); the journal
  // span is written only when `journal` is non-null and `context` active.
  Scope(Histogram* histogram, Journal* journal, const TraceContext& context,
        std::string name, Json attrs = Json());
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  // The context this region's children parent under: its own span when
  // one was opened, else the context it was opened in.
  TraceContext context() const;
  // Attributes carried by the span's end event.
  void set_end_attrs(Json attrs) { end_attrs_ = std::move(attrs); }
  // Redirects the close's observation, for a region whose metric is only
  // known at its end (a serve route's template).
  void set_histogram(Histogram* histogram) { histogram_ = histogram; }

  // Ends the region now — records the histogram, writes the end event —
  // and returns its elapsed nanoseconds. Later calls (and the destructor)
  // return the same value and record nothing.
  std::uint64_t close();
  // Nanoseconds since the region opened; the recorded value once closed.
  std::uint64_t elapsed_ns() const;

 private:
  Histogram* histogram_;
  Journal* journal_ = nullptr;  // set only when a span was opened
  TraceContext context_;
  std::uint64_t span_id_ = 0;
  std::string name_;
  Json end_attrs_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t elapsed_ns_ = 0;
  bool closed_ = false;
};

}  // namespace t1000::obs
