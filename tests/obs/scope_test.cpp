// obs::Scope: one timed region is one journal span pair plus one ns
// histogram observation, from the same clock reads.
#include "obs/scope.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "harness/json.hpp"

namespace t1000::obs {
namespace {

using std::chrono::milliseconds;

TEST(Scope, EmitsPairAndCarriesEndAttrs) {
  Journal journal;
  const TraceContext root{journal.new_id(), 0};
  {
    Scope scope(nullptr, &journal, root, "job");
    EXPECT_EQ(scope.context().trace_id, root.trace_id);
    EXPECT_NE(scope.context().span_id, 0u);
    Json attrs = Json::object();
    attrs["state"] = Json("done");
    scope.set_end_attrs(std::move(attrs));
  }
  const std::vector<JournalEvent> events =
      journal.poll(0, root.trace_id, milliseconds(0));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, 'B');
  EXPECT_EQ(events[1].kind, 'E');
  EXPECT_EQ(events[0].span_id, events[1].span_id);
  EXPECT_EQ(events[1].name, "job");
  EXPECT_EQ(events[1].attrs.at("state").as_string(), "done");

  // A null journal or inactive context writes no span, and children stay
  // in the context the scope was opened in.
  {
    const Scope inactive(nullptr, nullptr, root, "x");
    EXPECT_EQ(inactive.context().span_id, root.span_id);
  }
  { const Scope inactive(nullptr, &journal, TraceContext{}, "x"); }
  EXPECT_EQ(journal.events_appended(), 2u);
}

TEST(Scope, RecordsOneNsObservationEqualToElapsed) {
  MetricsRegistry registry;
  Histogram* h = registry.ns_histogram("t.region_ns");
  std::uint64_t elapsed = 0;
  {
    Scope scope(h, nullptr, TraceContext{}, "region");
    std::this_thread::sleep_for(milliseconds(2));
    elapsed = scope.close();
    EXPECT_EQ(scope.elapsed_ns(), elapsed);  // frozen once closed
    EXPECT_EQ(scope.close(), elapsed);       // idempotent
  }
  // The destructor after close() records nothing more.
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(h->sum(), elapsed);
  EXPECT_GE(elapsed, 2'000'000u);
}

TEST(Scope, HistogramCanBeChosenAtTheEnd) {
  MetricsRegistry registry;
  {
    Scope scope(nullptr, nullptr, TraceContext{}, "");
    scope.set_histogram(registry.ns_histogram("t.route_ns|route=GET /x"));
  }
  EXPECT_EQ(registry.ns_histogram("t.route_ns|route=GET /x")->count(), 1u);
}

}  // namespace
}  // namespace t1000::obs
