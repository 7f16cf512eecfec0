// Journal tests: event-line schema, seq/ts stamping, ring bounds, poll
// filtering/blocking, span helpers, thread-local context scoping, and the
// on-disk JSONL tier (crash-safe complete lines, bounded rotation to
// <path>.1).
#include "obs/journal.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/json.hpp"

namespace t1000::obs {
namespace {

using std::chrono::milliseconds;

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

// A temp path under the build dir; removed on scope exit.
struct TempPath {
  std::string path;
  explicit TempPath(const std::string& name)
      : path(std::string(::testing::TempDir()) + name) {
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
  }
  ~TempPath() {
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
  }
};

TEST(JournalEventLine, DeterministicMemberOrderAndHexIds) {
  JournalEvent ev;
  ev.seq = 7;
  ev.ts_ms = 1.5;
  ev.trace_id = 0xabc;
  ev.span_id = 0x1;
  ev.parent_id = 0;
  ev.kind = 'B';
  ev.name = "run";
  EXPECT_EQ(journal_event_line(ev),
            "{\"seq\":7,\"ts_ms\":1.5,\"trace\":\"0000000000000abc\","
            "\"span\":\"0000000000000001\",\"parent\":\"0000000000000000\","
            "\"kind\":\"B\",\"name\":\"run\"}");

  // attrs render only when present.
  Json attrs = Json::object();
  attrs["hit"] = Json(true);
  ev.attrs = attrs;
  ev.kind = 'i';
  const std::string line = journal_event_line(ev);
  EXPECT_NE(line.find("\"attrs\":{\"hit\":true}"), std::string::npos);
}

TEST(Journal, AppendStampsMonotoneSeqAndTimestamps) {
  Journal journal;
  for (int i = 0; i < 3; ++i) {
    JournalEvent ev;
    ev.trace_id = 1;
    ev.name = "e" + std::to_string(i);
    journal.append(std::move(ev));
  }
  const std::vector<JournalEvent> events =
      journal.poll(0, 0, milliseconds(0));
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1);
    EXPECT_EQ(events[i].name, "e" + std::to_string(i));
    if (i > 0) {
      EXPECT_GE(events[i].ts_ms, events[i - 1].ts_ms);
    }
  }
  EXPECT_EQ(journal.events_appended(), 3u);
  EXPECT_EQ(journal.last_seq(), 3u);
}

TEST(Journal, PollFiltersBySeqAndTrace) {
  Journal journal;
  for (const std::uint64_t trace : {1u, 2u, 1u, 2u}) {
    JournalEvent ev;
    ev.trace_id = trace;
    journal.append(std::move(ev));
  }
  EXPECT_EQ(journal.poll(0, 1, milliseconds(0)).size(), 2u);
  EXPECT_EQ(journal.poll(0, 2, milliseconds(0)).size(), 2u);
  EXPECT_EQ(journal.poll(0, 0, milliseconds(0)).size(), 4u);
  EXPECT_EQ(journal.poll(3, 0, milliseconds(0)).size(), 1u);
  EXPECT_EQ(journal.poll(3, 1, milliseconds(0)).size(), 0u);
}

TEST(Journal, PollBlocksUntilAMatchingEventArrives) {
  Journal journal;
  std::thread producer([&journal] {
    std::this_thread::sleep_for(milliseconds(50));
    JournalEvent ev;
    ev.trace_id = 9;
    ev.name = "late";
    journal.append(std::move(ev));
  });
  // Blocks (not a busy return): an event for another trace must not wake
  // the result, only the matching one does.
  const std::vector<JournalEvent> events =
      journal.poll(0, 9, milliseconds(5000));
  producer.join();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "late");
}

TEST(Journal, RingDropsOldestBeyondCapacity) {
  Journal::Options options;
  options.ring_capacity = 4;
  Journal journal(options);
  for (int i = 0; i < 10; ++i) {
    JournalEvent ev;
    ev.trace_id = 1;
    journal.append(std::move(ev));
  }
  const std::vector<JournalEvent> events =
      journal.poll(0, 0, milliseconds(0));
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 7u);  // 1..6 dropped
  EXPECT_EQ(events.back().seq, 10u);
  EXPECT_EQ(journal.ring_dropped(), 6u);
  EXPECT_EQ(journal.events_appended(), 10u);
}

TEST(Journal, SpanHelpersEmitBeginEndAndInstants) {
  Journal journal;
  const TraceContext root{journal.new_id(), 0};
  const std::uint64_t span = journal.begin_span(root, "run");
  ASSERT_NE(span, 0u);
  journal.instant({root.trace_id, span}, "cache.lookup");
  journal.end_span(root, span, "run");

  const std::vector<JournalEvent> events =
      journal.poll(0, root.trace_id, milliseconds(0));
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, 'B');
  EXPECT_EQ(events[0].span_id, span);
  EXPECT_EQ(events[0].parent_id, 0u);
  EXPECT_EQ(events[1].kind, 'i');
  EXPECT_EQ(events[1].span_id, 0u);
  EXPECT_EQ(events[1].parent_id, span);
  EXPECT_EQ(events[2].kind, 'E');
  EXPECT_EQ(events[2].span_id, span);

  // An inactive context is a no-op, not an error.
  EXPECT_EQ(journal.begin_span(TraceContext{}, "ignored"), 0u);
  journal.instant(TraceContext{}, "ignored");
  EXPECT_EQ(journal.events_appended(), 3u);
}

TEST(Journal, ScopedTraceContextInstallsAndRestores) {
  EXPECT_FALSE(current_trace_context().active());
  {
    ScopedTraceContext outer(TraceContext{5, 1});
    EXPECT_EQ(current_trace_context().trace_id, 5u);
    EXPECT_EQ(current_trace_context().span_id, 1u);
    {
      ScopedTraceContext inner(TraceContext{5, 2});
      EXPECT_EQ(current_trace_context().span_id, 2u);
    }
    EXPECT_EQ(current_trace_context().span_id, 1u);
  }
  EXPECT_FALSE(current_trace_context().active());
}

TEST(Journal, DiskTierWritesCompleteJsonLines) {
  TempPath tmp("journal_lines.jsonl");
  Journal::Options options;
  options.path = tmp.path;
  {
    Journal journal(options);
    const TraceContext root{journal.new_id(), 0};
    const std::uint64_t span = journal.begin_span(root, "run");
    journal.end_span(root, span, "run");
    EXPECT_EQ(journal.disk_errors(), 0u);
  }
  const std::vector<std::string> lines = read_lines(tmp.path);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    const Json ev = Json::parse(line);  // throws on a torn/partial line
    EXPECT_GT(ev.at("seq").as_uint(), 0u);
    EXPECT_EQ(ev.at("name").as_string(), "run");
  }
}

TEST(Journal, DiskTierRotatesAtMaxBytesAndStaysBounded) {
  TempPath tmp("journal_rotate.jsonl");
  Journal::Options options;
  options.path = tmp.path;
  options.max_bytes = 2048;
  Journal journal(options);
  const TraceContext root{journal.new_id(), 0};
  for (int i = 0; i < 100; ++i) journal.instant(root, "tick");
  EXPECT_GT(journal.disk_rotations(), 0u);
  EXPECT_EQ(journal.disk_errors(), 0u);

  // Both tiers stay within the bound and hold only complete lines.
  for (const std::string& path : {tmp.path, tmp.path + ".1"}) {
    const std::vector<std::string> lines = read_lines(path);
    ASSERT_FALSE(lines.empty()) << path;
    std::uint64_t bytes = 0;
    for (const std::string& line : lines) {
      EXPECT_NO_THROW(Json::parse(line)) << path;
      bytes += line.size() + 1;
    }
    EXPECT_LE(bytes, options.max_bytes) << path;
  }

  // Rotation replaces the previous .1 — seqs in the active file are newer.
  const std::vector<std::string> active = read_lines(tmp.path);
  const std::vector<std::string> rotated = read_lines(tmp.path + ".1");
  EXPECT_GT(Json::parse(active.front()).at("seq").as_uint(),
            Json::parse(rotated.back()).at("seq").as_uint());
}

TEST(Journal, AppendFromManyThreadsKeepsLinesIntact) {
  TempPath tmp("journal_mt.jsonl");
  Journal::Options options;
  options.path = tmp.path;
  Journal journal(options);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal, t] {
      const TraceContext ctx{static_cast<std::uint64_t>(t + 1), 0};
      for (int i = 0; i < kPerThread; ++i) {
        journal.instant(ctx, "thread" + std::to_string(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(journal.events_appended(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  const std::vector<std::string> lines = read_lines(tmp.path);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::uint64_t prev_seq = 0;
  for (const std::string& line : lines) {
    const Json ev = Json::parse(line);  // no interleaved/torn lines
    EXPECT_GT(ev.at("seq").as_uint(), prev_seq);
    prev_seq = ev.at("seq").as_uint();
  }
}

}  // namespace
}  // namespace t1000::obs
