// Self-tests of the benchmark's own arithmetic: the tail-percentile rule,
// span self time, and deadline-to-degraded lateness checked against the
// engine on a VirtualClock. Exit code 0 = pass.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "instantdb/instantdb.h"
#include "stats.h"
#include "tracer.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using perfbench::Micros;

void TestTailRule() {
  // The tail is the highest percentile with at least 10 samples beyond it.
  CHECK(perfbench::TailRank(1000) == 990);
  CHECK(perfbench::TailRank(11) == 1);
  CHECK(perfbench::TailRank(10) == 10);  // too few: the maximum
  CHECK(perfbench::TailRank(1) == 1);

  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);
  const perfbench::Distribution d = perfbench::Summarize(samples);
  CHECK(d.count == 1000);
  CHECK(d.p50 == 500);
  CHECK(d.tail == 990);
  CHECK(std::fabs(d.tail_pct - 99.0) < 1e-9);
  const size_t beyond = static_cast<size_t>(std::count_if(
      samples.begin(), samples.end(), [&](double v) { return v > d.tail; }));
  CHECK(beyond == 10);

  std::vector<double> six_thousand(6000);
  for (size_t i = 0; i < six_thousand.size(); ++i) six_thousand[i] = static_cast<double>(i);
  const perfbench::Distribution e = perfbench::Summarize(six_thousand);
  CHECK(e.tail == 5989);  // rank 5990
  CHECK(std::fabs(e.tail_pct - 100.0 * 5990 / 6000) < 1e-9);
  // At that percentile the nearest-rank rule lands on the same sample.
  CHECK(perfbench::NearestRank(six_thousand, e.tail_pct) == e.tail);
  // One step higher would leave only 9 beyond.
  CHECK(perfbench::NearestRank(six_thousand, 100.0 * 5991 / 6000) == 5990);

  const perfbench::Distribution tiny = perfbench::Summarize({3, 1, 2});
  CHECK(tiny.tail == 3 && tiny.tail_pct == 100 && tiny.p50 == 2);
}

void TestSelfTime() {
  using perfbench::SpanName;
  using perfbench::SpanRecord;
  auto span = [](int32_t parent, int64_t start, int64_t end) {
    SpanRecord s;
    s.name = SpanName::kReadRequest;
    s.parent = parent;
    s.start_ns = start;
    s.end_ns = end;
    return s;
  };
  // root [0,100] with children A [10,30], B [20,50] (overlapping A),
  // C [60,70] and D [90,120] (runs past the root's end); A has a child.
  const std::vector<SpanRecord> spans = {
      span(-1, 0, 100),  // 0 root
      span(0, 10, 30),   // 1 A
      span(1, 12, 15),   // 2 A's child
      span(0, 20, 50),   // 3 B
      span(0, 60, 70),   // 4 C
      span(0, 90, 120),  // 5 D
  };
  const std::vector<int64_t> self = perfbench::SelfTimes(spans);
  // Children cover [10,50] ∪ [60,70] ∪ [90,100] = 60 of the root's 100.
  CHECK(self[0] == 40);
  CHECK(self[1] == 17);
  CHECK(self[2] == 3);
  CHECK(self[3] == 30);
  CHECK(self[4] == 10);
  CHECK(self[5] == 30);

  // Recorded through the tracer: parent links follow nesting.
  perfbench::Tracer tracer(true);
  perfbench::Tracer::Buffer* buffer = tracer.NewBuffer();
  buffer->BeginRequest(7);
  {
    perfbench::ScopedSpan outer(buffer, SpanName::kServiceRun);
    perfbench::ScopedSpan inner(buffer, SpanName::kQueryExecute);
  }
  CHECK(buffer->spans().size() == 2);
  CHECK(buffer->spans()[0].parent == -1);
  CHECK(buffer->spans()[1].parent == 0);
  CHECK(buffer->spans()[1].request == 7);
  const std::vector<int64_t> recorded = perfbench::SelfTimes(buffer->spans());
  const auto& s = buffer->spans();
  CHECK(recorded[0] == (s[0].end_ns - s[0].start_ns) - (s[1].end_ns - s[1].start_ns));

  perfbench::Tracer off(false);
  perfbench::Tracer::Buffer* quiet = off.NewBuffer();
  { perfbench::ScopedSpan ignored(quiet, SpanName::kDbWrite); }
  CHECK(quiet->spans().empty());
}

void TestLatenessRule() {
  // Pure arithmetic: deadlines 1000+{10,20,40}; passes (start, end).
  const std::vector<perfbench::Commit> commits = {{1000}};
  const std::vector<Micros> offsets = {10, 20, 40};
  const std::vector<perfbench::Pass> passes = {
      {1005, 1008, 0}, {1010, 1013, 4}, {1019, 1030, 4}, {1030, 1031, 4},
      {1040, 1041, 0}, {1041, 1050, 4}};
  const std::vector<double> late = perfbench::LatenessSamples(commits, offsets, passes);
  CHECK(late.size() == 3);
  CHECK(late[0] == 3);   // deadline 1010: pass starting exactly at it, ends 1013
  CHECK(late[1] == 11);  // deadline 1020: pass at 1019 started too early
  CHECK(late[2] == 10);  // deadline 1040: the pass at 1040 moved nothing
  // A deadline no pass started after yields no sample.
  CHECK(perfbench::LatenessSamples({{1000}}, {100}, passes).empty());
}

/// A VirtualClock that, while `moving` is set, steps forward on every read,
/// so the engine's own reads during a call see later times than the
/// caller's read before it.
class SteppingClock final : public instantdb::Clock {
 public:
  explicit SteppingClock(Micros start) : inner_(start) {}
  Micros NowMicros() const override {
    if (moving) inner_.Advance(kStep);
    return inner_.NowMicros();
  }
  uint64_t WakeToken() const override { return inner_.WakeToken(); }
  using instantdb::Clock::WaitUntil;
  Micros WaitUntil(Micros deadline, uint64_t token) override {
    return inner_.WaitUntil(deadline, token);
  }
  void WakeAll() override { inner_.WakeAll(); }
  void AdvanceTo(Micros t) { inner_.AdvanceTo(t); }

  static constexpr Micros kStep = 7;
  std::atomic<bool> moving{false};

 private:
  mutable instantdb::VirtualClock inner_;
};

/// A fresh database at `dir` on `clock` with one table "t" whose location
/// values degrade 1000, 2000 and 4000 us after insert; null on failure.
std::unique_ptr<instantdb::Database> OpenLatenessDb(const std::string& dir,
                                                    instantdb::Clock* clock) {
  std::filesystem::remove_all(dir);
  instantdb::DbOptions options;
  options.path = dir;
  options.clock = clock;
  auto db = instantdb::Database::Open(options);
  if (!db.ok()) return nullptr;
  auto domain = instantdb::SyntheticLocationDomain(2, 2, 2, 2);
  auto lcp = instantdb::AttributeLcp::Make({{0, 1000}, {1, 1000}, {2, 2000}});
  auto schema = instantdb::Schema::Make(
      {instantdb::ColumnDef::Stable("user", instantdb::ValueType::kString),
       instantdb::ColumnDef::Degradable("location", domain, *lcp)});
  if (!(*db)->CreateTable("t", *schema).ok()) return nullptr;
  return std::move(*db);
}

void CloseLatenessDb(std::unique_ptr<instantdb::Database> db, const std::string& dir) {
  db->Close();
  db.reset();
  std::filesystem::remove_all(dir);
}

void TestLatenessAgainstEngine(const std::string& dir) {
  // The rule assumes a value is degraded by the first pass whose start is
  // at or past its deadline. Check that on the engine with a VirtualClock:
  // passes at chosen instants move the batch exactly at its deadlines, and
  // the accounting yields the exact lateness those instants imply.
  instantdb::VirtualClock clock(1000);
  std::unique_ptr<instantdb::Database> db = OpenLatenessDb(dir, &clock);
  CHECK(db != nullptr);
  if (db == nullptr) return;
  instantdb::WriteBatch batch;
  for (int i = 0; i < 3; ++i) {
    batch.Insert("t", {instantdb::Value::String("u"), instantdb::Value::String("Addr0.1.0.1")});
  }
  CHECK(db->Write(&batch).ok());
  const std::vector<perfbench::Commit> commits = {{clock.NowMicros()}};
  const std::vector<Micros> offsets = {1000, 2000, 4000};

  // (start, duration) of each pass; a pass "lasts" by advancing the clock.
  const std::vector<std::pair<Micros, Micros>> schedule = {
      {1999, 50}, {2049, 10}, {3000, 5}, {4500, 200}, {4999, 1}, {5000, 0}, {5001, 7}};
  const std::vector<uint64_t> expect_moved = {0, 3, 3, 0, 0, 3, 0};
  std::vector<perfbench::Pass> passes;
  for (size_t i = 0; i < schedule.size(); ++i) {
    clock.AdvanceTo(schedule[i].first);
    perfbench::Pass pass;
    pass.start = clock.NowMicros();
    auto moved = db->RunDegradationOnce();
    CHECK(moved.ok());
    clock.Advance(schedule[i].second);
    pass.end = clock.NowMicros();
    pass.moved = moved.ok() ? *moved : 0;
    CHECK(pass.moved == expect_moved[i]);
    passes.push_back(pass);
  }
  const std::vector<double> late = perfbench::LatenessSamples(commits, offsets, passes);
  CHECK(late.size() == 3);
  // Deadlines 2000, 3000, 5000: passes starting 2049 (+10), 3000 (+5) and
  // 5000 (+0).
  CHECK(late.size() == 3 && late[0] == 59 && late[1] == 5 && late[2] == 0);
  CHECK(db->GetTable("t")->live_rows() == 0);
  CloseLatenessDb(std::move(db), dir);
}

void TestLatenessClockMovingDuringWrite(const std::string& dir) {
  // The clock moves while Write runs, so the row's insert time (the
  // engine's deadline base) is later than the benchmark's reading before
  // Write. A pass at the benchmark's deadline finds nothing due and must
  // not be credited; the pass at the engine's own deadline moves the batch
  // and is.
  SteppingClock clock(1000);
  std::unique_ptr<instantdb::Database> db = OpenLatenessDb(dir, &clock);
  CHECK(db != nullptr);
  if (db == nullptr) return;
  instantdb::WriteBatch batch;
  batch.Insert("t", {instantdb::Value::String("u"), instantdb::Value::String("Addr0.1.0.1")});
  const Micros before = clock.NowMicros();
  clock.moving = true;
  CHECK(db->Write(&batch).ok());
  clock.moving = false;
  const Micros after = clock.NowMicros();
  const Micros engine_deadline = db->degradation()->NextDeadline();
  // The engine's first deadline lies strictly after the benchmark's.
  CHECK(engine_deadline > before + 1000);
  CHECK(engine_deadline <= after + 1000);

  std::vector<perfbench::Pass> passes;
  auto pass_at = [&](Micros t, Micros duration) {
    clock.AdvanceTo(t);
    perfbench::Pass pass;
    pass.start = clock.NowMicros();
    auto moved = db->RunDegradationOnce();
    CHECK(moved.ok());
    clock.AdvanceTo(pass.start + duration);
    pass.end = clock.NowMicros();
    pass.moved = moved.ok() ? *moved : 0;
    passes.push_back(pass);
    return pass.moved;
  };
  CHECK(pass_at(before + 1000, 3) == 0);
  CHECK(pass_at(engine_deadline, 20) == 1);
  const std::vector<double> late =
      perfbench::LatenessSamples({{before}}, {1000}, passes);
  CHECK(late.size() == 1);
  CHECK(late.size() == 1 && late[0] == static_cast<double>(engine_deadline + 20 - (before + 1000)));
  CloseLatenessDb(std::move(db), dir);
}

}  // namespace

// Usage: perfbench_selftest [scratch dir] (default: ./perfbench_selftest_<pid>,
// removed afterwards).
int main(int argc, char** argv) {
  const std::string dir =
      argc > 1 ? argv[1] : "perfbench_selftest_" + std::to_string(::getpid());
  TestTailRule();
  TestSelfTime();
  TestLatenessRule();
  TestLatenessAgainstEngine(dir);
  TestLatenessClockMovingDuringWrite(dir);
  if (failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
