#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "bench_clock.h"
#include "dataset.h"
#include "instantdb/instantdb.h"
#include "json.h"
#include "stats.h"
#include "tracer.h"

namespace perfbench {

namespace {

using instantdb::Cursor;
using instantdb::CursorBatch;
using instantdb::Database;
using instantdb::DbOptions;
using instantdb::PreparedStatement;
using instantdb::ServiceClass;
using instantdb::ServiceFrontEnd;
using instantdb::Session;
using instantdb::Status;
using instantdb::Value;
using instantdb::WriteBatch;

// --- workload shapes ---------------------------------------------------------

struct Spec {
  const char* name;
  size_t preload_rows;
  /// StorageOptions::buffer_pool_pages (per partition, heap and index pool).
  size_t pool_pages;
  /// > 0: closed-loop read clients; 0: open-loop readers, one of point
  /// statements and `scan_readers` of scans, at the rates below.
  int closed_readers;
  int scan_readers;
  double point_rate;  // statements/s
  double scan_rate;   // statements/s, over all scan readers
  /// Reads as SQL text and writes through ServiceFrontEnd (else prepared
  /// statements and direct Database::Write).
  bool via_service;
  /// ServiceOptions::max_concurrent of the front end.
  size_t max_concurrent;
  double batch_rate;  // write batches/s into the stream table
  uint32_t batch_rows;
};

/// mixed_cold's rates are shares of single-client closed-loop capacity in
/// its configuration (4 vCPUs; see README): points 60/s of about 470/s,
/// scans 2 x 8/s of about 57/s, 64-row write batches 50/s of about 760/s.
/// While both scan readers hold the front end's two slots, points and
/// writes queue for admission.
constexpr Spec kSpecs[] = {
    {.name = "hot_reads", .preload_rows = 200000, .pool_pages = 4096,
     .closed_readers = 2, .scan_readers = 0, .point_rate = 0, .scan_rate = 0,
     .via_service = false, .max_concurrent = 0, .batch_rate = 25, .batch_rows = 64},
    {.name = "ingest_degrade", .preload_rows = 200000, .pool_pages = 4096,
     .closed_readers = 0, .scan_readers = 1, .point_rate = 40, .scan_rate = 12,
     .via_service = false, .max_concurrent = 0, .batch_rate = 250, .batch_rows = 64},
    {.name = "mixed_cold", .preload_rows = 200000, .pool_pages = 32,
     .closed_readers = 0, .scan_readers = 2, .point_rate = 60, .scan_rate = 16,
     .via_service = true, .max_concurrent = 2, .batch_rate = 50, .batch_rows = 64},
};

constexpr uint32_t kPartitions = 4;
constexpr size_t kWorkerThreads = 4;
constexpr int kSetups = 3;
constexpr Micros kMaintainEvery = 20 * instantdb::kMicrosPerMilli;
constexpr Micros kAuditEvery = 2 * instantdb::kMicrosPerSecond;
constexpr Micros kSampleEvery = 100 * instantdb::kMicrosPerMilli;
/// A client shed by the service front end retries after this, for at most
/// kShedGiveUp.
constexpr auto kShedBackoff = std::chrono::milliseconds(1);
constexpr int64_t kShedGiveUp = 1000000000;  // ns
/// Longest the pump sleeps before re-checking its stop flag.
constexpr Micros kPumpNap = 5 * instantdb::kMicrosPerMilli;

// --- statements --------------------------------------------------------------

enum Kind : int {
  kPointFine,
  kPointCountry,
  kCountAll,
  kCountReject,
  kSelectUser,
  kDrainCoarse,
  kNumKinds,
};

constexpr const char* kKindNames[kNumKinds] = {
    "point_fine", "point_country", "count_all",
    "count_reject", "select_user", "drain_coarse"};

constexpr const char* kKindSql[kNumKinds] = {
    "SELECT COUNT(*) FROM pings WHERE location = ?",
    "SELECT COUNT(*) FROM pings WHERE location = ?",
    "SELECT COUNT(*) FROM pings",
    "SELECT COUNT(*) FROM pings WHERE user = ?",
    "SELECT user, location FROM pings WHERE user = ?",
    "SELECT user, location FROM pings"};

bool IsPoint(Kind k) { return k == kPointFine || k == kPointCountry; }
bool IsAggregate(Kind k) { return k <= kCountReject; }

struct Statement {
  Kind kind = kCountAll;
  std::string param;  // bound to the one `?`, empty when none
  int level = 0;      // GT level of a point statement
  uint64_t expected = 0;

  std::string SqlText() const {
    std::string sql = kKindSql[kind];
    const size_t mark = sql.find('?');
    if (mark != std::string::npos) sql.replace(mark, 1, "'" + param + "'");
    return sql;
  }
};

Statement MakeStatement(Kind kind, std::mt19937_64& rng, const Dataset& data) {
  Statement st;
  st.kind = kind;
  switch (kind) {
    case kPointFine: {
      const int leaf = std::uniform_int_distribution<int>(0, kLeaves - 1)(rng);
      st.level = 0;
      st.param = LocationLabel(0, leaf);
      st.expected = data.ExpectedLocation(0, leaf);
      break;
    }
    case kPointCountry: {
      const int country = std::uniform_int_distribution<int>(0, kCountries - 1)(rng);
      st.level = kLevels - 1;
      st.param = LocationLabel(kLevels - 1, country);
      st.expected = data.ExpectedLocation(kLevels - 1, country);
      break;
    }
    case kCountAll:
    case kDrainCoarse:
      st.expected = data.ExpectedLive();
      break;
    case kCountReject:
      st.param = "nobody";
      st.expected = 0;
      break;
    case kSelectUser: {
      const uint32_t user =
          std::uniform_int_distribution<uint32_t>(0, data.users() - 1)(rng);
      st.param = UserLabel(user);
      st.expected = data.ExpectedUser(user);
      break;
    }
    case kNumKinds:
      break;
  }
  return st;
}

/// Draws from a fixed block of items, reshuffled (seeded) each time it is
/// used up, so every run issues the same mix in a random order.
template <typename T>
class Shuffled {
 public:
  Shuffled(std::vector<T> block, uint64_t seed) : block_(std::move(block)), rng_(seed) {}
  T Next() {
    if (next_ == block_.size()) {
      std::shuffle(block_.begin(), block_.end(), rng_);
      next_ = 0;
    }
    return block_[next_++];
  }

 private:
  std::vector<T> block_;
  std::mt19937_64 rng_;
  size_t next_ = block_.size();
};

/// Point statements: 9 in 10 at ADDRESS level, the rest at COUNTRY level,
/// so the point median falls well inside the ADDRESS-level distribution.
Shuffled<Kind> PointKinds(uint64_t seed) {
  std::vector<Kind> block(9, kPointFine);
  block.push_back(kPointCountry);
  return Shuffled<Kind>(std::move(block), seed);
}

/// Scans: COUNT(*) 65%, rejecting COUNT 15%, selective SELECT 15%,
/// materializing drain 5%. The two cheaper kinds stay below half, so the
/// scan median falls inside the COUNT(*) distribution, not on the edge
/// between two kinds.
Shuffled<Kind> ScanKinds(uint64_t seed) {
  std::vector<Kind> block;
  for (const auto& [kind, n] : {std::pair{kCountAll, 13}, std::pair{kCountReject, 3},
                                std::pair{kSelectUser, 3}, std::pair{kDrainCoarse, 1}}) {
    block.insert(block.end(), n, kind);
  }
  return Shuffled<Kind>(std::move(block), seed);
}

// --- process probes ----------------------------------------------------------

struct ProcStatus {
  double rss_mb = 0;
  double hwm_mb = 0;
  int threads = 0;
};

ProcStatus ReadProcStatus() {
  ProcStatus out;
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    double value = 0;
    fields >> key >> value;
    if (key == "VmRSS:") out.rss_mb = value / 1024.0;
    if (key == "VmHWM:") out.hwm_mb = value / 1024.0;
    if (key == "Threads:") out.threads = static_cast<int>(value);
  }
  return out;
}

/// Host CPU time split from /proc/stat's "cpu" line: busy (user + nice +
/// system + irq + softirq), iowait, steal and total jiffies.
struct CpuTimes {
  double busy = 0, iowait = 0, steal = 0, total = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  double f[8] = {};
  in >> cpu;
  for (double& v : f) in >> v;
  t.busy = f[0] + f[1] + f[2] + f[5] + f[6];
  t.iowait = f[4];
  t.steal = f[7];
  for (double v : f) t.total += v;
  return t;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

int64_t NowNs() { return SteadyNanos(); }

void SleepUntilNs(int64_t t) {
  const int64_t now = NowNs();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- clients -----------------------------------------------------------------

/// Per-thread outcome of a reader or writer client.
struct ClientLog {
  std::vector<double> latency_us[kNumKinds];
  std::vector<double> commit_us;
  std::vector<double> gen_late_us;
  std::vector<Commit> commits;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  /// Submissions the service front end shed (Status::Overloaded) and the
  /// client then retried.
  uint64_t shed = 0;
  uint64_t matched_rows = 0;  // rows qualifying (COUNT values + rows returned)
  uint64_t user_bytes = 0;    // written
  std::string first_problem;

  void Problem(const std::string& what) {
    if (first_problem.empty()) first_problem = what;
  }
};

/// One client's sessions: `fine` under an ADDRESS-level purpose (the
/// fine-grained point statement), `coarse` under a COUNTRY-level purpose
/// (everything else). Prepared statements are bound to those sessions.
struct Client {
  std::unique_ptr<Session> fine;
  std::unique_ptr<Session> coarse;
  std::unique_ptr<PreparedStatement> prepared[kNumKinds];
  Tracer::Buffer* trace = nullptr;
  ClientLog log;

  Session* SessionFor(Kind k) const { return k == kPointFine ? fine.get() : coarse.get(); }
};

/// The database, its clock, clients and their span buffers — everything one
/// set-up builds.
struct Fixture {
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<BenchClock> clock;
  std::unique_ptr<Database> db;
  std::unique_ptr<ServiceFrontEnd> service;
  std::vector<std::unique_ptr<Client>> readers;
  std::unique_ptr<Client> writer;
  Tracer::Buffer* pump_trace = nullptr;
  uint64_t disk_bytes = 0;
  /// Session::Prepare timings of the prepared-statement clients.
  std::vector<double> prepare_us;
  ~Fixture() {
    // The front end must detach (clear the pre-close hook) before the
    // database closes.
    service.reset();
    if (db != nullptr) db->Close();
  }
};

Status DeclarePurposes(Client* c) {
  auto a = c->fine->Execute(
      "DECLARE PURPOSE fine SET ACCURACY LEVEL ADDRESS FOR pings.location");
  if (!a.ok()) return a.status();
  auto b = c->coarse->Execute(
      "DECLARE PURPOSE coarse SET ACCURACY LEVEL COUNTRY FOR pings.location");
  return b.status();
}

/// Count value of an aggregate result row, or -1 when malformed.
int64_t CountOf(const std::vector<Value>& row) {
  if (row.empty() || row[0].type() != instantdb::ValueType::kInt64) return -1;
  return row[0].int64();
}

/// Runs a prepared statement through the streaming cursor: open, then pull
/// every batch. The drain kind materializes its rows, the others only read
/// them. Sets `*matched` to the COUNT value or the number of rows.
Status ExecutePrepared(Client* c, const Statement& st, uint64_t* matched) {
  PreparedStatement* ps = c->prepared[st.kind].get();
  if (!st.param.empty()) {
    Status bind = ps->Bind(0, Value::String(st.param));
    if (!bind.ok()) return bind;
  }
  std::unique_ptr<Cursor> cursor;
  {
    ScopedSpan span(c->trace, SpanName::kQueryOpen);
    auto opened = ps->ExecuteCursor();
    if (!opened.ok()) return opened.status();
    cursor = std::move(*opened);
  }
  std::vector<std::vector<Value>> drained;
  uint64_t rows = 0;
  int64_t count = -1;
  for (;;) {
    CursorBatch* batch = nullptr;
    instantdb::Result<bool> more = false;
    {
      ScopedSpan span(c->trace, SpanName::kQueryFetch);
      more = cursor->NextBatch(&batch);
    }
    if (!more.ok()) return more.status();
    if (!*more) break;
    rows += batch->size();
    if (IsAggregate(st.kind)) {
      count = CountOf(batch->values(0));
    } else if (st.kind == kDrainCoarse) {
      for (size_t i = 0; i < batch->size(); ++i) drained.push_back(batch->TakeValues(i));
    }
  }
  if (!IsAggregate(st.kind)) {
    *matched = rows;
    return Status::OK();
  }
  // The engine answers an ungrouped aggregate over no qualifying rows with
  // no row at all (asserted by its pushdown tests): that is a count of 0.
  if (rows == 0) count = 0;
  if (rows > 1 || count < 0) return Status::Corruption("malformed aggregate result");
  *matched = static_cast<uint64_t>(count);
  return Status::OK();
}

/// Runs `submit` (one ServiceFrontEnd::Run) and, as a client backing off
/// would, resubmits after kShedBackoff while the front end sheds it with
/// Status::Overloaded, for at most kShedGiveUp. Shed submissions are
/// counted; the operation's latency includes the back-off.
Status SubmitWithRetry(ClientLog* log, const std::function<Status()>& submit) {
  const int64_t give_up = NowNs() + kShedGiveUp;
  for (;;) {
    Status status = submit();
    if (!status.IsOverloaded() || NowNs() >= give_up) return status;
    ++log->shed;
    std::this_thread::sleep_for(kShedBackoff);
  }
}

/// Runs a statement as SQL text through the service front end (admission,
/// then parse + execute in Session::Execute) — what
/// ServiceFrontEnd::Execute does, with the inner call visible to the trace.
Status ExecuteSql(Client* c, ServiceFrontEnd* service, const Statement& st,
                  ServiceClass cls, uint64_t* matched) {
  const std::string sql = st.SqlText();
  auto execute = [&](Session* s) -> Status {
    ScopedSpan inner(c->trace, SpanName::kQueryExecute);
    auto result = s->Execute(sql);
    if (!result.ok()) return result.status();
    const auto& rows = result->rows;
    if (!IsAggregate(st.kind)) {
      *matched = rows.size();
      return Status::OK();
    }
    // Empty answer = count 0, as in ExecutePrepared.
    const int64_t count = rows.empty() ? 0 : rows.size() == 1 ? CountOf(rows[0]) : -1;
    if (count < 0) return Status::Corruption("malformed aggregate result");
    *matched = static_cast<uint64_t>(count);
    return Status::OK();
  };
  return SubmitWithRetry(&c->log, [&] {
    ScopedSpan span(c->trace, SpanName::kServiceRun);
    return service->Run(c->SessionFor(st.kind), cls, /*is_write=*/false, execute);
  });
}

struct RunState {
  const Spec* spec = nullptr;
  const Dataset* data = nullptr;
  Fixture* fx = nullptr;
  bool trace = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::atomic<uint64_t> next_request{1};
};

/// Executes one read statement, checks its answer and records its latency
/// measured from `due_ns` (the scheduled send time in an open loop, the
/// actual one in a closed loop).
void RunRead(RunState* rs, Client* c, const Statement& st, int64_t due_ns) {
  c->trace->BeginRequest(rs->next_request.fetch_add(1));
  ++c->log.attempted;
  uint64_t matched = 0;
  Status status;
  {
    ScopedSpan span(c->trace, SpanName::kReadRequest);
    status = rs->spec->via_service
                 ? ExecuteSql(c, rs->fx->service.get(), st,
                              IsPoint(st.kind) ? ServiceClass::kHigh : ServiceClass::kLow,
                              &matched)
                 : ExecutePrepared(c, st, &matched);
  }
  const int64_t done = NowNs();
  if (!status.ok()) {
    ++c->log.failed;
    c->log.Problem(std::string(kKindNames[st.kind]) + ": " + status.ToString());
    return;
  }
  c->log.latency_us[st.kind].push_back(static_cast<double>(done - due_ns) / 1e3);
  c->log.matched_rows += matched;
  if (matched != st.expected) {
    ++c->log.wrong;
    c->log.Problem(std::string(kKindNames[st.kind]) + " '" + st.param + "' returned " +
                   std::to_string(matched) + ", expected " + std::to_string(st.expected));
  }
  if (!rs->trace) return;
  // Traced runs only: the raw index probe the SQL point statement stands on
  // (same value, same level), and the parse cost hidden inside
  // Session::Execute on the SQL-text path.
  if (IsPoint(st.kind)) {
    const instantdb::Table* table = rs->fx->db->GetTable(kMainTable);
    std::vector<instantdb::RowId> ids;
    ScopedSpan span(c->trace, SpanName::kIndexLookup);
    table->IndexLookupEqual(1, Value::String(st.param), st.level, &ids).ok();
  }
  if (rs->spec->via_service) {
    ScopedSpan span(c->trace, SpanName::kQueryPrepare);
    c->SessionFor(st.kind)->Prepare(st.SqlText()).ok();
  }
}

/// Closed-loop reader: the next statement as soon as the last one
/// returned; 3 in 5 are point statements.
void ClosedReader(RunState* rs, Client* c, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Shuffled<bool> point_or_scan({true, true, true, false, false}, seed + 1);
  Shuffled<Kind> points = PointKinds(seed + 2);
  Shuffled<Kind> scans = ScanKinds(seed + 3);
  while (NowNs() < rs->end_ns) {
    const Kind kind = point_or_scan.Next() ? points.Next() : scans.Next();
    RunRead(rs, c, MakeStatement(kind, rng, *rs->data), NowNs());
  }
}

/// Open-loop send schedule: `rate` × run-length sends at seeded uniform
/// random instants — a Poisson process conditioned on its count, so every
/// run offers exactly the same load. Random gaps keep sends from
/// phase-locking with the LCP deadlines, which fall whole seconds after
/// earlier sends.
class Arrivals {
 public:
  Arrivals(const RunState& rs, double rate, uint64_t seed) {
    const double span = static_cast<double>(rs.end_ns - rs.start_ns);
    const auto n = static_cast<size_t>(std::llround(rate * span / 1e9));
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> at(0, span);
    for (size_t i = 0; i < n; ++i) times_.push_back(rs.start_ns + static_cast<int64_t>(at(rng)));
    std::sort(times_.begin(), times_.end());
  }
  bool Done() const { return next_ == times_.size(); }
  /// The next send time (steady ns).
  int64_t Next() { return times_[next_++]; }

 private:
  std::vector<int64_t> times_;
  size_t next_ = 0;
};

/// Open-loop reader of point (or scan) statements, sent on a Poisson
/// schedule of `rate` per second whatever the previous one cost.
void OpenReader(RunState* rs, Client* c, bool points, double rate, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Arrivals arrivals(*rs, rate, seed + 1);
  Shuffled<Kind> kinds = points ? PointKinds(seed + 2) : ScanKinds(seed + 2);
  while (!arrivals.Done()) {
    const int64_t due = arrivals.Next();
    SleepUntilNs(due);
    c->log.gen_late_us.push_back(static_cast<double>(NowNs() - due) / 1e3);
    RunRead(rs, c, MakeStatement(kinds.Next(), rng, *rs->data), due);
  }
}

/// Open-loop writer: WriteBatches of `batch_rows` stream rows on a Poisson
/// schedule of `batch_rate` per second. Commit latency is timed from the
/// scheduled send. The database clock read just before Database::Write
/// (after any admission wait) goes into the lateness log.
void Writer(RunState* rs, Client* c, uint64_t seed) {
  const Spec& spec = *rs->spec;
  Database* db = rs->fx->db.get();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<uint32_t> user_dist(0, rs->data->users() - 1);
  std::uniform_int_distribution<int> leaf_dist(0, kLeaves - 1);
  Arrivals arrivals(*rs, spec.batch_rate, seed + 1);
  while (!arrivals.Done()) {
    const int64_t due = arrivals.Next();
    SleepUntilNs(due);
    c->log.gen_late_us.push_back(static_cast<double>(NowNs() - due) / 1e3);
    WriteBatch batch;
    uint64_t bytes = 0;
    for (uint32_t r = 0; r < spec.batch_rows; ++r) {
      std::string user = UserLabel(user_dist(rng));
      std::string location = LocationLabel(0, leaf_dist(rng));
      bytes += user.size() + location.size();
      batch.Insert(kStreamTable, {Value::String(std::move(user)), Value::String(std::move(location))});
    }
    c->trace->BeginRequest(rs->next_request.fetch_add(1));
    ++c->log.attempted;
    Status status;
    Micros write_time = 0;
    {
      ScopedSpan span(c->trace, SpanName::kWriteRequest);
      auto write = [&]() {
        ScopedSpan inner(c->trace, SpanName::kDbWrite);
        write_time = db->clock()->NowMicros();
        return db->Write(&batch);
      };
      if (spec.via_service) {
        status = SubmitWithRetry(&c->log, [&] {
          ScopedSpan service_span(c->trace, SpanName::kServiceRun);
          return rs->fx->service->Run(c->coarse.get(), ServiceClass::kNormal,
                                      /*is_write=*/true, [&](Session*) { return write(); });
        });
      } else {
        status = write();
      }
    }
    const int64_t done = NowNs();
    if (!status.ok()) {
      ++c->log.failed;
      c->log.Problem("write batch: " + status.ToString());
      continue;
    }
    c->log.commits.push_back({write_time});
    c->log.commit_us.push_back(static_cast<double>(done - due) / 1e3);
    c->log.user_bytes += bytes;
  }
}

/// What the pump thread saw.
struct PumpLog {
  std::vector<Pass> passes;
  std::vector<double> audit_us;
  /// MaintenanceDaemon::RunOnce calls that ran a cadence checkpoint.
  std::vector<double> checkpoint_us;
  uint64_t audits = 0;
  uint64_t audit_rows = 0;
  uint64_t audit_exposed = 0;
  std::vector<std::pair<double, double>> rss;  // (seconds since start, MB)
  int threads_peak = 0;
  uint64_t failed = 0;
  std::string first_problem;
};

/// Degrade/maintain pump, deadline driven like the engine's own background
/// degrader: Database::RunDegradationOnce back to back while work is due,
/// else a sleep until DegradationEngine::NextDeadline. Between passes it
/// calls MaintenanceDaemon::RunOnce every kMaintainEvery, runs a deletion
/// audit every kAuditEvery whose grace is one pump pass (the time since the
/// last pass started), and samples the process.
/// The periodic audits sweep the live stream table (plus, as every audit
/// does, the WAL segments and epoch keys): nothing preloaded falls due
/// during a run, and sweeping it would stall the pump for a full scan. The
/// closing audit sweeps every table.
void Pump(RunState* rs, Tracer::Buffer* trace, std::atomic<bool>* stop, PumpLog* log) {
  Database* db = rs->fx->db.get();
  instantdb::Clock* clock = db->clock();
  instantdb::DeletionAuditor auditor(db->wal(), kWorkerThreads, db->worker_pool());
  const std::vector<instantdb::Table*> live = {db->GetTable(kStreamTable)};
  Micros next_maintain = clock->NowMicros();
  Micros next_audit = next_maintain + kAuditEvery;
  Micros next_sample = next_maintain;
  auto problem = [&](const std::string& what) {
    ++log->failed;
    if (log->first_problem.empty()) log->first_problem = what;
  };
  while (!stop->load(std::memory_order_acquire)) {
    const Micros wake = std::min({db->degradation()->NextDeadline(), next_maintain,
                                  next_audit, next_sample});
    const Micros idle = wake - clock->NowMicros();
    if (idle > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(std::min(idle, kPumpNap)));
      continue;
    }
    Pass pass;
    const int64_t start_ns = NowNs();
    pass.start = clock->NowMicros();
    auto moved = db->RunDegradationOnce();
    pass.end = clock->NowMicros();
    if (moved.ok()) {
      pass.moved = *moved;
    } else {
      problem("degradation pass: " + moved.status().ToString());
    }
    log->passes.push_back(pass);
    if (pass.moved > 0) trace->Add(SpanName::kDegradePass, start_ns, NowNs());
    const Micros now = pass.end;
    if (now >= next_maintain) {
      const uint64_t checkpoints = db->maintenance()->stats().checkpoints;
      const int64_t t0 = NowNs();
      Status s;
      {
        ScopedSpan span(trace, SpanName::kMaintainRunOnce);
        s = db->maintenance()->RunOnce(now);
      }
      if (db->maintenance()->stats().checkpoints != checkpoints) {
        log->checkpoint_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      }
      if (!s.ok()) problem("maintenance: " + s.ToString());
      next_maintain = now + kMaintainEvery;
    }
    if (now >= next_audit) {
      const int64_t t0 = NowNs();
      instantdb::AuditReport report;
      {
        ScopedSpan span(trace, SpanName::kMaintainAudit);
        const Micros at = clock->NowMicros();
        report = auditor.Run(live, at, at - pass.start);
      }
      log->audit_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      ++log->audits;
      log->audit_rows += report.rows_scanned;
      log->audit_exposed += report.total_exposed();
      next_audit = clock->NowMicros() + kAuditEvery;
    }
    if (now >= next_sample) {
      const ProcStatus ps = ReadProcStatus();
      log->rss.emplace_back(static_cast<double>(NowNs() - rs->start_ns) / 1e9, ps.rss_mb);
      log->threads_peak = std::max(log->threads_peak, ps.threads);
      next_sample = now + kSampleEvery;
    }
  }
}

// --- set-up ------------------------------------------------------------------

std::unique_ptr<Client> NewClient(Fixture* fx, bool prepare, std::string* error) {
  auto c = std::make_unique<Client>();
  c->fine = std::make_unique<Session>(fx->db.get());
  c->coarse = std::make_unique<Session>(fx->db.get());
  c->trace = fx->tracer->NewBuffer();
  Status s = DeclarePurposes(c.get());
  if (!s.ok()) {
    *error = "declare purpose: " + s.ToString();
    return nullptr;
  }
  if (!prepare) return c;
  for (int k = 0; k < kNumKinds; ++k) {
    const int64_t t0 = NowNs();
    auto ps = c->SessionFor(static_cast<Kind>(k))->Prepare(kKindSql[k]);
    fx->prepare_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!ps.ok()) {
      *error = std::string("prepare ") + kKindNames[k] + ": " + ps.status().ToString();
      return nullptr;
    }
    c->prepared[k] = std::move(*ps);
  }
  return c;
}

/// Opens a fresh database, preloads the dataset wave by wave on the virtual
/// clock, drains the degradation the preload left due, checkpoints, and
/// warms every reader up with one statement of each kind (starting the
/// worker pool and paying first-statement costs before timing).
std::unique_ptr<Fixture> SetUp(const Spec& spec, const Dataset& data,
                               const std::string& dir, bool trace, uint64_t seed,
                               std::string* error) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  auto fx = std::make_unique<Fixture>();
  fx->tracer = std::make_unique<Tracer>(trace);
  fx->clock = std::make_unique<BenchClock>(0);
  DbOptions options;
  options.path = dir;
  options.partitions = kPartitions;
  options.degradation.worker_threads = kWorkerThreads;
  options.storage.buffer_pool_pages = spec.pool_pages;
  options.clock = fx->clock.get();
  auto db = Database::Open(options);
  if (!db.ok()) {
    *error = "open: " + db.status().ToString();
    return nullptr;
  }
  fx->db = std::move(*db);
  auto domain = LocationTree();
  for (const auto& [name, schema] :
       {std::pair{kMainTable, MainSchema(domain)}, std::pair{kStreamTable, StreamSchema(domain)}}) {
    auto created = fx->db->CreateTable(name, schema);
    if (!created.ok()) {
      *error = std::string("create ") + name + ": " + created.status().ToString();
      return nullptr;
    }
  }
  const Micros end_of_setup = data.max_age() + instantdb::kMicrosPerSecond;
  Micros now = 0;
  for (const Dataset::Wave& wave : data.waves()) {
    fx->clock->Advance(end_of_setup - wave.age - now);
    now = end_of_setup - wave.age;
    WriteBatch batch;
    for (size_t i = 0; i < wave.users.size(); ++i) {
      batch.Insert(kMainTable, {Value::String(UserLabel(wave.users[i])),
                                Value::String(LocationLabel(0, wave.leaves[i]))});
    }
    Status s = fx->db->Write(&batch);
    if (!s.ok()) {
      *error = "preload: " + s.ToString();
      return nullptr;
    }
  }
  fx->clock->Advance(end_of_setup - now);
  for (;;) {
    auto moved = fx->db->RunDegradationOnce();
    if (!moved.ok()) {
      *error = "preload degradation: " + moved.status().ToString();
      return nullptr;
    }
    if (*moved == 0) break;
  }
  Status s = fx->db->Checkpoint();
  if (!s.ok()) {
    *error = "checkpoint: " + s.ToString();
    return nullptr;
  }
  fx->disk_bytes = DirectoryBytes(dir);
  if (spec.via_service) {
    instantdb::ServiceOptions service;
    service.max_concurrent = spec.max_concurrent;
    fx->service = std::make_unique<ServiceFrontEnd>(fx->db.get(), service);
  }

  const int readers = spec.closed_readers > 0 ? spec.closed_readers : 1 + spec.scan_readers;
  for (int r = 0; r < readers; ++r) {
    auto c = NewClient(fx.get(), !spec.via_service, error);
    if (c == nullptr) return nullptr;
    fx->readers.push_back(std::move(c));
  }
  fx->writer = NewClient(fx.get(), false, error);
  if (fx->writer == nullptr) return nullptr;
  fx->pump_trace = fx->tracer->NewBuffer();

  // Warm-up: every reader runs each statement kind once, answers checked.
  RunState warm;
  warm.spec = &spec;
  warm.data = &data;
  warm.fx = fx.get();
  std::mt19937_64 rng(seed ^ 0x5eedULL);
  for (auto& c : fx->readers) {
    for (int k = 0; k < kNumKinds; ++k) {
      RunRead(&warm, c.get(), MakeStatement(static_cast<Kind>(k), rng, data), NowNs());
    }
    if (c->log.failed + c->log.wrong > 0) {
      *error = "warm-up: " + c->log.first_problem;
      return nullptr;
    }
    c->log = ClientLog();
  }
  fx->tracer->Clear();
  return fx;
}

// --- metrics -----------------------------------------------------------------

struct PoolTotals {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

PoolTotals HeapPools(const Database& db) {
  PoolTotals t;
  for (const char* name : {kMainTable, kStreamTable}) {
    const instantdb::Table* table = db.GetTable(name);
    for (uint32_t p = 0; p < table->num_partitions(); ++p) {
      const auto s = table->partition(p)->heap_pool()->stats();
      t.hits += s.hits;
      t.misses += s.misses;
      t.evictions += s.evictions;
    }
  }
  return t;
}

/// Least-squares slope of (seconds, MB) samples, in MB per minute.
double SlopePerMinute(const std::vector<std::pair<double, double>>& xy) {
  if (xy.size() < 2) return 0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [x, y] : xy) {
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double n = static_cast<double>(xy.size());
  const double den = n * sxx - sx * sx;
  return den > 0 ? 60.0 * (n * sxy - sx * sy) / den : 0;
}

double Median(std::vector<double> v) { return v.empty() ? 0 : Summarize(std::move(v)).p50; }

/// Per-layer figures derived from the spans of a traced run.
struct TraceFigures {
  std::vector<double> admit_wait_us;
  std::vector<double> prepare_us;
  std::vector<double> open_us;
  std::vector<double> fetch_us;  // Σ NextBatch per statement
  std::vector<double> execute_us;
  std::vector<double> lookup_us;
  std::vector<double> overhead_x;  // point statement span / its index probe
  std::vector<double> write_us;
  std::vector<double> run_once_us;
  std::map<std::string, double> self_ms;  // by module
  uint64_t spans = 0;
};

TraceFigures AnalyzeTrace(const Tracer& tracer) {
  TraceFigures f;
  for (const Tracer::Buffer* buffer : tracer.buffers()) {
    const std::vector<SpanRecord>& spans = buffer->spans();
    const std::vector<int64_t> self = SelfTimes(spans);
    std::map<uint64_t, double> fetch_by_request;
    std::map<uint64_t, double> point_by_request;
    std::map<uint64_t, double> lookup_by_request;
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      f.self_ms[SpanModule(s.name)] += static_cast<double>(self[i]) / 1e6;
      ++f.spans;
      switch (s.name) {
        case SpanName::kServiceRun:
          f.admit_wait_us.push_back(static_cast<double>(self[i]) / 1e3);
          break;
        case SpanName::kQueryPrepare:
          f.prepare_us.push_back(us);
          break;
        case SpanName::kQueryOpen:
          f.open_us.push_back(us);
          break;
        case SpanName::kQueryFetch:
          fetch_by_request[s.request] += us;
          break;
        case SpanName::kQueryExecute:
          f.execute_us.push_back(us);
          break;
        case SpanName::kIndexLookup:
          f.lookup_us.push_back(us);
          lookup_by_request[s.request] = us;
          break;
        case SpanName::kReadRequest:
          point_by_request[s.request] = us;
          break;
        case SpanName::kDbWrite:
          f.write_us.push_back(us);
          break;
        case SpanName::kMaintainRunOnce:
          f.run_once_us.push_back(us);
          break;
        default:
          break;
      }
    }
    for (const auto& [request, us] : fetch_by_request) f.fetch_us.push_back(us);
    for (const auto& [request, lookup] : lookup_by_request) {
      auto it = point_by_request.find(request);
      if (it != point_by_request.end() && lookup > 0) f.overhead_x.push_back(it->second / lookup);
    }
  }
  return f;
}

}  // namespace

RunResult RunWorkload(const RunConfig& config) {
  RunResult result;
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (config.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    result.correct = false;
    result.errors.push_back("unknown workload: " + config.workload);
    return result;
  }
  const Dataset data(spec->preload_rows, config.seed);
  const std::string dir = config.data_dir + "/" + spec->name;

  // Set-up, several times; the median is setup_s and the last one runs.
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fx;
  for (int i = 0; i < kSetups; ++i) {
    fx.reset();
    std::string error;
    const int64_t t0 = NowNs();
    fx = SetUp(*spec, data, dir, config.trace, config.seed, &error);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (fx == nullptr) {
      result.correct = false;
      result.errors.push_back("set-up: " + error);
      return result;
    }
  }
  Database* db = fx->db.get();

  // --- run ---
  RunState rs;
  rs.spec = spec;
  rs.data = &data;
  rs.fx = fx.get();
  rs.trace = config.trace;
  fx->clock->Start();
  const CpuTimes cpu_before = ReadCpuTimes();
  const Database::Stats before = db->stats();
  const PoolTotals pools_before = HeapPools(*db);
  rs.start_ns = NowNs();
  rs.end_ns = rs.start_ns + static_cast<int64_t>(config.seconds) * 1000000000LL;
  std::atomic<bool> stop_pump{false};
  PumpLog pump_log;
  std::thread pump([&] { Pump(&rs, fx->pump_trace, &stop_pump, &pump_log); });
  std::vector<std::thread> clients;
  clients.emplace_back([&] { Writer(&rs, fx->writer.get(), config.seed * 31 + 7); });
  for (size_t r = 0; r < fx->readers.size(); ++r) {
    Client* c = fx->readers[r].get();
    const uint64_t seed = config.seed * 1000003 + r;
    if (spec->closed_readers > 0) {
      clients.emplace_back([&rs, c, seed] { ClosedReader(&rs, c, seed); });
    } else {
      const bool points = r == 0;
      const double rate = points ? spec->point_rate : spec->scan_rate / spec->scan_readers;
      clients.emplace_back(
          [&rs, c, points, rate, seed] { OpenReader(&rs, c, points, rate, seed); });
    }
  }
  for (auto& t : clients) t.join();
  const int64_t clients_done = NowNs();
  const CpuTimes cpu_after = ReadCpuTimes();
  stop_pump.store(true, std::memory_order_release);
  pump.join();

  // Closing pass, checkpoint and audit: everything due when the final pass
  // started must be degraded, in every store, index, WAL segment and key.
  Pass final_pass;
  final_pass.start = db->clock()->NowMicros();
  auto moved = db->RunDegradationOnce();
  final_pass.end = db->clock()->NowMicros();
  final_pass.moved = moved.ok() ? *moved : 0;
  Status checkpoint = db->Checkpoint();
  instantdb::DeletionAuditor auditor(db->wal(), kWorkerThreads, db->worker_pool());
  const Micros audit_at = db->clock()->NowMicros();
  const instantdb::AuditReport closing =
      db->RunAuditSweep(auditor, audit_at, audit_at - final_pass.start);
  if (!moved.ok() || !checkpoint.ok()) {
    result.correct = false;
    result.errors.push_back("closing pass/checkpoint failed");
  }
  if (!closing.clean()) {
    result.correct = false;
    result.errors.push_back("closing audit not clean: " + closing.ToString());
  }
  const Database::Stats after = db->stats();
  const PoolTotals pools_after = HeapPools(*db);
  const ProcStatus proc = ReadProcStatus();

  // --- gather ---
  ClientLog reads;
  for (auto& c : fx->readers) {
    for (int k = 0; k < kNumKinds; ++k) {
      auto& v = reads.latency_us[k];
      v.insert(v.end(), c->log.latency_us[k].begin(), c->log.latency_us[k].end());
    }
    reads.gen_late_us.insert(reads.gen_late_us.end(), c->log.gen_late_us.begin(),
                             c->log.gen_late_us.end());
    reads.attempted += c->log.attempted;
    reads.failed += c->log.failed;
    reads.wrong += c->log.wrong;
    reads.matched_rows += c->log.matched_rows;
    reads.shed += c->log.shed;
    if (!c->log.first_problem.empty()) reads.Problem(c->log.first_problem);
  }
  const ClientLog& writes = fx->writer->log;
  std::vector<double> point_us, scan_us;
  uint64_t statements = 0;
  for (int k = 0; k < kNumKinds; ++k) {
    auto& dst = IsPoint(static_cast<Kind>(k)) ? point_us : scan_us;
    dst.insert(dst.end(), reads.latency_us[k].begin(), reads.latency_us[k].end());
    statements += reads.latency_us[k].size();
  }
  std::vector<Pass> passes = pump_log.passes;
  passes.push_back(final_pass);
  const std::vector<double> lateness_us =
      LatenessSamples(writes.commits, StreamDeadlines(), passes);
  // Degrader speed over the passes that found due work (the empty ones are
  // the pump polling).
  uint64_t moved_total = 0;
  double pass_seconds = 0;
  std::vector<double> pass_us;
  for (const Pass& p : pump_log.passes) {
    if (p.moved == 0) continue;
    moved_total += p.moved;
    pass_seconds += static_cast<double>(p.end - p.start) / 1e6;
    pass_us.push_back(static_cast<double>(p.end - p.start));
  }
  const double run_s = static_cast<double>(clients_done - rs.start_ns) / 1e9;

  result.attempted = reads.attempted + writes.attempted;
  result.failed = reads.failed + writes.failed + pump_log.failed;
  if (reads.wrong > 0) {
    result.correct = false;
    result.errors.push_back(std::to_string(reads.wrong) + " wrong answers, first: " +
                            reads.first_problem);
  }
  if (result.failed > 0) {
    result.errors.push_back(std::to_string(result.failed) + " failed operations, first: " +
                            (!reads.first_problem.empty()   ? reads.first_problem
                             : !writes.first_problem.empty() ? writes.first_problem
                                                             : pump_log.first_problem));
  }
  const auto& svc = after.service;
  if (spec->via_service &&
      svc.admitted + svc.rejected_overload + svc.rejected_shutdown + svc.rejected_deadline !=
          svc.submitted) {
    result.correct = false;
    result.errors.push_back("service accounting: admitted + rejected != submitted");
  }
  if (point_us.empty() || scan_us.empty() || writes.commits.empty() || lateness_us.empty()) {
    result.correct = false;
    result.errors.push_back("a metric has no samples");
  }

  const Distribution point = Summarize(point_us);
  const Distribution scan = Summarize(scan_us);
  const Distribution commit = Summarize(writes.commit_us);
  const Distribution late = Summarize(lateness_us);
  auto e2e = [&](const char* name, double value, const char* unit) {
    result.end_to_end.push_back({name, value, unit});
  };
  e2e("setup_s", Median(setup_s), "s");
  e2e("peak_rss_mb", proc.hwm_mb, "MB");
  e2e("read_point_p50_us", point.p50, "us");
  e2e("read_scan_p50_us", scan.p50, "us");
  e2e("read_stmts_per_s", static_cast<double>(statements) / run_s, "1/s");
  e2e("commit_p50_us", commit.p50, "us");
  e2e("degrade_lateness_p50_ms", late.p50 / 1e3, "ms");
  e2e("degrade_values_per_s", Ratio(static_cast<double>(moved_total), pass_seconds), "1/s");

  // --- per layer ---
  const TraceFigures tf = config.trace ? AnalyzeTrace(*fx->tracer) : TraceFigures();
  const auto& sb = before.scan;
  const auto& sa = after.scan;
  auto layer = [&](const std::string& name, double value, const char* unit) {
    result.per_layer.push_back({name, value, unit});
  };
  std::vector<double> gen_late = reads.gen_late_us;
  gen_late.insert(gen_late.end(), writes.gen_late_us.begin(), writes.gen_late_us.end());
  const Distribution admit = Summarize(tf.admit_wait_us);
  const uint64_t rejected = svc.rejected_overload + svc.rejected_shutdown + svc.rejected_deadline;
  // Failed, shed (Overloaded) or timed out, over attempted. No statement
  // carries a deadline, so there are no timeouts.
  // The user-visible tails: their run-to-run spread on a shared 4-vCPU box
  // is wider than any bound an end-to-end metric may have, so they are
  // reported here (see README).
  layer("read_point_tail_us", point.tail, "us");
  layer("read_scan_tail_us", scan.tail, "us");
  layer("commit_tail_us", commit.tail, "us");
  layer("degrade_lateness_tail_ms", late.tail / 1e3, "ms");
  layer("ops_failed_frac",
        Ratio(static_cast<double>(result.failed + reads.shed + writes.shed),
              static_cast<double>(result.attempted)), "frac");
  layer("service.admit_wait_p50_us", admit.p50, "us");
  layer("service.admit_wait_tail_us", admit.tail, "us");
  layer("service.rejected_frac", Ratio(static_cast<double>(rejected), static_cast<double>(svc.submitted)), "frac");
  layer("service.max_queue_depth", static_cast<double>(svc.max_queue_depth), "count");
  std::vector<double> prepare_us = fx->prepare_us;
  prepare_us.insert(prepare_us.end(), tf.prepare_us.begin(), tf.prepare_us.end());
  layer("query.prepare_us", Median(prepare_us), "us");
  layer("query.open_us", Median(tf.open_us), "us");
  layer("query.fetch_us", Median(tf.fetch_us), "us");
  layer("query.execute_us", Median(tf.execute_us), "us");
  for (int k = 0; k < kNumKinds; ++k) {
    layer(std::string("query.kind.") + kKindNames[k] + "_us", Median(reads.latency_us[k]), "us");
  }
  layer("query.rows_examined_per_returned",
        Ratio(static_cast<double>(sa.rows - sb.rows), static_cast<double>(reads.matched_rows)), "ratio");
  layer("query.rows_prefiltered_frac",
        Ratio(static_cast<double>(sa.rows_prefiltered - sb.rows_prefiltered),
              static_cast<double>(sa.rows - sb.rows)), "frac");
  const double probes = static_cast<double>((sa.store_probes_issued - sb.store_probes_issued) +
                                            (sa.store_probes_skipped - sb.store_probes_skipped));
  layer("query.store_probes_skipped_frac",
        Ratio(static_cast<double>(sa.store_probes_skipped - sb.store_probes_skipped), probes), "frac");
  const double claimed = static_cast<double>(sa.morsels_claimed - sb.morsels_claimed);
  layer("morsel.claimed", claimed, "count");
  layer("morsel.stolen_frac", Ratio(static_cast<double>(sa.morsels_stolen - sb.morsels_stolen), claimed), "frac");
  layer("morsel.steal_failures", static_cast<double>(sa.steal_failures - sb.steal_failures), "count");
  layer("cursor.prefetch_stalls", static_cast<double>(sa.prefetch_stalls - sb.prefetch_stalls), "count");
  layer("proc.threads_peak", static_cast<double>(pump_log.threads_peak), "count");
  layer("index.lookup_us", Median(tf.lookup_us), "us");
  layer("query.index_overhead_x", Median(tf.overhead_x), "ratio");
  const double pool_hits = static_cast<double>(pools_after.hits - pools_before.hits);
  const double pool_misses = static_cast<double>(pools_after.misses - pools_before.misses);
  layer("storage.heap_hit_rate", Ratio(pool_hits, pool_hits + pool_misses), "frac");
  layer("storage.heap_evictions_per_stmt",
        Ratio(static_cast<double>(pools_after.evictions - pools_before.evictions),
              static_cast<double>(statements)), "ratio");
  layer("storage.disk_bytes_per_user_byte",
        Ratio(static_cast<double>(fx->disk_bytes), static_cast<double>(data.user_bytes())), "ratio");
  layer("db.write_us", Median(tf.write_us), "us");
  layer("gen.late_us", Summarize(gen_late).tail, "us");
  layer("txn.abort_frac",
        Ratio(static_cast<double>(after.txn.aborted - before.txn.aborted),
              static_cast<double>(after.txn.started - before.txn.started)), "frac");
  const auto& db_ = before.degradation;
  const auto& da = after.degradation;
  layer("degrade.lock_abort_frac",
        Ratio(static_cast<double>(da.lock_aborts - db_.lock_aborts),
              static_cast<double>(da.steps - db_.steps)), "frac");
  const uint64_t user_bytes_written = writes.user_bytes;
  layer("wal.bytes_per_user_byte",
        Ratio(static_cast<double>(after.wal.bytes_appended - before.wal.bytes_appended),
              static_cast<double>(user_bytes_written)), "ratio");
  layer("wal.segments_retired", static_cast<double>(after.wal.segments_retired - before.wal.segments_retired), "count");
  layer("wal.scrub_bytes", static_cast<double>(after.wal.scrub_bytes - before.wal.scrub_bytes), "B");
  layer("io.writes_per_commit",
        Ratio(static_cast<double>(after.io.writes - before.io.writes),
              static_cast<double>(writes.commits.size())), "ratio");
  layer("io.syncs", static_cast<double>(after.io.syncs - before.io.syncs), "count");
  const Distribution pass = Summarize(pass_us);
  layer("degrade.pass_p50_us", pass.p50, "us");
  layer("degrade.pass_tail_us", pass.tail, "us");
  layer("degrade.values_per_pass", Ratio(static_cast<double>(moved_total), static_cast<double>(pass_us.size())), "count");
  layer("degrade.passes", static_cast<double>(pump_log.passes.size()), "count");
  layer("degrade.busy_frac", Ratio(pass_seconds, run_s), "frac");
  layer("degrade.reserved_dispatches",
        static_cast<double>(after.service.degradation_reserved_dispatches -
                            before.service.degradation_reserved_dispatches), "count");
  layer("maintain.cadence_us", Median(tf.run_once_us), "us");
  layer("maintain.checkpoint_us", Median(pump_log.checkpoint_us), "us");
  layer("maintain.checkpoints", static_cast<double>(pump_log.checkpoint_us.size()), "count");
  layer("maintain.checkpoint_partitions_flushed",
        static_cast<double>(after.checkpoint_partitions_flushed - before.checkpoint_partitions_flushed), "count");
  layer("maintain.checkpoint_partitions_clean",
        static_cast<double>(after.checkpoint_partitions_clean - before.checkpoint_partitions_clean), "count");
  double audit_seconds = 0;
  for (double us : pump_log.audit_us) audit_seconds += us / 1e6;
  layer("maintain.audit_us", Median(pump_log.audit_us), "us");
  layer("maintain.audit_rows_per_s", Ratio(static_cast<double>(pump_log.audit_rows), audit_seconds), "1/s");
  layer("maintain.audit_exposed", static_cast<double>(pump_log.audit_exposed), "count");
  layer("proc.rss_growth_mb_per_min", SlopePerMinute(pump_log.rss), "MB/min");
  for (const char* module : {"bench", "service", "query", "index", "db", "degrade", "maintain"}) {
    auto it = tf.self_ms.find(module);
    layer(std::string("self.") + module + "_ms_per_s",
          (it == tf.self_ms.end() ? 0.0 : it->second) / run_s, "ms/s");
  }
  layer("trace.spans", static_cast<double>(tf.spans), "count");

  // --- run description and diagnostics, recorded on every run ---
  auto info = [&](const std::string& key, const std::string& json) {
    result.info.emplace_back(key, json);
  };
  info("workload", JsonString(spec->name));
  info("seed", std::to_string(config.seed));
  info("seconds", std::to_string(config.seconds));
  info("trace", config.trace ? "true" : "false");
  info("flush_policy",
       JsonString("engine default: WriteOptions::sync=false, WalOptions::sync_on_commit=false, WAL kScrub"));
  info("preload_rows", std::to_string(spec->preload_rows));
  info("buffer_pool_pages", std::to_string(spec->pool_pages));
  info("partitions", std::to_string(kPartitions));
  info("worker_threads", std::to_string(kWorkerThreads));
  info("read_loop", JsonString(spec->closed_readers > 0
                                   ? std::to_string(spec->closed_readers) + " closed-loop sessions"
                                   : "open loop: 1 point reader, " +
                                         std::to_string(spec->scan_readers) + " scan readers"));
  info("offered_point_per_s", JsonNumber(spec->point_rate));
  info("offered_scan_per_s", JsonNumber(spec->scan_rate));
  info("offered_rows_per_s", JsonNumber(spec->batch_rate * spec->batch_rows));
  if (spec->via_service) info("service_max_concurrent", std::to_string(spec->max_concurrent));
  info("batch_rows", std::to_string(spec->batch_rows));
  info("statements", std::to_string(statements));
  info("commits", std::to_string(writes.commits.size()));
  info("stream_rows_written", std::to_string(writes.commits.size() * spec->batch_rows));
  info("lateness_samples", std::to_string(late.count));
  info("read_point_tail_pct", JsonNumber(point.tail_pct));
  info("read_point_samples", std::to_string(point.count));
  info("read_scan_tail_pct", JsonNumber(scan.tail_pct));
  info("read_scan_samples", std::to_string(scan.count));
  info("commit_tail_pct", JsonNumber(commit.tail_pct));
  info("degrade_lateness_tail_pct", JsonNumber(late.tail_pct));
  info("setup_runs_s", "[" + JsonNumber(setup_s[0]) + ", " + JsonNumber(setup_s[1]) + ", " +
                           JsonNumber(setup_s[2]) + "]");
  // Machine state during the run: a run slowed by a busy host or disk is
  // told apart by these, and by its steal count.
  const double cpu_total = cpu_after.total - cpu_before.total;
  info("host_cpu_busy_frac", JsonNumber(Ratio(cpu_after.busy - cpu_before.busy, cpu_total)));
  info("host_cpu_iowait_frac", JsonNumber(Ratio(cpu_after.iowait - cpu_before.iowait, cpu_total)));
  info("host_cpu_steal_frac", JsonNumber(Ratio(cpu_after.steal - cpu_before.steal, cpu_total)));
  info("morsels_claimed", std::to_string(sa.morsels_claimed - sb.morsels_claimed));
  info("morsels_stolen", std::to_string(sa.morsels_stolen - sb.morsels_stolen));
  info("audits", std::to_string(pump_log.audits));
  info("closing_audit_exposed", std::to_string(closing.total_exposed()));
  info("service_submitted", std::to_string(svc.submitted));
  info("service_rejected", std::to_string(rejected));

  if (config.trace && !config.trace_path.empty() && !fx->tracer->WriteCsv(config.trace_path)) {
    result.errors.push_back("could not write " + config.trace_path);
  }
  fx.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return result;
}

}  // namespace perfbench
