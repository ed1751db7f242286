#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Spans the benchmark records, each around one call into an engine module's
/// public function (or, for the request roots, around one whole statement or
/// batch as the client sees it).
enum class SpanName : uint16_t {
  kReadRequest,     // one read statement, scheduled send to last row
  kWriteRequest,    // one write batch, scheduled send to commit
  kServiceRun,      // ServiceFrontEnd::Run
  kQueryPrepare,    // Session::Prepare
  kQueryOpen,       // PreparedStatement::ExecuteCursor
  kQueryFetch,      // Cursor::NextBatch
  kQueryExecute,    // Session::Execute (parse + plan + drain)
  kIndexLookup,     // Table::IndexLookupEqual (shadow call, traced runs only)
  kDbWrite,         // Database::Write
  kDegradePass,     // Database::RunDegradationOnce
  kMaintainRunOnce, // MaintenanceDaemon::RunOnce
  kMaintainAudit,   // Database::RunAuditSweep
  kCount,
};

const char* SpanLabel(SpanName name);
/// Engine module a span's self time is charged to ("bench" for the roots).
const char* SpanModule(SpanName name);

struct SpanRecord {
  SpanName name = SpanName::kCount;
  uint16_t thread = 0;
  /// Index of the enclosing span in the same thread's record list, -1 for
  /// a root.
  int32_t parent = -1;
  /// Shared by every span of one statement or batch.
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of it covered by
/// the union of its children's intervals. `spans` are one thread's records
/// (parents index into the same list).
std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& spans);

inline int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief In-memory span recorder. Each client thread owns one Buffer, so
/// recording takes no lock; the buffers are read after every thread joined.
/// A disabled tracer hands out buffers that record nothing.
class Tracer {
 public:
  class Buffer {
   public:
    bool enabled() const { return enabled_; }
    /// Starts a new request: later root spans (and their children) carry
    /// this id until the next call.
    void BeginRequest(uint64_t id) { request_ = id; }
    int32_t Open(SpanName name);
    void Close(int32_t index);
    /// Records an already finished span under the innermost open one.
    void Add(SpanName name, int64_t start_ns, int64_t end_ns);
    const std::vector<SpanRecord>& spans() const { return spans_; }

   private:
    friend class Tracer;
    Buffer(bool enabled, uint16_t thread) : enabled_(enabled), thread_(thread) {}
    const bool enabled_;
    const uint16_t thread_;
    uint64_t request_ = 0;
    std::vector<int32_t> open_;
    std::vector<SpanRecord> spans_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  /// A new per-thread buffer, owned by the tracer.
  Buffer* NewBuffer();
  /// Every buffer, in creation order (call after the recording threads end).
  std::vector<const Buffer*> buffers() const;
  /// Drops every recorded span (call while no thread records).
  void Clear();
  /// Writes all spans as CSV (one line per span, with its self time).
  bool WriteCsv(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span on one thread's buffer; does nothing when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer::Buffer* buffer, SpanName name)
      : buffer_(buffer->enabled() ? buffer : nullptr),
        index_(buffer_ != nullptr ? buffer_->Open(name) : -1) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Buffer* const buffer_;
  const int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
