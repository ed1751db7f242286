#ifndef INSTANTDB_QUERY_MORSEL_EXECUTOR_H_
#define INSTANTDB_QUERY_MORSEL_EXECUTOR_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/cancel.h"
#include "db/database.h"
#include "util/morsel.h"
#include "util/worker_pool.h"

namespace instantdb {

/// Statement budget of one scan: the deadline and the CancelToken
/// (ScanOptions). The executor probes it at morsel-claim and batch
/// granularity, so a doomed statement stops within one batch, releases its
/// pool tokens through the normal error paths, and fails partial-safe with
/// Timeout/Aborted. Default-constructed: no budget.
struct ScanBudget {
  const Clock* clock = nullptr;
  Micros deadline = 0;
  const CancelToken* cancel = nullptr;

  Status Check() const {
    if (deadline == 0 && cancel == nullptr) return Status::OK();
    return CheckStatementBudget(clock, deadline, cancel);
  }
};

/// Fixed inputs of one morsel scan over a table.
struct MorselScan {
  const Table* table = nullptr;
  /// Pushdown form (PartitionCursor's ScanSpec overload) when true; full
  /// RowView assembly — the `pushdown = false` reference path — otherwise.
  bool pushdown = true;
  ScanSpec spec;
  /// Heap tuples per latched batch.
  size_t batch_rows = 1024;
  /// ScanOptions::morsel_pages (0 = kDefaultMorselPages).
  uint32_t morsel_pages = 0;
  ScanBudget budget;
  /// Scan and morsel accounting; null leaves every counter untouched (the
  /// deletion audit's sweeps are not query scans).
  Database::ScanCounters* counters = nullptr;
};

/// \brief The one morsel executor: plans a table's page-range morsels,
/// hands them to workers through the work-stealing MorselScheduler, pulls
/// each claimed morsel one latched batch at a time, checks the statement
/// budget at claim and batch granularity, and folds ScanDeltas into the
/// scan counters. Every heap consumer — streaming cursors, materialized
/// scans, aggregate pushdown and the deletion audit — is a sink of it.
///
/// Threads come only from the shared WorkerPool. With one worker the plan
/// is flattened into a single queue, so morsels are claimed in (partition,
/// page) order and rows come out in heap order.
class MorselExecutor {
 public:
  /// `workers` is clamped to [1, plan size]. `scan` (and the filter its
  /// spec points to) must outlive the executor.
  MorselExecutor(const MorselScan& scan, size_t workers);
  MorselExecutor(const MorselExecutor&) = delete;
  MorselExecutor& operator=(const MorselExecutor&) = delete;

  size_t workers() const { return workers_; }
  /// Morsels in the plan; every Morsel::ordinal is below it.
  size_t total() const { return sched_.total(); }

  /// One worker's claim-and-scan state. Not thread-safe: one per thread;
  /// distinct workers of one executor run concurrently.
  class Worker {
   public:
    /// `id` is the worker's stable index (its home queue is id % queues).
    Worker(MorselExecutor* executor, size_t id)
        : executor_(executor), id_(id) {}

    /// Pulls the next non-empty latched batch, claiming morsels as they
    /// run dry. False once the plan is drained. After true, views() and
    /// morsel() describe the batch until the next call.
    Result<bool> Next();
    const std::vector<RowView>& views() const { return views_; }
    const Morsel& morsel() const { return morsel_; }

   private:
    MorselExecutor* const executor_;
    const size_t id_;
    Morsel morsel_;
    PartitionCursor cursor_;
    bool open_ = false;
    ScanWorkspace ws_;
    std::vector<RowView> views_;
  };

  /// Receives one batch: the worker index (in [0, workers())), the morsel
  /// it came from, and its rows.
  using BatchSink = std::function<Status(size_t, const Morsel&,
                                         const std::vector<RowView>&)>;

  /// Blocking drain of the whole plan: the caller is worker 0 and borrows
  /// up to workers() - 1 pool tokens. Returns the first error; a worker
  /// that fails stops claiming.
  Status Run(WorkerPool* pool, const BatchSink& sink);

 private:
  const MorselScan& scan_;
  MorselScheduler sched_;
  const size_t workers_;
};

}  // namespace instantdb

#endif  // INSTANTDB_QUERY_MORSEL_EXECUTOR_H_
