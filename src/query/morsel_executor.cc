#include "query/morsel_executor.h"

#include <algorithm>

namespace instantdb {

namespace {

/// The table's morsel plan; flattened into one queue for a single worker,
/// which then claims in (partition, page) order.
std::vector<std::vector<Morsel>> PlanFor(const MorselScan& scan,
                                         size_t workers) {
  std::vector<std::vector<Morsel>> plan =
      scan.table->MorselPlan(scan.morsel_pages);
  if (workers > 1) return plan;
  std::vector<std::vector<Morsel>> flat(1);
  for (const auto& queue : plan) {
    flat[0].insert(flat[0].end(), queue.begin(), queue.end());
  }
  return flat;
}

MorselStatsSink SinkFor(Database::ScanCounters* counters) {
  if (counters == nullptr) return {};
  return MorselStatsSink{&counters->morsels_claimed, &counters->morsels_stolen,
                         &counters->steal_failures};
}

/// Folds one batch's ScanDeltas into the database's atomic counters — once
/// per batch, outside any partition latch.
void FoldDeltas(Database::ScanCounters* counters, const ScanDeltas& deltas) {
  counters->batches.fetch_add(1, std::memory_order_relaxed);
  counters->rows.fetch_add(deltas.rows_scanned, std::memory_order_relaxed);
  counters->rows_prefiltered.fetch_add(deltas.rows_prefiltered,
                                       std::memory_order_relaxed);
  counters->store_probes_issued.fetch_add(deltas.probes_issued,
                                          std::memory_order_relaxed);
  counters->store_probes_skipped.fetch_add(deltas.probes_skipped,
                                           std::memory_order_relaxed);
}

}  // namespace

MorselExecutor::MorselExecutor(const MorselScan& scan, size_t workers)
    : scan_(scan),
      sched_(PlanFor(scan, workers), SinkFor(scan.counters)),
      workers_(std::clamp<size_t>(workers, 1,
                                  std::max<size_t>(sched_.total(), 1))) {}

Result<bool> MorselExecutor::Worker::Next() {
  const MorselScan& scan = executor_->scan_;
  for (;;) {
    IDB_RETURN_IF_ERROR(scan.budget.Check());
    if (!open_) {
      if (!executor_->sched_.Claim(id_, &morsel_)) return false;
      cursor_ = scan.table->OpenMorselCursor(morsel_);
      open_ = true;
    }
    bool done = false;
    ScanDeltas deltas;
    if (scan.pushdown) {
      IDB_RETURN_IF_ERROR(cursor_.NextBatch(scan.batch_rows, scan.spec, &ws_,
                                            &views_, &done, &deltas));
    } else {
      views_.clear();
      IDB_RETURN_IF_ERROR(cursor_.NextBatch(scan.batch_rows, &views_, &done));
      deltas.rows_scanned = views_.size();
    }
    open_ = !done;
    if (scan.counters != nullptr && deltas.rows_scanned > 0) {
      FoldDeltas(scan.counters, deltas);
    }
    if (!views_.empty()) return true;
  }
}

Status MorselExecutor::Run(WorkerPool* pool, const BatchSink& sink) {
  return pool->Run(workers_, workers_, [&](size_t w) -> Status {
    Worker worker(this, w);
    for (;;) {
      IDB_ASSIGN_OR_RETURN(const bool more, worker.Next());
      if (!more) return Status::OK();
      IDB_RETURN_IF_ERROR(sink(w, worker.morsel(), worker.views()));
    }
  });
}

}  // namespace instantdb
