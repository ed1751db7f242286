#include "query/plan.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <mutex>

#include "common/strings.h"
#include "query/morsel_executor.h"
#include "query/predicate.h"

namespace instantdb {
namespace plan {

namespace {

/// Batch size of the materializing (SnapshotScanSource / aggregate
/// pushdown) morsel drains: large enough that latch reacquisition is noise,
/// small enough that a batch never holds a partition latch for long.
constexpr size_t kMaterializedScanBatchRows = 1024;

ScanBudget BudgetOf(Session* session) {
  return ScanBudget{session->db()->clock(), session->scan_options().deadline,
                    session->scan_options().cancel};
}

/// The morsel scan of one bound query under the session's ScanOptions, with
/// the stable WHERE terms pushed below row assembly when pushdown is on.
/// Not copyable: `scan.spec` points at `filter`.
struct QueryScan {
  QueryScan(Session* session, const BoundQuery& query, size_t batch_rows)
      : filter(query.table->schema(), query.predicates) {
    scan.table = query.table;
    scan.pushdown = session->scan_options().pushdown;
    scan.spec.filter = filter.empty() ? nullptr : &filter;
    // COUNT(*) and stable-only queries reference no degradable column: the
    // scan never touches a state store at all.
    scan.spec.need_degradable = !query.referenced_degradable.empty();
    scan.batch_rows = batch_rows;
    scan.morsel_pages = session->scan_options().morsel_pages;
    scan.budget = BudgetOf(session);
    scan.counters = session->db()->scan_counters();
  }
  QueryScan(const QueryScan&) = delete;
  QueryScan& operator=(const QueryScan&) = delete;

  const StablePredicateFilter filter;
  MorselScan scan;
};

/// Finds the level of a literal value in a hierarchy (tree labels can sit at
/// any level; interval bucket bounds at several — prefer the leaf).
Result<int> LiteralLevel(const DomainHierarchy& hierarchy, const Value& value) {
  for (int level = 0; level < hierarchy.height(); ++level) {
    if (hierarchy.ValidateAtLevel(value, level).ok()) return level;
  }
  return Status::InvalidArgument("literal '" + value.ToString() +
                                 "' is not a value of domain " +
                                 hierarchy.name());
}

/// Case-insensitive label lookup across all levels of a tree domain (the
/// paper's `LIKE "%FRANCE%"` names the node "France").
Result<std::pair<Value, int>> ResolveLabel(const DomainHierarchy& hierarchy,
                                           const std::string& label) {
  const auto* tree = dynamic_cast<const GeneralizationTree*>(&hierarchy);
  if (tree == nullptr) {
    return Status::NotFound("not a tree domain");
  }
  for (int level = 0; level < tree->height(); ++level) {
    for (const std::string& candidate : tree->LabelsAtLevel(level)) {
      if (EqualsIgnoreCase(candidate, label)) {
        return std::make_pair(Value::String(candidate), level);
      }
    }
  }
  return Status::NotFound("no label '" + label + "' in domain " +
                          hierarchy.name());
}

/// Parses the paper's bucket literal syntax 'lo-hi' for interval domains.
bool ParseBucketLiteral(const std::string& text, int64_t* lo, int64_t* hi) {
  const size_t dash = text.find('-', 1);
  if (dash == std::string::npos) return false;
  char* end = nullptr;
  *lo = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + dash) return false;
  *hi = std::strtoll(text.c_str() + dash + 1, &end, 10);
  return *end == '\0';
}

Status BindPredicate(const Schema& schema, Session* session, TableId table_id,
                     const PredicateAst& ast, BoundPredicate* out) {
  out->column = ResolveColumnName(schema, ast.column);
  if (out->column < 0) {
    return Status::InvalidArgument("unknown column: " + ast.column);
  }
  const ColumnDef& column = schema.column(out->column);
  out->degradable = column.kind == ColumnKind::kDegradable;
  out->op = ast.op;
  out->value = ast.value;
  out->value2 = ast.value2;
  if (!out->degradable) {
    if (ast.op == ComparisonOp::kLike) {
      if (ast.value.type() != ValueType::kString) {
        return Status::InvalidArgument("LIKE needs a string pattern");
      }
      std::string pattern = ast.value.str();
      out->like_prefix_wildcard = StartsWith(pattern, "%");
      out->like_suffix_wildcard = EndsWith(pattern, "%") && pattern.size() > 1;
      if (out->like_prefix_wildcard) pattern.erase(0, 1);
      if (out->like_suffix_wildcard && !pattern.empty()) pattern.pop_back();
      out->like_core = pattern;
    }
    return Status::OK();
  }

  const DomainHierarchy& hierarchy = *column.hierarchy;
  out->level = session->AccuracyFor(table_id, out->column);

  switch (ast.op) {
    case ComparisonOp::kEq:
    case ComparisonOp::kNe: {
      Value literal = ast.value;
      if (hierarchy.value_type() == ValueType::kInt64 &&
          literal.type() == ValueType::kString) {
        // '2000-3000' bucket syntax: the width names the level.
        int64_t lo, hi;
        if (!ParseBucketLiteral(literal.str(), &lo, &hi)) {
          return Status::InvalidArgument("bad bucket literal: " +
                                         literal.str());
        }
        const auto* interval =
            static_cast<const IntervalHierarchy*>(&hierarchy);
        IDB_ASSIGN_OR_RETURN(out->literal_level,
                             interval->LevelForWidth(hi - lo));
        literal = Value::Int64(lo);
      } else {
        IDB_ASSIGN_OR_RETURN(out->literal_level,
                             LiteralLevel(hierarchy, literal));
      }
      IDB_ASSIGN_OR_RETURN(out->literal_interval,
                           hierarchy.LeafRange(literal, out->literal_level));
      out->value = literal;
      out->index_usable = ast.op == ComparisonOp::kEq;
      return Status::OK();
    }
    case ComparisonOp::kLike: {
      if (ast.value.type() != ValueType::kString) {
        return Status::InvalidArgument("LIKE needs a string pattern");
      }
      std::string pattern = ast.value.str();
      out->like_prefix_wildcard = StartsWith(pattern, "%");
      out->like_suffix_wildcard = EndsWith(pattern, "%") && pattern.size() > 1;
      if (out->like_prefix_wildcard) pattern.erase(0, 1);
      if (out->like_suffix_wildcard && !pattern.empty()) pattern.pop_back();
      out->like_core = pattern;
      // `%France%` resolves to the France node: evaluated (and indexed) as
      // an equality against that node's subtree.
      auto label = ResolveLabel(hierarchy, pattern);
      if (label.ok()) {
        out->value = label->first;
        out->literal_level = label->second;
        auto interval = hierarchy.LeafRange(label->first, label->second);
        if (interval.ok()) {
          out->literal_interval = *interval;
          out->index_usable = true;
        }
      }
      return Status::OK();
    }
    case ComparisonOp::kBetween: {
      if (hierarchy.value_type() != ValueType::kInt64) {
        return Status::NotSupported("BETWEEN on categorical domains");
      }
      if (ast.value.type() != ValueType::kInt64 ||
          ast.value2.type() != ValueType::kInt64) {
        return Status::InvalidArgument("BETWEEN bounds must be integers");
      }
      // Bounds generalize to the demanded level's buckets.
      IDB_ASSIGN_OR_RETURN(Value lo,
                           hierarchy.Generalize(ast.value, 0, out->level));
      IDB_ASSIGN_OR_RETURN(Value hi,
                           hierarchy.Generalize(ast.value2, 0, out->level));
      out->value = lo;
      out->value2 = hi;
      out->literal_level = out->level;
      IDB_ASSIGN_OR_RETURN(out->literal_interval,
                           hierarchy.LeafRange(lo, out->level));
      IDB_ASSIGN_OR_RETURN(out->literal_interval2,
                           hierarchy.LeafRange(hi, out->level));
      out->index_usable = true;
      return Status::OK();
    }
    case ComparisonOp::kLt:
    case ComparisonOp::kLe:
    case ComparisonOp::kGt:
    case ComparisonOp::kGe: {
      if (hierarchy.value_type() != ValueType::kInt64) {
        return Status::NotSupported(
            "ordering predicates on categorical domains");
      }
      if (ast.value.type() != ValueType::kInt64) {
        return Status::InvalidArgument("ordering literal must be an integer");
      }
      return Status::OK();
    }
  }
  return Status::OK();
}

/// Evaluates one bound predicate against a value already generalized to
/// `value_level` (== min(k, stored level) under include_coarser).
bool EvalDegradablePredicate(const DomainHierarchy& hierarchy,
                             const BoundPredicate& pred, const Value& value,
                             int value_level) {
  switch (pred.op) {
    case ComparisonOp::kEq:
    case ComparisonOp::kNe: {
      auto row_interval = hierarchy.LeafRange(value, value_level);
      if (!row_interval.ok()) return false;
      const bool contains = pred.literal_interval.Contains(*row_interval);
      return pred.op == ComparisonOp::kEq ? contains : !contains;
    }
    case ComparisonOp::kLike: {
      if (pred.literal_level >= 0) {
        auto row_interval = hierarchy.LeafRange(value, value_level);
        return row_interval.ok() &&
               pred.literal_interval.Contains(*row_interval);
      }
      return MatchLike(hierarchy.DisplayValue(value, value_level), pred);
    }
    case ComparisonOp::kBetween: {
      auto row_interval = hierarchy.LeafRange(value, value_level);
      if (!row_interval.ok()) return false;
      return row_interval->lo >= pred.literal_interval.lo &&
             row_interval->hi <= pred.literal_interval2.hi;
    }
    case ComparisonOp::kLt:
      return value.int64() < pred.value.int64();
    case ComparisonOp::kLe:
      return value.int64() <= pred.value.int64();
    case ComparisonOp::kGt:
      // Bucket lower-bound comparison: a bucket qualifies when it lies
      // entirely above the literal is too strict for coarse levels; we
      // compare lower bounds (documented choice).
      return value.int64() > pred.value.int64();
    case ComparisonOp::kGe:
      return value.int64() >= pred.value.int64();
  }
  return false;
}

/// Streaming source. The consumer is the executor's worker 0; it borrows up
/// to workers − 1 pool tokens as prefetch producers, which claim morsels,
/// run whole-batch σ and push qualifying batches into a queue bounded at 2
/// × producers (a slow consumer backpressures them). Whenever that queue
/// is empty the consumer retries the borrow for any producer the pool has
/// not granted yet, then claims and scans a batch itself, so a cursor the
/// busy pool granted fewer producers — or none — still makes progress, and
/// no thread is ever spawned. At one worker there are no producers: rows
/// come out in (partition, heap) order. Per-batch snapshot semantics are
/// the same at any parallelism; only the interleaving of morsels changes.
/// Batch storage circulates: drained batches return to a spare pool the
/// producers refill, so a steady-state scan stops allocating. The consumer
/// counts a prefetch stall each time it has to wait on producers.
class StreamingScanSource : public RowSource {
 public:
  StreamingScanSource(Session* session, const BoundQuery& query,
                      size_t batch_rows, size_t workers)
      : read_options_(session->read_options()),
        query_(query),
        pool_(session->db()->worker_pool()),
        scan_(session, query, batch_rows),
        executor_(scan_.scan, workers),
        consumer_(&executor_, 0),
        want_(executor_.workers() - 1) {
    std::lock_guard<std::mutex> lock(mu_);
    BorrowProducersLocked();
  }

  ~StreamingScanSource() override {
    {
      // The lock orders the store against a producer's wait predicate so
      // the notify cannot fall between its check and its sleep.
      std::lock_guard<std::mutex> lock(mu_);
      closed_.store(true, std::memory_order_relaxed);
    }
    cv_.notify_all();
    pool_->Wait(&ticket_);
  }

  Result<bool> NextBatch(EvaluatedBatch* out) override {
    std::unique_lock<std::mutex> lock(mu_);
    bool stalled = false;
    while (true) {
      if (!error_.ok()) return error_;
      // Consumer-side budget probe, ahead of the queue: once the deadline
      // passes (or the token trips) the cursor reports it on the very next
      // pull, even when scanned batches are still buffered.
      IDB_RETURN_IF_ERROR(scan_.scan.budget.Check());
      if (!queue_.empty()) {
        out->Clear();
        out->Swap(&queue_.front());
        // The swapped-out storage (the consumer's previous batch) goes back
        // to the spare pool for a producer to refill.
        spares_.push_back(std::move(queue_.front()));
        queue_.pop_front();
        cv_.notify_all();
        return true;
      }
      if (!consumer_drained_) {
        BorrowProducersLocked();
        lock.unlock();
        IDB_ASSIGN_OR_RETURN(const bool more, consumer_.Next());
        if (more) {
          out->Clear();
          EvaluateViews(query_, read_options_, consumer_.views(), out,
                        scan_.scan.pushdown);
          if (out->size > 0) return true;
        } else {
          consumer_drained_ = true;
        }
        lock.lock();
        continue;
      }
      if (producers_live_ == 0) return false;
      // One stall per pull that had to wait, not one per wakeup.
      if (!stalled) {
        stalled = true;
        scan_.scan.counters->prefetch_stalls.fetch_add(
            1, std::memory_order_relaxed);
      }
      cv_.wait(lock);
    }
  }

 private:
  /// Borrows free pool workers as producers, up to want_ in all. Under mu_,
  /// so a new producer cannot publish or exit before it is counted.
  void BorrowProducersLocked() {
    if (borrowed_ == want_) return;
    const size_t first_id = borrowed_ + 1;
    const size_t granted = pool_->TryDispatch(
        want_ - borrowed_,
        [this, first_id](size_t slot) { ProduceLoop(first_id + slot); },
        &ticket_);
    borrowed_ += granted;
    producers_live_ += granted;
    queue_capacity_ = 2 * borrowed_;
  }

  void ProduceLoop(size_t id) {
    MorselExecutor::Worker worker(&executor_, id);
    EvaluatedBatch batch;
    Status status;
    // An early Close (cursor dropped mid-stream) stops the producers within
    // one batch, before the destructor waits them out.
    while (!closed_.load(std::memory_order_relaxed)) {
      Result<bool> more = worker.Next();
      if (!more.ok()) status = more.status();
      if (!more.ok() || !*more) break;
      batch.Clear();
      EvaluateViews(query_, read_options_, worker.views(), &batch,
                    scan_.scan.pushdown);
      // A fully filtered batch recycles in place, off the queue lock.
      if (batch.size > 0 && !Publish(&batch)) break;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!status.ok() && error_.ok()) error_ = status;
    --producers_live_;
    cv_.notify_all();
  }

  /// Queues `*batch` (waiting for room) and refills it from the spare
  /// pool. False when the cursor closed first.
  bool Publish(EvaluatedBatch* batch) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return queue_.size() < queue_capacity_ ||
             closed_.load(std::memory_order_relaxed);
    });
    if (closed_.load(std::memory_order_relaxed)) return false;
    queue_.emplace_back();
    queue_.back().Swap(batch);
    if (!spares_.empty()) {
      batch->Swap(&spares_.back());
      spares_.pop_back();
    }
    cv_.notify_all();
    return true;
  }

  const ReadOptions read_options_;
  const BoundQuery& query_;
  WorkerPool* const pool_;
  const QueryScan scan_;
  MorselExecutor executor_;
  /// The consumer's own worker; touched only by the consumer thread.
  MorselExecutor::Worker consumer_;
  bool consumer_drained_ = false;
  /// Producers wanted and producers borrowed so far (under mu_).
  const size_t want_;
  size_t borrowed_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<EvaluatedBatch> queue_;
  std::vector<EvaluatedBatch> spares_;
  size_t queue_capacity_ = 0;
  Status error_;
  size_t producers_live_ = 0;
  /// Atomic so producers can poll it between batches without the mutex.
  std::atomic<bool> closed_{false};
  WorkerPool::Ticket ticket_;
};

/// Materializing-path source (Session::Execute, DELETE, aggregates that are
/// not pushed down): drains the whole morsel plan on the executor with σ
/// applied as batches stream, so only qualifying rows are held, then
/// concatenates the per-morsel buckets in ordinal order — (partition,
/// begin_page) ascending — so the output is in heap order at any
/// parallelism. Snapshot semantics are per batch, as on the streaming path.
class SnapshotScanSource : public RowSource {
 public:
  SnapshotScanSource(Session* session, const BoundQuery& query,
                     size_t workers)
      : session_(session), query_(query), workers_(workers) {}

  Result<bool> NextBatch(EvaluatedBatch* out) override {
    if (drained_) return false;
    drained_ = true;
    const ReadOptions read_options = session_->read_options();
    const QueryScan scan(session_, query_, kMaterializedScanBatchRows);
    MorselExecutor executor(scan.scan, workers_);
    // Each morsel is claimed by exactly one worker, so its bucket needs no
    // lock.
    std::vector<std::vector<EvaluatedRow>> per_morsel(executor.total());
    IDB_RETURN_IF_ERROR(executor.Run(
        session_->db()->worker_pool(),
        [&](size_t, const Morsel& morsel, const std::vector<RowView>& views) {
          std::vector<EvaluatedRow>& bucket = per_morsel[morsel.ordinal];
          EvaluatedRow row;
          for (const RowView& view : views) {
            if (EvaluateRow(query_, read_options, view, &row,
                            scan.scan.pushdown)) {
              bucket.push_back(std::move(row));
            }
          }
          return Status::OK();
        }));
    out->Clear();
    for (auto& rows : per_morsel) {
      for (EvaluatedRow& row : rows) *out->Add() = std::move(row);
    }
    return out->size > 0;
  }

 private:
  Session* const session_;
  const BoundQuery& query_;
  const size_t workers_;
  bool drained_ = false;
};

/// Probes the multi-resolution index once (row ids only — cheap), then
/// fetches and evaluates rows batch-at-a-time.
class IndexScanSource : public RowSource {
 public:
  IndexScanSource(Session* session, const BoundQuery& query,
                  std::vector<RowId> rids, size_t batch_rows)
      : read_options_(session->read_options()),
        counters_(session->db()->scan_counters()),
        budget_(BudgetOf(session)),
        query_(query),
        rids_(std::move(rids)),
        batch_rows_(std::max<size_t>(batch_rows, 1)) {}

  Result<bool> NextBatch(EvaluatedBatch* out) override {
    out->Clear();
    while (out->size == 0 && next_ < rids_.size()) {
      IDB_RETURN_IF_ERROR(budget_.Check());
      uint64_t fetched = 0;
      while (next_ < rids_.size() && out->size < batch_rows_) {
        IDB_ASSIGN_OR_RETURN(auto view, query_.table->GetRow(rids_[next_++]));
        if (!view.has_value()) continue;
        ++fetched;
        EvaluatedRow* slot = out->Add();
        if (!EvaluateRow(query_, read_options_, *view, slot)) out->DropLast();
      }
      counters_->batches.fetch_add(1, std::memory_order_relaxed);
      counters_->rows.fetch_add(fetched, std::memory_order_relaxed);
    }
    return out->size > 0;
  }

 private:
  const ReadOptions read_options_;
  Database::ScanCounters* const counters_;
  const ScanBudget budget_;
  const BoundQuery& query_;
  std::vector<RowId> rids_;
  const size_t batch_rows_;
  size_t next_ = 0;
};

}  // namespace

Result<bool> RowSource::Next(EvaluatedRow* out) {
  while (adapter_next_ >= adapter_batch_.size) {
    if (adapter_done_) return false;
    adapter_next_ = 0;
    IDB_ASSIGN_OR_RETURN(const bool more, NextBatch(&adapter_batch_));
    if (!more) {
      adapter_done_ = true;
      return false;
    }
  }
  *out = std::move(adapter_batch_.rows[adapter_next_++]);
  return true;
}

void EvaluateViews(const BoundQuery& query, const ReadOptions& read_options,
                   const std::vector<RowView>& views, EvaluatedBatch* out,
                   bool stable_prefiltered) {
  for (const RowView& view : views) {
    EvaluatedRow* slot = out->Add();
    if (!EvaluateRow(query, read_options, view, slot, stable_prefiltered)) {
      out->DropLast();
    }
  }
}

size_t ResolveScanParallelism(Session* session, const Table& table) {
  const size_t pool = session->db()->worker_pool()->size();
  size_t parallelism = session->scan_options().parallelism;
  if (parallelism == 0) {
    // Auto mode stays inline on small tables: worker dispatch costs tens of
    // microseconds, which dwarfs the whole scan of a table a few batches
    // long (point SELECTs, small aggregates, DELETEs).
    if (table.live_rows() < kParallelScanMinRows) return 1;
    parallelism = pool;
  }
  // No partition clamp: the unit of parallelism is the morsel, and the
  // executor clamps to the morsel-plan size.
  return std::clamp<size_t>(parallelism, 1, pool);
}

Result<BoundQuery> BindQuery(Session* session, const std::string& table_name,
                             const std::vector<PredicateAst>& where,
                             const std::vector<int>& projected_columns) {
  BoundQuery query;
  const TableDef* def = ResolveTableName(session->db()->catalog(), table_name,
                                         /*allow_prefix=*/false);
  if (def == nullptr) {
    return Status::NotFound("no such table: " + table_name);
  }
  query.table = session->db()->GetTable(def->id);
  const Schema& schema = query.table->schema();

  for (const PredicateAst& ast : where) {
    BoundPredicate pred;
    IDB_RETURN_IF_ERROR(BindPredicate(schema, session, def->id, ast, &pred));
    if (pred.degradable) {
      query.referenced_degradable.insert(pred.column);
      query.accuracy[pred.column] = pred.level;
    }
    query.predicates.push_back(std::move(pred));
  }
  for (int col : projected_columns) {
    if (col >= 0 && schema.column(col).kind == ColumnKind::kDegradable) {
      query.referenced_degradable.insert(col);
      query.accuracy[col] = session->AccuracyFor(def->id, col);
    }
  }
  return query;
}

bool EvaluateRow(const BoundQuery& query, const ReadOptions& read_options,
                 const RowView& view, EvaluatedRow* out,
                 bool stable_prefiltered) {
  const Schema& schema = query.table->schema();
  out->row_id = view.row_id;
  out->values = view.values;
  out->degradable_level.clear();

  // Computability (σ over ∪_{j≤k} ST_j) and f_k generalization.
  for (int col : query.referenced_degradable) {
    const ColumnDef& column = schema.column(col);
    const int ordinal = schema.DegradableOrdinal(col);
    const int phase = view.phases[ordinal];
    const int k = query.accuracy.at(col);
    if (phase >= column.lcp.num_phases()) {
      return false;  // value removed (⊥): never computable
    }
    const int stored_level = column.lcp.phase(phase).level;
    if (stored_level > k && !read_options.include_coarser) {
      return false;  // coarser than demanded: not in any ST_{j<=k}
    }
    const int target_level = std::max(stored_level, k);
    Value vk = view.values[col];
    if (stored_level < target_level) {
      auto generalized =
          column.hierarchy->Generalize(vk, stored_level, target_level);
      if (!generalized.ok()) return false;
      vk = *generalized;
    }
    out->values[col] = vk;
    out->degradable_level.Set(col, target_level);
  }

  // σ_P over the generalized image.
  for (const BoundPredicate& pred : query.predicates) {
    const ColumnDef& column = schema.column(pred.column);
    if (pred.degradable) {
      const int level = out->degradable_level.Get(pred.column);
      if (!EvalDegradablePredicate(*column.hierarchy, pred,
                                   out->values[pred.column], level)) {
        return false;
      }
    } else {
      // Stable terms already ran below row assembly when the scan pushed
      // them down; only the index path re-checks them here.
      if (stable_prefiltered) continue;
      if (!EvalStablePredicate(pred, out->values[pred.column])) return false;
    }
  }
  return true;
}

std::string RenderValue(const Schema& schema, int col, const Value& value,
                        const DegradableLevels& levels) {
  const ColumnDef& column = schema.column(col);
  if (value.is_null()) return "NULL";
  if (column.kind == ColumnKind::kDegradable) {
    return column.hierarchy->DisplayValue(value, levels.Get(col, 0));
  }
  return value.ToString();
}

namespace {

/// The degradable predicate an index probe would serve, or nullptr when the
/// query takes a heap scan (shared by MakeRowSource and CanPushAggregate so
/// both always agree on the access path).
const BoundPredicate* UsableIndexPredicate(Session* session,
                                           const BoundQuery& query) {
  if (!session->use_indexes() || session->read_options().include_coarser) {
    return nullptr;
  }
  for (const BoundPredicate& pred : query.predicates) {
    if (pred.degradable && pred.index_usable) return &pred;
  }
  return nullptr;
}

}  // namespace

Result<std::unique_ptr<RowSource>> MakeRowSource(Session* session,
                                                 const BoundQuery& query,
                                                 size_t scan_batch_rows) {
  const BoundPredicate* index_pred = UsableIndexPredicate(session, query);
  if (index_pred != nullptr) {
    std::vector<RowId> rids;
    if (index_pred->op == ComparisonOp::kBetween) {
      IDB_RETURN_IF_ERROR(query.table->IndexLookupRange(
          index_pred->column, index_pred->value, index_pred->value2,
          index_pred->level, &rids));
    } else {
      // Equality / label-LIKE: probe at the literal's own level so every
      // computable phase tree is visited.
      IDB_RETURN_IF_ERROR(query.table->IndexLookupEqual(
          index_pred->column, index_pred->value,
          std::max(index_pred->literal_level, index_pred->level), &rids));
    }
    std::sort(rids.begin(), rids.end());
    return std::unique_ptr<RowSource>(new IndexScanSource(
        session, query, std::move(rids),
        scan_batch_rows == SIZE_MAX ? kStreamingScanBatchRows
                                    : scan_batch_rows));
  }
  const size_t parallelism = ResolveScanParallelism(session, *query.table);
  if (scan_batch_rows == SIZE_MAX) {
    return std::unique_ptr<RowSource>(
        new SnapshotScanSource(session, query, parallelism));
  }
  return std::unique_ptr<RowSource>(
      new StreamingScanSource(session, query, scan_batch_rows, parallelism));
}

Result<SelectPlan> BindSelect(Session* session, const SelectAst& ast) {
  SelectPlan select;
  {
    const TableDef* def = ResolveTableName(session->db()->catalog(), ast.table,
                                           /*allow_prefix=*/false);
    if (def == nullptr) return Status::NotFound("no such table: " + ast.table);
    select.schema = &def->schema;
  }
  const Schema& schema = *select.schema;

  select.items = ast.items;
  if (ast.star) {
    for (int i = 0; i < schema.num_columns(); ++i) {
      select.items.push_back(
          SelectItem{AggregateKind::kNone, schema.column(i).name});
    }
  }

  std::vector<int> projected;
  for (const SelectItem& item : select.items) {
    if (item.aggregate != AggregateKind::kNone) select.has_aggregate = true;
    int col = -1;
    if (!item.column.empty()) {
      col = ResolveColumnName(schema, item.column);
      if (col < 0) {
        return Status::InvalidArgument("unknown column: " + item.column);
      }
      projected.push_back(col);
    }
    select.item_columns.push_back(col);
    switch (item.aggregate) {
      case AggregateKind::kNone:
        select.output_columns.push_back(item.column);
        break;
      case AggregateKind::kCount:
        select.output_columns.push_back(
            item.column.empty() ? "COUNT(*)" : "COUNT(" + item.column + ")");
        break;
      case AggregateKind::kSum:
        select.output_columns.push_back("SUM(" + item.column + ")");
        break;
      case AggregateKind::kAvg:
        select.output_columns.push_back("AVG(" + item.column + ")");
        break;
      case AggregateKind::kMin:
        select.output_columns.push_back("MIN(" + item.column + ")");
        break;
      case AggregateKind::kMax:
        select.output_columns.push_back("MAX(" + item.column + ")");
        break;
    }
  }
  if (!ast.group_by.empty()) {
    select.group_col = ResolveColumnName(schema, ast.group_by);
    if (select.group_col < 0) {
      return Status::InvalidArgument("unknown column: " + ast.group_by);
    }
    projected.push_back(select.group_col);
    select.has_aggregate = true;
  }

  IDB_ASSIGN_OR_RETURN(select.query,
                       BindQuery(session, ast.table, ast.where, projected));
  return select;
}

bool CanPushAggregate(Session* session, const SelectPlan& select) {
  if (!session->scan_options().pushdown) return false;
  if (!select.has_aggregate || select.group_col >= 0) return false;
  for (const SelectItem& item : select.items) {
    // A non-aggregate item needs per-row output; partials can't carry it.
    if (item.aggregate == AggregateKind::kNone) return false;
  }
  return UsableIndexPredicate(session, select.query) == nullptr;
}

namespace {

void InitPartials(size_t items, AggregatePartials* agg) {
  agg->count = 0;
  agg->sums.assign(items, 0);
  agg->mins.assign(items, Value::Null());
  agg->maxs.assign(items, Value::Null());
  agg->non_null.assign(items, 0);
}

/// Folds one qualifying row into a worker's partial — the same per-item
/// state transitions as the executor's row-at-a-time AggState fold.
void FoldAggregateRow(const SelectPlan& select, const EvaluatedRow& row,
                      AggregatePartials* agg) {
  ++agg->count;
  const auto& items = select.items;
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].aggregate == AggregateKind::kNone || items[i].column.empty()) {
      continue;
    }
    const Value& v = row.values[select.item_columns[i]];
    if (v.is_null()) continue;
    ++agg->non_null[i];
    if (v.type() == ValueType::kInt64 || v.type() == ValueType::kTimestamp) {
      agg->sums[i] += static_cast<double>(v.int64());
    } else if (v.type() == ValueType::kDouble) {
      agg->sums[i] += v.dbl();
    }
    if (agg->mins[i].is_null() || v.Compare(agg->mins[i]) < 0) {
      agg->mins[i] = v;
    }
    if (agg->maxs[i].is_null() || v.Compare(agg->maxs[i]) > 0) {
      agg->maxs[i] = v;
    }
  }
}

/// Merge is associative over per-partition partials: counts and sums add,
/// extrema compare — so partition order never matters.
void MergePartials(const AggregatePartials& in, AggregatePartials* out) {
  out->count += in.count;
  for (size_t i = 0; i < in.sums.size(); ++i) {
    out->sums[i] += in.sums[i];
    out->non_null[i] += in.non_null[i];
    if (!in.mins[i].is_null() &&
        (out->mins[i].is_null() || in.mins[i].Compare(out->mins[i]) < 0)) {
      out->mins[i] = in.mins[i];
    }
    if (!in.maxs[i].is_null() &&
        (out->maxs[i].is_null() || in.maxs[i].Compare(out->maxs[i]) > 0)) {
      out->maxs[i] = in.maxs[i];
    }
  }
}

}  // namespace

Result<AggregatePartials> ExecuteAggregatePushdown(Session* session,
                                                   const SelectPlan& select) {
  const BoundQuery& query = select.query;
  const ReadOptions read_options = session->read_options();
  const QueryScan scan(session, query, kMaterializedScanBatchRows);
  MorselExecutor executor(scan.scan,
                          ResolveScanParallelism(session, *query.table));
  // One partial per WORKER, not per partition: a worker folds every morsel
  // it claims — home partition or stolen — into its own accumulator, and
  // merge associativity makes the claim order irrelevant.
  std::vector<AggregatePartials> partials(executor.workers());
  for (AggregatePartials& partial : partials) {
    InitPartials(select.items.size(), &partial);
  }
  IDB_RETURN_IF_ERROR(executor.Run(
      session->db()->worker_pool(),
      [&](size_t w, const Morsel&, const std::vector<RowView>& views) {
        EvaluatedRow row;
        for (const RowView& view : views) {
          if (EvaluateRow(query, read_options, view, &row,
                          /*stable_prefiltered=*/true)) {
            FoldAggregateRow(select, row, &partials[w]);
          }
        }
        return Status::OK();
      }));

  AggregatePartials merged;
  InitPartials(select.items.size(), &merged);
  for (const AggregatePartials& partial : partials) {
    MergePartials(partial, &merged);
  }
  scan.scan.counters->aggregate_partials_merged.fetch_add(
      partials.size(), std::memory_order_relaxed);
  return merged;
}

}  // namespace plan
}  // namespace instantdb
