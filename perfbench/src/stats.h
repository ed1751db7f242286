#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Microseconds, the engine's clock unit (instantdb::Micros).
using Micros = int64_t;

/// A tail needs this many samples strictly above it.
inline constexpr size_t kTailBeyond = 10;

/// Nearest-rank percentile of an ascending-sorted, non-empty sample:
/// the value at 1-based rank ceil(pct / 100 * n).
double NearestRank(const std::vector<double>& sorted, double pct);

/// 1-based rank of the tail sample: the highest nearest-rank percentile with
/// at least kTailBeyond samples beyond it is the one at rank n - kTailBeyond.
/// Samples of kTailBeyond or fewer have no such percentile; the rank is then
/// n (the maximum), reported as percentile 100.
size_t TailRank(size_t n);

/// Median and tail of one latency sample, with the tail's percentile and the
/// sample count it was taken from.
struct Distribution {
  size_t count = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;
};
Distribution Summarize(std::vector<double> samples);

/// One committed write batch of the benchmark's log: the database clock
/// read right before Database::Write was called. The engine stamps every
/// row's insert time inside Write, so this is a lower bound on all of them.
struct Commit {
  Micros time = 0;
};

/// One pump pass (Database::RunDegradationOnce) on the database clock.
struct Pass {
  Micros start = 0;
  Micros end = 0;
  uint64_t moved = 0;
};

/// Deadline-to-degraded lateness, one sample (in microseconds) per committed
/// batch and LCP deadline. A batch's values share each deadline, taken as
/// `commit.time + offset`: a lower bound on the engine's own deadline, which
/// counts from the insert time stamped inside Write. A value counts as
/// degraded at the end of the first pass that starts at or past that
/// deadline and moved values; a pass that moved nothing cannot have moved
/// it. Deadlines that no such pass started after are not yet settled and
/// yield no sample. `passes` must be ordered by start.
std::vector<double> LatenessSamples(const std::vector<Commit>& commits,
                                    const std::vector<Micros>& deadline_offsets,
                                    const std::vector<Pass>& passes);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
