#include "stats.h"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace perfbench {

double NearestRank(const std::vector<double>& sorted, double pct) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

size_t TailRank(size_t n) { return n > kTailBeyond ? n - kTailBeyond : n; }

Distribution Summarize(std::vector<double> samples) {
  Distribution d;
  d.count = samples.size();
  if (samples.empty()) return d;
  std::sort(samples.begin(), samples.end());
  d.p50 = NearestRank(samples, 50);
  const size_t rank = TailRank(d.count);
  d.tail = samples[rank - 1];
  d.tail_pct = 100.0 * static_cast<double>(rank) / static_cast<double>(d.count);
  return d;
}

std::vector<double> LatenessSamples(const std::vector<Commit>& commits,
                                    const std::vector<Micros>& deadline_offsets,
                                    const std::vector<Pass>& passes) {
  std::vector<Pass> moving;
  std::copy_if(passes.begin(), passes.end(), std::back_inserter(moving),
               [](const Pass& p) { return p.moved > 0; });
  std::vector<double> out;
  out.reserve(commits.size() * deadline_offsets.size());
  for (const Commit& commit : commits) {
    for (Micros offset : deadline_offsets) {
      const Micros deadline = commit.time + offset;
      auto pass = std::lower_bound(
          moving.begin(), moving.end(), deadline,
          [](const Pass& p, Micros t) { return p.start < t; });
      if (pass == moving.end()) continue;
      out.push_back(static_cast<double>(pass->end - deadline));
    }
  }
  return out;
}

}  // namespace perfbench
