#include "dataset.h"

#include <algorithm>
#include <random>

namespace perfbench {

namespace {

constexpr size_t kWaveRows = 256;
constexpr Micros kPhaseEntryMargin = instantdb::kMicrosPerSecond;

}  // namespace

std::string LocationLabel(int level, int index) {
  // Digits of the leaf path, most significant (country) first.
  const int depth = kLevels - level;  // path components at this level
  std::vector<int> digits(depth);
  for (int d = depth - 1; d > 0; --d) {
    digits[d] = index % kFanout;
    index /= kFanout;
  }
  digits[0] = index;
  static const char* const kPrefix[kLevels] = {"Addr", "City", "Region", "Country"};
  std::string label = kPrefix[level];
  for (int d = 0; d < depth; ++d) {
    if (d > 0) label += '.';
    label += std::to_string(digits[d]);
  }
  return label;
}

std::string UserLabel(uint32_t user) {
  std::string label = "u";
  label += std::to_string(user);
  return label;
}

std::shared_ptr<const instantdb::DomainHierarchy> LocationTree() {
  return instantdb::SyntheticLocationDomain(kCountries, kFanout, kFanout, kFanout);
}

instantdb::Schema MainSchema(
    const std::shared_ptr<const instantdb::DomainHierarchy>& domain) {
  return *instantdb::Schema::Make(
      {instantdb::ColumnDef::Stable("user", instantdb::ValueType::kString),
       instantdb::ColumnDef::Degradable("location", domain,
                                        instantdb::Fig2LocationLcp())});
}

instantdb::Schema StreamSchema(
    const std::shared_ptr<const instantdb::DomainHierarchy>& domain) {
  const std::vector<Micros>& d = StreamDeadlines();
  auto lcp = instantdb::AttributeLcp::Make(
      {{0, d[0]}, {1, d[1] - d[0]}, {2, d[2] - d[1]}});
  return *instantdb::Schema::Make(
      {instantdb::ColumnDef::Stable("user", instantdb::ValueType::kString),
       instantdb::ColumnDef::Degradable("location", domain, *lcp)});
}

Dataset::Dataset(size_t rows, uint64_t seed)
    : rows_(rows),
      users_(static_cast<uint32_t>(std::max<size_t>(1, rows / 16))),
      location_counts_(kLevels),
      user_counts_(users_) {
  std::mt19937_64 rng(seed);
  for (int level = 0; level < kLevels; ++level) {
    location_counts_[level].assign(kLeaves >> (2 * level), 0);
  }
  std::uniform_int_distribution<uint32_t> user_dist(0, users_ - 1);
  std::uniform_int_distribution<int> leaf_dist(0, kLeaves - 1);
  // Waves take the four phases in turn, so every seed puts the same number
  // of rows in each accuracy state; only ages, users and places vary.
  for (size_t done = 0; done < rows; done += kWaveRows) {
    Wave wave;
    const int phase = static_cast<int>(waves_.size() % kLevels);
    const Micros lo = (phase == 0 ? 0 : kMainPhaseEnds[phase - 1]) + kPhaseEntryMargin;
    const Micros hi = kMainPhaseEnds[phase] - kQuietWindow;
    wave.age = std::uniform_int_distribution<Micros>(lo, hi)(rng);
    const size_t n = std::min(kWaveRows, rows - done);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t user = user_dist(rng);
      const int leaf = leaf_dist(rng);
      wave.users.push_back(user);
      wave.leaves.push_back(static_cast<uint16_t>(leaf));
      ++user_counts_[user];
      // Strict semantics: a row answers a location predicate at every level
      // at or above its current phase's level.
      for (int level = phase; level < kLevels; ++level) {
        ++location_counts_[level][Ancestor(leaf, level)];
      }
      user_bytes_ += UserLabel(user).size() + LocationLabel(0, leaf).size();
    }
    waves_.push_back(std::move(wave));
  }
  std::stable_sort(waves_.begin(), waves_.end(),
                   [](const Wave& a, const Wave& b) { return a.age > b.age; });
}

}  // namespace perfbench
