#ifndef PERFBENCH_DATASET_H_
#define PERFBENCH_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "instantdb/instantdb.h"
#include "stats.h"

namespace perfbench {

/// Location tree of the generated data: 64 countries, each with 4 regions
/// of 4 cities of 4 addresses (4096 leaves).
inline constexpr int kCountries = 64;
inline constexpr int kFanout = 4;
inline constexpr int kLeaves = kCountries * kFanout * kFanout * kFanout;
/// GT levels of the location column: 0 ADDRESS, 1 CITY, 2 REGION, 3 COUNTRY.
inline constexpr int kLevels = 4;

/// The preloaded table's LCP is the paper's Fig. 2 policy: address for 1 h,
/// city for 1 day, region and country for a month each, then removal. These
/// are its cumulative phase ends, kept here independently of the engine.
inline constexpr Micros kMainPhaseEnds[kLevels] = {
    instantdb::kMicrosPerHour,
    instantdb::kMicrosPerHour + instantdb::kMicrosPerDay,
    instantdb::kMicrosPerHour + instantdb::kMicrosPerDay + instantdb::kMicrosPerMonth,
    instantdb::kMicrosPerHour + instantdb::kMicrosPerDay + 2 * instantdb::kMicrosPerMonth};
/// No preloaded row has a deadline within this long after set-up ends, so
/// nothing preloaded degrades while a workload runs.
inline constexpr Micros kQuietWindow = 10 * instantdb::kMicrosPerMinute;

/// Labels of node `index` at GT `level` of the location tree.
std::string LocationLabel(int level, int index);
/// Ancestor at `level` of leaf `leaf` (its index among that level's nodes).
inline int Ancestor(int leaf, int level) {
  int index = leaf;
  for (int l = 0; l < level; ++l) index /= kFanout;
  return index;
}
std::string UserLabel(uint32_t user);

/// Table names.
inline constexpr const char* kMainTable = "pings";
inline constexpr const char* kStreamTable = "stream";

/// \brief Seeded generator of the preloaded table plus the independent
/// model of what every read must return.
///
/// Rows are written in waves that share an insert instant. Each wave's age
/// at the end of set-up is drawn inside one LCP phase (the four phases in
/// turn), keeping clear of the
/// phase's end by kQuietWindow, so after set-up's degradation drain every
/// row sits in a known phase and stays there for the whole run. The
/// expected answers follow from the phase arithmetic alone: no engine path
/// is consulted.
class Dataset {
 public:
  Dataset(size_t rows, uint64_t seed);

  struct Wave {
    Micros age = 0;  // at the end of set-up
    std::vector<uint32_t> users;
    std::vector<uint16_t> leaves;
  };
  /// In insertion order (oldest first).
  const std::vector<Wave>& waves() const { return waves_; }
  uint32_t users() const { return users_; }
  Micros max_age() const { return waves_.empty() ? 0 : waves_.front().age; }

  /// Rows alive at the end of set-up (every preloaded row is).
  uint64_t ExpectedLive() const { return rows_; }
  /// COUNT(*) WHERE location = <node `index` at `level`> under a purpose at
  /// that level: rows whose current accuracy is at least as fine as `level`
  /// and whose location generalizes to the node (strict semantics).
  uint64_t ExpectedLocation(int level, int index) const {
    return location_counts_[level][index];
  }
  /// Live rows of one user.
  uint64_t ExpectedUser(uint32_t user) const { return user_counts_[user]; }
  /// Bytes of user data (string payloads) in the preloaded rows.
  uint64_t user_bytes() const { return user_bytes_; }

 private:
  size_t rows_;
  uint32_t users_;
  std::vector<Wave> waves_;
  std::vector<std::vector<uint64_t>> location_counts_;
  std::vector<uint64_t> user_counts_;
  uint64_t user_bytes_ = 0;
};

/// The live stream's LCP: address for 1 s, city until 2 s, region until
/// 4 s, then removal — three deadlines per value within seconds.
inline const std::vector<Micros>& StreamDeadlines() {
  static const std::vector<Micros> deadlines = {
      1 * instantdb::kMicrosPerSecond, 2 * instantdb::kMicrosPerSecond,
      4 * instantdb::kMicrosPerSecond};
  return deadlines;
}

/// Schema of both tables: stable `user`, degradable `location` over the
/// generated tree, with the Fig. 2 LCP (main) or the seconds-long stream LCP.
instantdb::Schema MainSchema(const std::shared_ptr<const instantdb::DomainHierarchy>& domain);
instantdb::Schema StreamSchema(const std::shared_ptr<const instantdb::DomainHierarchy>& domain);
std::shared_ptr<const instantdb::DomainHierarchy> LocationTree();

}  // namespace perfbench

#endif  // PERFBENCH_DATASET_H_
