#ifndef PERFBENCH_BENCH_CLOCK_H_
#define PERFBENCH_BENCH_CLOCK_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "instantdb/instantdb.h"

namespace perfbench {

/// \brief The database clock of every workload: virtual while the dataset
/// is preloaded, wall-paced while the workload runs.
///
/// Set-up advances it by hand (like instantdb::VirtualClock) to spread the
/// preloaded rows over two months of LCP history in milliseconds. Start()
/// then lets it run at steady_clock's rate from the frozen instant, so the
/// live stream's seconds-long deadlines fall due in real time while the
/// preloaded rows, whose deadlines the generator keeps clear of the run,
/// stay in the states the expected answers were computed for.
class BenchClock final : public instantdb::Clock {
 public:
  explicit BenchClock(instantdb::Micros start) : frozen_(start) {}

  instantdb::Micros NowMicros() const override {
    if (!running_.load(std::memory_order_acquire)) {
      return frozen_.load(std::memory_order_acquire);
    }
    return SteadyMicros() + offset_;
  }

  /// Virtual phase only.
  void Advance(instantdb::Micros delta) {
    frozen_.fetch_add(delta, std::memory_order_acq_rel);
    WakeAll();
  }

  /// Switches to wall-paced time, continuing from the frozen instant.
  void Start() {
    offset_ = frozen_.load(std::memory_order_acquire) - SteadyMicros();
    running_.store(true, std::memory_order_release);
    WakeAll();
  }

  uint64_t WakeToken() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return wake_gen_;
  }

  using instantdb::Clock::WaitUntil;
  instantdb::Micros WaitUntil(instantdb::Micros deadline, uint64_t token) override {
    std::unique_lock<std::mutex> lock(mu_);
    while (wake_gen_ == token) {
      const instantdb::Micros now = NowMicros();
      if (now >= deadline) return now;
      if (running_.load(std::memory_order_acquire)) {
        cv_.wait_for(lock, std::chrono::microseconds(deadline - now));
      } else {
        cv_.wait(lock);
      }
    }
    return NowMicros();
  }

  void WakeAll() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++wake_gen_;
    }
    cv_.notify_all();
  }

  static instantdb::Micros SteadyMicros() {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::atomic<instantdb::Micros> frozen_;
  /// Written once by Start() before running_ is published.
  instantdb::Micros offset_ = 0;
  std::atomic<bool> running_{false};
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t wake_gen_ = 0;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_CLOCK_H_
