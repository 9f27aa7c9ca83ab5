// Wall-clock timing helpers.

#ifndef BBSMINE_UTIL_STOPWATCH_H_
#define BBSMINE_UTIL_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace bbsmine {

/// Measures elapsed wall-clock time with steady_clock resolution.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the measurement window.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction / last Reset, in seconds.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  /// Elapsed time in microseconds.
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Whole microseconds elapsed on the steady clock since `since`.
inline uint64_t MicrosSince(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace bbsmine

#endif  // BBSMINE_UTIL_STOPWATCH_H_
