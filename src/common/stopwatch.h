// Wall-clock timing and budget/deadline primitives.
#ifndef SMARTML_COMMON_STOPWATCH_H_
#define SMARTML_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>
#include <limits>

namespace smartml {

/// Monotonic stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  int64_t ElapsedMillis() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A wall-clock deadline passed down through tuning loops. A
/// default-constructed Deadline never expires, which keeps iteration-capped
/// test runs deterministic.
class Deadline {
 public:
  /// Never expires.
  Deadline() : seconds_(std::numeric_limits<double>::infinity()) {}

  /// Expires `seconds` from now.
  static Deadline After(double seconds) { return Deadline(seconds); }

  bool Expired() const { return watch_.ElapsedSeconds() >= seconds_; }

  /// Seconds until expiry (may be negative once expired, +inf if infinite).
  double Remaining() const { return seconds_ - watch_.ElapsedSeconds(); }

 private:
  explicit Deadline(double seconds) : seconds_(seconds) {}

  Stopwatch watch_;
  double seconds_;
};

}  // namespace smartml

#endif  // SMARTML_COMMON_STOPWATCH_H_
