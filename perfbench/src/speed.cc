#include "speed.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <ctime>
#include <mutex>
#include <thread>

#include "workloads.h"

namespace perfbench {
namespace {

double Clock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double ThreadCpuSeconds() { return Clock(CLOCK_THREAD_CPUTIME_ID); }

// Regression-tree split search, as the learners do it: for every fourth
// feature of a fixed 32768 x 16 matrix (4 MB), sort the row indices by the
// feature and scan every split for the best variance reduction of the next
// feature.
double SplitSearch() {
  constexpr size_t kRows = 32768, kCols = 16;
  static const std::vector<double> data = [] {
    std::vector<double> d(kRows * kCols);
    uint64_t state = 55;
    for (double& x : d) {
      x = static_cast<double>(SplitMix64(&state) >> 11) * 0x1.0p-53;
    }
    return d;
  }();
  std::vector<uint32_t> order(kRows);
  double best = 0.0;
  for (size_t f = 0; f < kCols; f += 4) {
    const size_t target = (f + 1) % kCols;
    for (size_t i = 0; i < kRows; ++i) order[i] = static_cast<uint32_t>(i);
    std::sort(order.begin(), order.end(), [f](uint32_t a, uint32_t b) {
      return data[a * kCols + f] < data[b * kCols + f];
    });
    double total = 0.0, left = 0.0;
    for (uint32_t row : order) total += data[row * kCols + target];
    for (size_t i = 0; i + 1 < kRows; ++i) {
      left += data[order[i] * kCols + target];
      const double nl = static_cast<double>(i + 1);
      const double nr = static_cast<double>(kRows) - nl;
      const double ml = left / nl, mr = (total - left) / nr;
      best = std::max(best, nl * ml * ml + nr * mr * mr);
    }
  }
  return best;
}

// Two threads hand a token back and forth, as the server's job queue and
// HTTP workers do. Returns the CPU seconds of both threads.
double HandoffSeconds() {
  constexpr int kRounds = 2000;
  std::mutex mu;
  std::condition_variable cv;
  int turn = 0;
  double partner_seconds = 0.0;
  const double start = ThreadCpuSeconds();
  std::thread partner([&] {
    const double partner_start = ThreadCpuSeconds();
    for (int i = 0; i < kRounds; ++i) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return turn == 1; });
      turn = 0;
      cv.notify_one();
    }
    partner_seconds = ThreadCpuSeconds() - partner_start;
  });
  for (int i = 0; i < kRounds; ++i) {
    std::unique_lock<std::mutex> lock(mu);
    turn = 1;
    cv.notify_one();
    cv.wait(lock, [&] { return turn == 0; });
  }
  partner.join();
  return ThreadCpuSeconds() - start + partner_seconds;
}

}  // namespace

double ProcessCpuSeconds() { return Clock(CLOCK_PROCESS_CPUTIME_ID); }

void HostSpeed::Sample(int passes) {
  volatile double sink = 0.0;
  for (int i = 0; i < passes; ++i) {
    const double start = ThreadCpuSeconds();
    sink = sink + SplitSearch();
    const double search = ThreadCpuSeconds() - start;
    passes_.push_back(search + HandoffSeconds());
  }
}

double HostSpeed::MedianSeconds() const {
  if (passes_.empty()) return 0.0;
  std::vector<double> sorted = passes_;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  return sorted[sorted.size() / 2];
}

double HostSpeed::Scale() const {
  const double median = MedianSeconds();
  return median > 0.0 ? kNominalReferenceSeconds / median : 0.0;
}

}  // namespace perfbench
