// The host's speed, measured on a fixed computation of the benchmark's own.
//
// On a shared host the same code's CPU time moves with the host's speed
// (neighbours on the same physical cores and memory), which no program change
// causes. The benchmark times a reference computation that runs no SmartML
// code, many times over a run, and scales its CPU times by nominal over
// measured reference time: the figures are CPU time at the speed of the host
// on which kNominalReferenceSeconds was recorded. One scale serves the whole
// run: scaling each set-up or round by the few passes right after it made
// the figures noisier, not steadier. The reference is work like the workloads' (a split search over a
// matrix of a few MB, and a token handed between two threads through a mutex
// and condition variable), since a small cache-resident sort slowed by only
// half as much as the workloads.
#ifndef PERFBENCH_SPEED_H_
#define PERFBENCH_SPEED_H_

#include <vector>

namespace perfbench {

/// Median reference time on the host the benchmark was calibrated on (a
/// 4-vCPU Xeon VM, GCC 12 Release build).
constexpr double kNominalReferenceSeconds = 0.050;

/// CPU time of this process, all threads, in seconds. The kernel leaves out
/// time stolen by the hypervisor and time spent waiting for a CPU.
double ProcessCpuSeconds();

class HostSpeed {
 public:
  /// Runs the reference computation `passes` times from this thread.
  void Sample(int passes);
  /// Median CPU seconds of one pass (0 before sampling).
  double MedianSeconds() const;
  /// kNominalReferenceSeconds / MedianSeconds(): multiply a CPU time by it
  /// to express it at the calibration host's speed.
  double Scale() const;

 private:
  std::vector<double> passes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPEED_H_
