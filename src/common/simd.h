// Portable 4-wide unrolled hot-loop kernels.
//
// The two kernels here sit on SmartML's two hottest paths: per-node bin
// histogram accumulation during histogram tree growth, and the z-normalized
// meta-feature distance scanned over every KB entry during neighbour lookup.
// Both are written as manual 4-wide unrolls with independent accumulators so
// any -O2 compiler can keep four lanes in flight (and auto-vectorize the
// distance kernel); neither requires intrinsics, so the code is portable to
// every target the repo builds on.
#ifndef SMARTML_COMMON_SIMD_H_
#define SMARTML_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace smartml {

/// Sum of squared differences between two length-n vectors (the inner loop
/// of the KB's z-normalized Euclidean distance). Four independent partial
/// sums break the loop-carried dependence so the adds pipeline/vectorize;
/// the pairwise reduction at the end keeps the summation tree fixed, making
/// results identical across calls on the same data.
inline double SquaredDistance(const double* a, const double* b, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  double s = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

/// Scatters `n` training rows into per-bin class histograms: for each listed
/// row r, adds w[r] to wsum[bin(r) * num_classes + y[r]] and bumps
/// cnt[bin(r)]. Codes equal to or above `num_bins` (the missing-bin code,
/// 255) land in the overflow slot `num_bins`, so wsum must hold
/// (num_bins + 1) * num_classes entries and cnt (num_bins + 1). The gather
/// side (row indices, codes, labels, weights) is unrolled four-wide so the
/// loads overlap; the scatter adds stay scalar because two lanes may hit the
/// same bin.
inline void AccumulateBinHistogram(const uint8_t* codes, const size_t* rows,
                                   size_t n, const int* y, const double* w,
                                   size_t num_classes, size_t num_bins,
                                   double* wsum, uint32_t* cnt) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const size_t r0 = rows[i];
    const size_t r1 = rows[i + 1];
    const size_t r2 = rows[i + 2];
    const size_t r3 = rows[i + 3];
    size_t b0 = codes[r0];
    size_t b1 = codes[r1];
    size_t b2 = codes[r2];
    size_t b3 = codes[r3];
    if (b0 > num_bins) b0 = num_bins;
    if (b1 > num_bins) b1 = num_bins;
    if (b2 > num_bins) b2 = num_bins;
    if (b3 > num_bins) b3 = num_bins;
    wsum[b0 * num_classes + static_cast<size_t>(y[r0])] += w[r0];
    ++cnt[b0];
    wsum[b1 * num_classes + static_cast<size_t>(y[r1])] += w[r1];
    ++cnt[b1];
    wsum[b2 * num_classes + static_cast<size_t>(y[r2])] += w[r2];
    ++cnt[b2];
    wsum[b3 * num_classes + static_cast<size_t>(y[r3])] += w[r3];
    ++cnt[b3];
  }
  for (; i < n; ++i) {
    const size_t r = rows[i];
    size_t b = codes[r];
    if (b > num_bins) b = num_bins;
    wsum[b * num_classes + static_cast<size_t>(y[r])] += w[r];
    ++cnt[b];
  }
}

}  // namespace smartml

#endif  // SMARTML_COMMON_SIMD_H_
