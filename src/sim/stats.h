// Statistics helper: Welford running mean/stddev/min/max. Percentiles live
// in the metrics registry's Histogram (src/sim/metrics.h).
#ifndef TLBSIM_SRC_SIM_STATS_H_
#define TLBSIM_SRC_SIM_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace tlbsim {

// Single-pass mean / variance accumulator (Welford's algorithm).
class RunningStat {
 public:
  void Add(double x) {
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(n_); }

  void Reset() { *this = RunningStat(); }

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_SIM_STATS_H_
