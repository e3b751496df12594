// Exact order statistics over raw samples.
//
// Every percentile the benchmark reports is the nearest-rank value of the
// sorted raw samples: the ceil(q * n)-th smallest observation. It is always
// an observed value, so two runs that see the same samples report the same
// number. (The program's registry histograms bucket by powers of two, so a
// percentile read from them moves in 2x steps and cannot resolve a 10%
// change; the benchmark never reads percentiles from them.)

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <map>
#include <vector>

namespace perfbench {

// Nearest-rank q-quantile (0 < q <= 1) of `values`; 0 when empty.
double NearestRank(std::vector<double> values, double q);

// A growing set of raw observations of one quantity.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t count() const { return values_.size(); }
  double Percentile(double q) const { return NearestRank(values_, q); }

 private:
  std::vector<double> values_;
};

// The best (lowest) observation of a cost measured repeatedly on the same
// inputs, kept per input. Noise from other tenants of a shared host only
// ever adds time, so an input's minimum over its repeats is the steadiest
// estimate of its cost (the estimator BenchmarkTools.jl and pyperf use);
// the set of per-input minima then gives sums and percentiles across
// inputs.
class BestOf {
 public:
  void Add(size_t input, double value);
  size_t inputs() const { return best_.size(); }
  double Sum() const;
  double Percentile(double q) const;

 private:
  std::map<size_t, double> best_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
