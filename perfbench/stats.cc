#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  index = std::min(index, values.size() - 1);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

void BestOf::Add(size_t input, double value) {
  auto [it, inserted] = best_.emplace(input, value);
  if (!inserted && value < it->second) {
    it->second = value;
  }
}

double BestOf::Sum() const {
  double sum = 0.0;
  for (const auto& [input, value] : best_) {
    sum += value;
  }
  return sum;
}

double BestOf::Percentile(double q) const {
  std::vector<double> values;
  values.reserve(best_.size());
  for (const auto& [input, value] : best_) {
    values.push_back(value);
  }
  return NearestRank(std::move(values), q);
}

}  // namespace perfbench
