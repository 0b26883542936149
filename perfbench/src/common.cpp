#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

double Quantile(std::vector<double> values, double fraction) {
  if (values.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<size_t>(std::ceil(fraction * static_cast<double>(values.size())));
  const auto index = std::min(values.size() - 1, rank == 0 ? size_t{0} : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index), values.end());
  return values[index];
}

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  auto log_sum = 0.0;
  for (const auto value : values) {
    log_sum += std::log(value);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double PeakRssMb() {
  auto usage = rusage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

}  // namespace perfbench
