#ifndef PERFBENCH_SRC_COMMON_HPP_
#define PERFBENCH_SRC_COMMON_HPP_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint32_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Tiny scale and few operations: exercises every check and metric name
  /// in seconds (the benchmark's own tests run this).
  bool smoke{false};
  /// Expected TPC-H answers to compare against (tpch workload).
  std::string expected_path;
  /// When set, the tpch workload writes expected answers here instead of
  /// measuring (reference engine: minimal optimizer, unencoded, no
  /// statistics).
  std::string write_expected_path;
  /// Where the traced run writes its spans (JSON lines).
  std::string trace_path;
  /// Extra metadata passed through to the output (git commit, source digest).
  std::vector<std::pair<std::string, std::string>> metadata;
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// What a workload run hands back to main: the metrics of the contract
/// (end-to-end when untraced, per-layer when traced), additional named
/// metrics for the report, operation counts, failures by SQLSTATE, and the
/// output checks that did not hold.
struct RunResult {
  std::vector<Metric> metrics;
  std::vector<Metric> report;
  uint64_t attempted{0};
  uint64_t failed{0};
  std::map<std::string, uint64_t> failures_by_sqlstate;
  std::vector<std::string> check_failures;
  std::vector<std::pair<std::string, std::string>> metadata;

  void Reject(std::string message) {
    check_failures.push_back(std::move(message));
  }
};

RunResult RunTpch(const Options& options);
RunResult RunWire(const Options& options);

// --- Statistics helpers -------------------------------------------------------

/// Nearest-rank quantile of unsorted samples (0 for none).
double Quantile(std::vector<double> values, double fraction);

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double GeometricMean(const std::vector<double>& values);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_HPP_
