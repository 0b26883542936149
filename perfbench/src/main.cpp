/// perfbench: the repository's end-to-end benchmark binary (see README.md).
///
/// Usage: perfbench --workload <tpch-sf0.05|wire-read|wire-htap> --seed <n>
///                  --seconds <s> --trace <0|1> [--smoke]
///                  [--expected <answers.tsv>] [--write-expected <answers.tsv>]
///                  [--trace-out <spans.jsonl>] [--meta key=value]...
///
/// Prints a report (one "metric <name> <value> <unit>" line per metric,
/// failures by SQLSTATE, reproducibility metadata), then, as the last line,
/// one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"

namespace perfbench {

namespace {

std::string JsonString(const std::string& text) {
  auto quoted = std::string{"\""};
  for (const auto character : text) {
    if (character == '"' || character == '\\') {
      quoted += '\\';
    }
    quoted += static_cast<unsigned char>(character) < 0x20 ? ' ' : character;
  }
  return quoted + "\"";
}

std::string JsonNumber(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Restricts the process to the highest-numbered CPU it may run on, before
/// any engine, server or client thread exists, so that all of them inherit
/// it. On a shared virtual machine, the host takes CPU time from a guest that
/// keeps several vCPUs busy at once: unpinned, the wire workloads' four
/// threads saw 10-21% steal time and their latencies spread by a third from
/// run to run; on one CPU, steal stayed near 1%. Returns the CPU, or -1 if
/// the affinity could not be set.
int PinToOneCpu() {
  auto allowed = cpu_set_t{};
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  for (auto cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      auto one = cpu_set_t{};
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
    }
  }
  return -1;
}

bool ParseOptions(int argc, char** argv, Options& options) {
  for (auto index = 1; index < argc; ++index) {
    const auto flag = std::string{argv[index]};
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (index + 1 >= argc) {
      std::cerr << "missing value for " << flag << "\n";
      return false;
    }
    const auto value = std::string{argv[++index]};
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = static_cast<uint32_t>(std::stoul(value));
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--expected") {
      options.expected_path = value;
    } else if (flag == "--write-expected") {
      options.write_expected_path = value;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else if (flag == "--meta") {
      const auto equals = value.find('=');
      options.metadata.emplace_back(value.substr(0, equals),
                                    equals == std::string::npos ? std::string{} : value.substr(equals + 1));
    } else {
      std::cerr << "unknown option " << flag << "\n";
      return false;
    }
  }
  return options.workload == "tpch-sf0.05" || options.workload == "wire-read" || options.workload == "wire-htap";
}

}  // namespace

int Main(int argc, char** argv) {
  auto options = Options{};
  try {
    if (!ParseOptions(argc, argv, options)) {
      std::cerr << "usage: perfbench --workload <tpch-sf0.05|wire-read|wire-htap> --seed <n> --seconds <s> "
                   "--trace <0|1> [--smoke] [--expected <file>] [--write-expected <file>] [--trace-out <file>]\n";
      return 2;
    }
  } catch (const std::exception& exception) {
    std::cerr << "bad argument: " << exception.what() << "\n";
    return 2;
  }

  const auto nproc = std::thread::hardware_concurrency();
  const auto cpu = PinToOneCpu();
  auto result = options.workload == "tpch-sf0.05" ? RunTpch(options) : RunWire(options);

  // Reproducibility metadata (paper §2.10): everything that shaped the run.
  auto metadata = std::vector<std::pair<std::string, std::string>>{
      {"workload", options.workload},
      {"seed", std::to_string(options.seed)},
      {"seconds", JsonNumber(options.seconds)},
      {"trace", options.trace ? "1" : "0"},
      {"smoke", options.smoke ? "1" : "0"},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"ENABLE_FAULT_INJECTION", "OFF"},  // Fixed in CMakeLists.txt.
      {"ENABLE_JIT", PERFBENCH_JIT ? "ON" : "OFF"},
      {"nproc", std::to_string(nproc)},
      {"cpu_affinity", cpu < 0 ? "unpinned" : "cpu " + std::to_string(cpu)},
  };
  metadata.insert(metadata.end(), options.metadata.begin(), options.metadata.end());
  metadata.insert(metadata.end(), result.metadata.begin(), result.metadata.end());

  for (const auto& metric : result.report) {
    std::cout << "metric " << metric.name << " " << JsonNumber(metric.value) << " " << metric.unit << "\n";
  }
  for (const auto& metric : result.metrics) {
    std::cout << "metric " << metric.name << " " << JsonNumber(metric.value) << " " << metric.unit << "\n";
  }
  auto failures = std::string{"{"};
  for (const auto& [sqlstate, count] : result.failures_by_sqlstate) {
    failures += (failures.size() > 1 ? ", " : "") + JsonString(sqlstate) + ": " + std::to_string(count);
  }
  std::cout << "failures_by_sqlstate " << failures << "}\n";
  auto meta = std::string{"{"};
  for (const auto& [key, value] : metadata) {
    meta += (meta.size() > 1 ? ", " : "") + JsonString(key) + ": " + JsonString(value);
  }
  std::cout << "metadata " << meta << "}\n";

  for (const auto& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.Reject("metric " + metric.name + " is not a finite number");
    }
  }
  for (const auto& failure : result.check_failures) {
    std::cout << "check failed: " << failure << "\n";
  }

  auto json = std::string{"{\"correct\": "} + (result.check_failures.empty() ? "true" : "false") +
              ", \"attempted\": " + std::to_string(result.attempted) +
              ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  for (auto index = size_t{0}; index < result.metrics.size(); ++index) {
    const auto& metric = result.metrics[index];
    const auto value = std::isfinite(metric.value) ? metric.value : 0.0;
    json += (index == 0 ? "" : ", ") + JsonString(metric.name) + ": {\"value\": " + JsonNumber(value) +
            ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  std::cout << json << "}}" << std::endl;
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Main(argc, argv);
}
