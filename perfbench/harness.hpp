// The benchmark harness: one binary, four subcommands.
//
//   describe  the workload's set-up request line and the SIMD backend;
//   load    drive a running daemon over its socket and summarise what
//           came back (latencies, ledgers, simulated statistics, stats
//           snapshots around the timed window);
//   oracle  replay a sample of the workload's seeds in-process and
//           check every output against the benchmark's own naive
//           word-level products, plus the plan-derived statistics;
//   trace   replay a sample of request lines in-process with spans
//           around each layer's public calls (per-layer metrics).
//
// Each subcommand prints one JSON document on stdout.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// `--name value` pairs after the subcommand.
class Options {
 public:
  Options(int argc, char** argv, int first);
  std::string get(const std::string& name, const std::string& fallback = "") const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

int run_describe(const Options& options);
int run_load(const Options& options);
int run_oracle(const Options& options);
int run_trace(const Options& options);

/// Value at quantile q (0..1) of the samples, nearest-rank; 0 when empty.
double quantile(std::vector<double> samples, double q);

/// Microseconds from a to b.
double micros(Clock::time_point a, Clock::time_point b);

}  // namespace perfbench
