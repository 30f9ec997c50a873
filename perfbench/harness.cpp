#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>

#include "sim/lane_block.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace perfbench {

int run_describe(const Options& options) {
  const WorkloadSpec& spec = find_workload(options.get("workload"));
  const std::uint64_t seed = static_cast<std::uint64_t>(options.get_int("seed", 1));
  bitlevel::JsonWriter w;
  w.begin_object();
  // Request 0 of connection 0: what each set-up probe sends first.
  w.key("first_line").value(request_line(spec, 0, request_key(spec, 0), request_seed(seed, 0, 0)));
  w.key("simd_backend").value(bitlevel::sim::to_string(bitlevel::sim::simd_backend()));
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

Options::Options(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --name value pairs, got '" + flag + "'");
    }
    values_[flag.substr(2)] = argv[i + 1];
  }
}

std::string Options::get(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Options::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::stoll(it->second);
}

double Options::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::stod(it->second);
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench-harness describe|load|oracle|trace --name value ...\n");
    return 2;
  }
  const std::string command = argv[1];
  try {
    const perfbench::Options options(argc, argv, 2);
    if (command == "describe") return perfbench::run_describe(options);
    if (command == "load") return perfbench::run_load(options);
    if (command == "oracle") return perfbench::run_oracle(options);
    if (command == "trace") return perfbench::run_trace(options);
    std::fprintf(stderr, "unknown subcommand '%s'\n", command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench-harness %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
