// The benchmark's workloads: which requests each one sends, with which
// seeds, over how many connections.
//
// Every request line is built here from the benchmark seed alone, so
// the same seed always yields the same request stream. No request
// carries an engine or lane knob: the daemon serves its defaults.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/evaluator.hpp"

namespace perfbench {

/// One canonical design key: kernel, extents, operand width, expansion.
struct DesignKey {
  std::string kernel;
  std::int64_t u = 1;
  std::int64_t v = 1;
  std::int64_t w = 1;
  std::int64_t p = 4;
  bool expansion_ii = true;

  /// "matmul/8x8x8/p8/II" — a stable label for results documents.
  std::string label() const;
};

struct WorkloadSpec {
  std::string name;
  std::string action;          ///< "batch", "simulate" or "tiled".
  int connections = 1;         ///< Generator connections (one thread each).
  int outstanding = 1;         ///< Requests kept in flight per connection.
  std::int64_t batch = 0;      ///< Items per batch request.
  std::int64_t max_pes = 0;    ///< Tiled requests' PE budget.
  std::vector<DesignKey> keys; ///< One key, or the list cold requests cycle through.

  /// Work items one request completes: batch items, tiles, or 1.
  std::int64_t items_per_request() const;
};

/// The named workload; throws std::invalid_argument on an unknown name.
const WorkloadSpec& find_workload(const std::string& name);

/// Seed of request `index` on `connection`. Batch items use seed,
/// seed + 1, ..., so consecutive request seeds are spaced apart.
std::uint64_t request_seed(std::uint64_t bench_seed, int connection, std::uint64_t index);

/// The design key of request `index` (cold requests cycle the list).
const DesignKey& request_key(const WorkloadSpec& spec, std::uint64_t index);

/// One request line (no trailing newline).
std::string request_line(const WorkloadSpec& spec, std::int64_t id, const DesignKey& key,
                         std::uint64_t seed);

/// Closed-form pass count of the paper's Fig. 4 mapping, eq. 4.5
/// 3(u-1) + 3(p-1) + 1, generalised to an m x n x k product as
/// (m-1) + (n-1) + (k-1) + 3(p-1) + 1. 0 for kernels it does not model.
std::int64_t eq45_cycles(const DesignKey& key);

/// Operand `which` (1 = x, 2 = y) of a `tiled` request with `seed`, as
/// the daemon's tiled action builds it: a seeded hash of (i, l) for x
/// and of (l, j) for y, reduced to [0, bound].
bitlevel::core::OperandFn tiled_operand(std::uint64_t seed, int which, std::uint64_t bound);

}  // namespace perfbench
