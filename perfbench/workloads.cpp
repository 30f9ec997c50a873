#include "workloads.hpp"

#include <stdexcept>

#include "support/json.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

/// Cold-compose keys over matmul, matmul_rect and matvec extents, p and
/// expansion: 150 distinct canonical keys, more than the daemon's
/// default PlanCache capacity of 64, so cycling them in order makes
/// every request an LRU miss. Only keys the one-shot CLI answers with
/// status 0 are listed. Kernels are interleaved so any window of the
/// cycle holds a similar mix.
const std::vector<DesignKey> kColdKeys = {
    {"matmul", 2, 2, 2, 3, false}, {"matmul_rect", 2, 3, 4, 3, false},
    {"matvec", 2, 3, 1, 3, false}, {"matmul", 2, 2, 2, 3, true},
    {"matmul_rect", 2, 3, 4, 3, true}, {"matvec", 2, 3, 1, 3, true},
    {"matmul", 2, 2, 2, 4, false}, {"matmul_rect", 2, 3, 4, 4, false},
    {"matvec", 2, 3, 1, 4, false}, {"matmul", 2, 2, 2, 4, true},
    {"matmul_rect", 2, 3, 4, 4, true}, {"matvec", 2, 3, 1, 4, true},
    {"matmul", 2, 2, 2, 6, false}, {"matmul_rect", 2, 3, 4, 6, false},
    {"matvec", 2, 3, 1, 6, false}, {"matmul", 2, 2, 2, 6, true},
    {"matmul_rect", 2, 3, 4, 6, true}, {"matvec", 2, 3, 1, 6, true},
    {"matmul", 2, 2, 2, 8, false}, {"matmul_rect", 3, 2, 4, 3, false},
    {"matvec", 2, 3, 1, 8, false}, {"matmul", 2, 2, 2, 8, true},
    {"matmul_rect", 3, 2, 4, 3, true}, {"matvec", 2, 3, 1, 8, true},
    {"matmul", 3, 3, 3, 3, false}, {"matmul_rect", 3, 2, 4, 4, false},
    {"matvec", 3, 2, 1, 3, false}, {"matmul", 3, 3, 3, 3, true},
    {"matmul_rect", 3, 2, 4, 4, true}, {"matvec", 3, 2, 1, 3, true},
    {"matmul", 3, 3, 3, 4, false}, {"matmul_rect", 3, 2, 4, 6, false},
    {"matvec", 3, 2, 1, 4, false}, {"matmul", 3, 3, 3, 4, true},
    {"matmul_rect", 3, 2, 4, 6, true}, {"matvec", 3, 2, 1, 4, true},
    {"matmul", 3, 3, 3, 6, false}, {"matmul_rect", 4, 3, 2, 3, false},
    {"matvec", 3, 2, 1, 6, false}, {"matmul", 3, 3, 3, 6, true},
    {"matmul_rect", 4, 3, 2, 3, true}, {"matvec", 3, 2, 1, 6, true},
    {"matmul", 3, 3, 3, 8, false}, {"matmul_rect", 4, 3, 2, 4, false},
    {"matvec", 3, 2, 1, 8, false}, {"matmul", 3, 3, 3, 8, true},
    {"matmul_rect", 4, 3, 2, 4, true}, {"matvec", 3, 2, 1, 8, true},
    {"matmul", 4, 4, 4, 3, false}, {"matmul_rect", 4, 3, 2, 6, false},
    {"matvec", 3, 4, 1, 3, false}, {"matmul", 4, 4, 4, 3, true},
    {"matmul_rect", 4, 3, 2, 6, true}, {"matvec", 3, 4, 1, 3, true},
    {"matmul", 4, 4, 4, 4, false}, {"matmul_rect", 2, 4, 3, 3, false},
    {"matvec", 3, 4, 1, 4, false}, {"matmul", 4, 4, 4, 4, true},
    {"matmul_rect", 2, 4, 3, 3, true}, {"matvec", 3, 4, 1, 4, true},
    {"matmul", 4, 4, 4, 6, false}, {"matmul_rect", 2, 4, 3, 4, false},
    {"matvec", 3, 4, 1, 6, false}, {"matmul", 4, 4, 4, 6, true},
    {"matmul_rect", 2, 4, 3, 4, true}, {"matvec", 3, 4, 1, 6, true},
    {"matmul", 4, 4, 4, 8, false}, {"matmul_rect", 2, 4, 3, 6, false},
    {"matvec", 3, 4, 1, 8, false}, {"matmul", 4, 4, 4, 8, true},
    {"matmul_rect", 2, 4, 3, 6, true}, {"matvec", 3, 4, 1, 8, true},
    {"matmul", 5, 5, 5, 3, false}, {"matmul_rect", 3, 4, 2, 3, false},
    {"matvec", 4, 3, 1, 3, false}, {"matmul", 5, 5, 5, 3, true},
    {"matmul_rect", 3, 4, 2, 3, true}, {"matvec", 4, 3, 1, 3, true},
    {"matmul", 5, 5, 5, 4, false}, {"matmul_rect", 3, 4, 2, 4, false},
    {"matvec", 4, 3, 1, 4, false}, {"matmul", 5, 5, 5, 4, true},
    {"matmul_rect", 3, 4, 2, 4, true}, {"matvec", 4, 3, 1, 4, true},
    {"matmul", 5, 5, 5, 6, false}, {"matmul_rect", 3, 4, 2, 6, false},
    {"matvec", 4, 3, 1, 6, false}, {"matmul", 5, 5, 5, 6, true},
    {"matmul_rect", 3, 4, 2, 6, true}, {"matvec", 4, 3, 1, 6, true},
    {"matmul", 5, 5, 5, 8, false}, {"matmul_rect", 4, 2, 3, 3, false},
    {"matvec", 4, 3, 1, 8, false}, {"matmul", 5, 5, 5, 8, true},
    {"matmul_rect", 4, 2, 3, 3, true}, {"matvec", 4, 3, 1, 8, true},
    {"matmul", 6, 6, 6, 3, false}, {"matmul_rect", 4, 2, 3, 4, false},
    {"matvec", 4, 4, 1, 3, false}, {"matmul", 6, 6, 6, 3, true},
    {"matmul_rect", 4, 2, 3, 4, true}, {"matvec", 4, 4, 1, 3, true},
    {"matmul", 6, 6, 6, 4, false}, {"matmul_rect", 4, 2, 3, 6, false},
    {"matvec", 5, 3, 1, 3, false}, {"matmul", 6, 6, 6, 4, true},
    {"matmul_rect", 4, 2, 3, 6, true}, {"matvec", 5, 3, 1, 3, true},
    {"matmul", 6, 6, 6, 6, false}, {"matmul_rect", 3, 3, 5, 3, false},
    {"matvec", 5, 3, 1, 4, false}, {"matmul", 6, 6, 6, 6, true},
    {"matmul_rect", 3, 3, 5, 3, true}, {"matvec", 5, 3, 1, 4, true},
    {"matmul", 6, 6, 6, 8, false}, {"matmul_rect", 3, 3, 5, 4, false},
    {"matvec", 5, 3, 1, 6, false}, {"matmul", 6, 6, 6, 8, true},
    {"matmul_rect", 3, 3, 5, 4, true}, {"matvec", 5, 3, 1, 6, true},
    {"matmul_rect", 3, 3, 5, 6, false}, {"matvec", 5, 3, 1, 8, false},
    {"matmul_rect", 3, 3, 5, 6, true}, {"matvec", 5, 3, 1, 8, true},
    {"matmul_rect", 5, 3, 3, 3, false}, {"matvec", 3, 5, 1, 3, false},
    {"matmul_rect", 5, 3, 3, 3, true}, {"matvec", 3, 5, 1, 3, true},
    {"matmul_rect", 5, 3, 3, 4, false}, {"matvec", 3, 5, 1, 4, false},
    {"matmul_rect", 5, 3, 3, 4, true}, {"matvec", 3, 5, 1, 4, true},
    {"matmul_rect", 5, 3, 3, 6, false}, {"matvec", 3, 5, 1, 6, false},
    {"matmul_rect", 5, 3, 3, 6, true}, {"matvec", 3, 5, 1, 6, true},
    {"matmul_rect", 2, 5, 3, 3, false}, {"matvec", 3, 5, 1, 8, false},
    {"matmul_rect", 2, 5, 3, 3, true}, {"matvec", 3, 5, 1, 8, true},
    {"matmul_rect", 2, 5, 3, 4, false}, {"matvec", 6, 4, 1, 3, false},
    {"matmul_rect", 2, 5, 3, 4, true}, {"matvec", 6, 4, 1, 3, true},
    {"matmul_rect", 2, 5, 3, 6, false}, {"matvec", 4, 6, 1, 3, false},
    {"matmul_rect", 2, 5, 3, 6, true}, {"matvec", 4, 6, 1, 3, true},
    {"matvec", 8, 8, 1, 3, false}, {"matvec", 8, 8, 1, 3, true}
};

std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> specs;
  // Matmul u=8, p=8, Expansion II: the Fig. 4 array, 43 passes (eq. 4.5).
  specs.push_back({"warm-batch", "batch", 4, 1, 64, 0, {{"matmul", 8, 8, 8, 8, true}}});
  // Matmul u=4, p=8: 31 passes; one item per request, 8 in flight per
  // connection, so the coalescer has company to pack.
  specs.push_back({"single-item-flood", "batch", 4, 8, 1, 0, {{"matmul", 4, 4, 4, 8, true}}});
  specs.push_back({"cold-compose", "simulate", 1, 1, 0, 0, kColdKeys});
  // Matmul u=128, p=4 on a 1024-PE budget: 256 tiles of 8x8x128.
  specs.push_back({"tiled-large", "tiled", 1, 1, 0, 1024, {{"matmul", 128, 128, 128, 4, true}}});
  return specs;
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = make_workloads();
  return kWorkloads;
}

}  // namespace

std::string DesignKey::label() const {
  return kernel + "/" + std::to_string(u) + "x" + std::to_string(v) + "x" + std::to_string(w) +
         "/p" + std::to_string(p) + "/" + (expansion_ii ? "II" : "I");
}

std::int64_t WorkloadSpec::items_per_request() const {
  if (action == "batch") return batch;
  if (action == "tiled") {
    // Square tiles of the largest side whose m * n * p^2 fits max_pes.
    const DesignKey& key = keys.front();
    std::int64_t side = 1;
    while ((side + 1) * (side + 1) * key.p * key.p <= max_pes) ++side;
    const std::int64_t grid = (key.u + side - 1) / side;
    return grid * grid;
  }
  return 1;
}

const WorkloadSpec& find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t request_seed(std::uint64_t bench_seed, int connection, std::uint64_t index) {
  // 40 random high bits per (seed, connection), then 1024 seeds per
  // request index: batch items seed..seed+63 never overlap.
  const std::uint64_t base =
      bitlevel::hash_mix(bench_seed, static_cast<std::uint64_t>(connection)) >> 24;
  return (base << 20) + index * 1024;
}

const DesignKey& request_key(const WorkloadSpec& spec, std::uint64_t index) {
  return spec.keys[index % spec.keys.size()];
}

std::string request_line(const WorkloadSpec& spec, std::int64_t id, const DesignKey& key,
                         std::uint64_t seed) {
  bitlevel::JsonWriter w;
  w.begin_object();
  w.key("id").value(id);
  w.key("action").value(spec.action);
  w.key("kernel").value(key.kernel);
  w.key("u").value(key.u);
  if (key.kernel != "matmul") w.key("v").value(key.v);
  if (key.kernel == "matmul_rect") w.key("w").value(key.w);
  w.key("p").value(key.p);
  w.key("expansion").value(key.expansion_ii ? "II" : "I");
  w.key("seed").value(seed);
  if (spec.action == "batch") w.key("batch").value(spec.batch);
  if (spec.action == "tiled") w.key("max_pes").value(spec.max_pes);
  w.end_object();
  return w.str();
}

std::int64_t eq45_cycles(const DesignKey& key) {
  if (key.kernel == "matmul") return 3 * (key.u - 1) + 3 * (key.p - 1) + 1;
  if (key.kernel == "matmul_rect") {
    return (key.u - 1) + (key.v - 1) + (key.w - 1) + 3 * (key.p - 1) + 1;
  }
  return 0;
}

bitlevel::core::OperandFn tiled_operand(std::uint64_t seed, int which, std::uint64_t bound) {
  return [seed, which, bound](const bitlevel::math::IntVec& p) {
    const std::int64_t first = which == 1 ? p[0] : p[2];
    const std::int64_t second = which == 1 ? p[2] : p[1];
    return bitlevel::hash_mix(bitlevel::hash_mix(bitlevel::hash_mix(
                                                     seed, static_cast<std::uint64_t>(which)),
                                                 static_cast<std::uint64_t>(first)),
                              static_cast<std::uint64_t>(second)) %
           (bound + 1);
  };
}

}  // namespace perfbench
