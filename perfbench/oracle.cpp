// `oracle`: an output check that shares no code with the daemon's own
// verification.
//
// A sample of the workload's request seeds is replayed in-process
// through pipeline::run_batch (or run_tiled), and every output word is
// compared against a naive word-level product computed here from the
// operand tables. core::evaluate_word_reference is deliberately not
// used. The same pass reports each key's simulated statistics as the
// plan defines them, and the eq. 4.5 pass count where the plan carries
// the paper's Fig. 4 schedule.
#include <cstdio>
#include <stdexcept>

#include "core/workload.hpp"
#include "harness.hpp"
#include "mapping/published.hpp"
#include "pipeline/compiled.hpp"
#include "pipeline/tiling.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using bitlevel::math::Int;
using bitlevel::math::IntVec;
namespace pipeline = bitlevel::pipeline;

pipeline::DesignRequest design_request(const DesignKey& key) {
  pipeline::DesignRequest request;
  request.kernel = pipeline::KernelSpec{key.kernel, key.u, key.v, key.w, 0};
  request.p = key.p;
  request.expansion = key.expansion_ii ? bitlevel::core::Expansion::kII
                                       : bitlevel::core::Expansion::kI;
  request.mapping = pipeline::MappingStrategy::kAuto;
  return request;
}

/// Product extents (rows, cols, inner) of a key.
struct Extents {
  Int m = 0, n = 0, k = 0;
};

Extents extents(const DesignKey& key) {
  if (key.kernel == "matmul") return {key.u, key.u, key.u};
  if (key.kernel == "matmul_rect") return {key.u, key.v, key.w};
  if (key.kernel == "matvec") return {key.u, 1, key.v};
  throw std::invalid_argument("no naive product for kernel " + key.kernel);
}

/// A[i][l] and B[l][j] read off the operand functions at the word
/// points the kernel's pipelining makes them constant along.
struct Operands {
  Extents e;
  std::vector<std::uint64_t> a;  ///< m x k
  std::vector<std::uint64_t> b;  ///< k x n
};

Operands gather(const DesignKey& key, const bitlevel::core::OperandFn& x,
                const bitlevel::core::OperandFn& y) {
  Operands ops{extents(key), {}, {}};
  const Extents& e = ops.e;
  ops.a.resize(static_cast<std::size_t>(e.m * e.k));
  ops.b.resize(static_cast<std::size_t>(e.k * e.n));
  for (Int i = 1; i <= e.m; ++i) {
    for (Int l = 1; l <= e.k; ++l) {
      // matvec: the coefficient a(i, l) enters externally as y, the
      // vector travels down the rows as x.
      ops.a[static_cast<std::size_t>((i - 1) * e.k + (l - 1))] =
          key.kernel == "matvec" ? y(IntVec{i, l}) : x(IntVec{i, 1, l});
    }
  }
  for (Int l = 1; l <= e.k; ++l) {
    for (Int j = 1; j <= e.n; ++j) {
      ops.b[static_cast<std::size_t>((l - 1) * e.n + (j - 1))] =
          key.kernel == "matvec" ? x(IntVec{1, l}) : y(IntVec{1, j, l});
    }
  }
  return ops;
}

/// Compare a run's read-out against the naive product; returns an
/// empty string when every word matches.
std::string compare(const DesignKey& key, const Operands& ops,
                    const std::map<IntVec, std::uint64_t>& z, bool tiled) {
  const Extents& e = ops.e;
  if (static_cast<Int>(z.size()) != e.m * e.n) {
    return "expected " + std::to_string(e.m * e.n) + " outputs, got " + std::to_string(z.size());
  }
  for (const auto& [point, value] : z) {
    const Int i = point[0];
    const Int j = key.kernel == "matvec" ? 1 : point[1];
    const Int last = key.kernel == "matvec" ? point[1] : (tiled ? e.k : point[2]);
    if (i < 1 || i > e.m || j < 1 || j > e.n || last != e.k) {
      return "unexpected output point for " + key.label();
    }
    std::uint64_t want = 0;
    for (Int l = 1; l <= e.k; ++l) {
      want += ops.a[static_cast<std::size_t>((i - 1) * e.k + (l - 1))] *
              ops.b[static_cast<std::size_t>((l - 1) * e.n + (j - 1))];
    }
    if (want != value) {
      return key.label() + ": output (" + std::to_string(i) + "," + std::to_string(j) + ") is " +
             std::to_string(value) + ", naive product " + std::to_string(want);
    }
  }
  return "";
}

/// Plan-derived statistics of one key.
struct PlanSim {
  Int cycles = 0;
  Int processors = 0;
  std::string pi;
  Int passes = 0;
  bool fig4 = false;
  Int eq45 = 0;
};

PlanSim plan_sim(const DesignKey& key, const pipeline::DesignPlan& plan,
                 const bitlevel::sim::SimulationStats& stats) {
  PlanSim s;
  s.cycles = stats.cycles;
  s.processors = stats.pe_count;
  const IntVec schedule = plan.t->schedule();
  s.pi = "[";
  for (const Int v : schedule) s.pi += (s.pi.size() > 1 ? "," : "") + std::to_string(v);
  s.pi += "]";
  if (plan.compiled) s.passes = static_cast<Int>(plan.compiled->pass_first.size()) - 1;
  if (key.kernel == "matmul" || key.kernel == "matmul_rect") {
    s.fig4 = schedule == bitlevel::mapping::published_matmul_mapping(
                             bitlevel::mapping::PublishedMapping::kFig4, key.p)
                             .schedule();
  }
  if (s.fig4) s.eq45 = eq45_cycles(key);
  return s;
}

}  // namespace

int run_oracle(const Options& options) {
  const WorkloadSpec& spec = find_workload(options.get("workload"));
  const std::uint64_t bench_seed = static_cast<std::uint64_t>(options.get_int("seed", 1));
  pipeline::PlanCache cache;

  std::vector<std::string> failures;
  std::int64_t checked_items = 0;
  std::map<std::string, PlanSim> sims;

  // Sampled requests: (connection, index) pairs the load certainly sent.
  std::vector<std::pair<int, std::uint64_t>> sample;
  if (spec.action == "simulate") {
    for (std::uint64_t index = 1; index <= spec.keys.size(); index += 10) sample.push_back({0, index});
  } else if (spec.action == "tiled") {
    sample.push_back({0, 1});
  } else {
    const std::uint64_t per_connection = spec.batch == 1 ? 4 : 1;
    for (int c = 0; c < spec.connections; ++c) {
      for (std::uint64_t index = 1; index <= per_connection; ++index) sample.push_back({c, index});
    }
  }

  if (spec.action == "tiled") {
    const DesignKey& key = spec.keys.front();
    const pipeline::DesignRequest request = design_request(key);
    pipeline::TileOptions tile;
    tile.max_pes = spec.max_pes;
    const pipeline::TiledPlan plan = pipeline::compose_tiled(cache, request, tile);
    const std::uint64_t seed = request_seed(bench_seed, 0, 1);
    const std::uint64_t bound = bitlevel::core::max_safe_operand(key.p, plan.k, request.expansion);
    const auto x = tiled_operand(seed, 1, bound);
    const auto y = tiled_operand(seed, 2, bound);
    const pipeline::TiledRunResult run = pipeline::run_tiled(cache, plan, x, y);
    const std::string bad = compare(key, gather(key, x, y), run.z, true);
    if (!bad.empty()) failures.push_back(bad);
    checked_items += run.tiles_executed;
    const DesignKey shape{"matmul_rect", plan.tile_m, plan.tile_n, plan.tile_k, key.p,
                          key.expansion_ii};
    PlanSim s = plan_sim(shape, *plan.shapes.front().plan, run.stats);
    sims[key.label()] = s;
  } else {
    // One run_batch per key over every sampled item of that key, as a
    // coalesced group would carry them, plus each item on its own.
    std::map<std::string, std::vector<std::uint64_t>> seeds_by_key;
    std::map<std::string, DesignKey> keys;
    for (const auto& [c, index] : sample) {
      const DesignKey& key = request_key(spec, index);
      const std::uint64_t seed = request_seed(bench_seed, c, index);
      const std::int64_t items = spec.action == "batch" ? spec.batch : 1;
      for (std::int64_t i = 0; i < items; ++i) {
        seeds_by_key[key.label()].push_back(seed + static_cast<std::uint64_t>(i));
      }
      keys.emplace(key.label(), key);
    }
    for (const auto& [label, seeds] : seeds_by_key) {
      const DesignKey& key = keys.at(label);
      const pipeline::DesignRequest request = design_request(key);
      const pipeline::PlanPtr plan = cache.get_or_compose(request);
      std::vector<bitlevel::core::Workload> loads;
      loads.reserve(seeds.size());
      for (const std::uint64_t seed : seeds) {
        loads.push_back(
            bitlevel::core::make_safe_workload(plan->model, key.p, request.expansion, seed));
      }
      std::vector<pipeline::BatchItem> items;
      for (const auto& load : loads) items.push_back({load.x_fn(), load.y_fn()});
      const pipeline::BatchResult together = pipeline::run_batch(cache, request, items, {});
      for (std::size_t i = 0; i < items.size(); ++i) {
        const Operands ops = gather(key, items[i].x, items[i].y);
        std::string bad = compare(key, ops, together.results[i].z, false);
        if (bad.empty() && (items.size() == 1 || i < 2)) {
          const pipeline::BatchResult alone = pipeline::run_batch(cache, request, {items[i]}, {});
          bad = compare(key, ops, alone.results.front().z, false);
        }
        if (!bad.empty()) failures.push_back(bad);
        ++checked_items;
      }
      sims[label] = plan_sim(key, *plan, together.results.front().stats);
    }
  }

  bitlevel::JsonWriter w;
  w.begin_object();
  w.key("correct").value(failures.empty());
  w.key("checked_items").value(checked_items);
  w.key("failures").begin_array();
  for (std::size_t i = 0; i < failures.size() && i < 5; ++i) w.value(failures[i]);
  w.end_array();
  w.key("sim").begin_object();
  for (const auto& [label, s] : sims) {
    w.key(label).begin_object();
    w.key("cycles").value(s.cycles);
    w.key("processors").value(s.processors);
    w.key("pi").value(s.pi);
    w.key("passes").value(s.passes);
    w.key("fig4").value(s.fig4);
    w.key("eq45").value(s.eq45);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace perfbench
