// `trace`: per-layer timings from the outside of each layer.
//
// A sample of the workload's request lines is replayed in-process, each
// twice. The untraced pass runs parse -> action runner -> emit with no
// spans. The traced pass records a root span per request with children
// for the parse, the action runner and the emit; the runner's span is
// the parent of replays of the public calls the runner is built from
// (cache lookup, compose, workload materialisation, run_batch /
// run_plan / run_tiled, the word-level reference), made with the same
// inputs right after it. A parent's self time is its duration minus the
// summed durations of its children; for the runner that is the share no
// replayed layer accounts for. Tracing overhead is the traced request
// time minus the untraced one. Spans are kept in memory and written as
// JSON lines when the run ends.
//
// The daemon runs every batch request through its coalescer, which
// gathers same-plan requests into one combined lane group. So a batch
// workload's replayed unit is such a group, run through
// serve::run_coalesced_group: as many requests as the load run's mean
// group occupancy (`--occupancy`, in items) holds. The group counts as
// one traced request; its members' parse and emit are replayed member
// by member, so the protocol figures stay per request line.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/workload.hpp"
#include "harness.hpp"
#include "pipeline/compiled.hpp"
#include "serve/coalesce.hpp"
#include "serve/protocol.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace pipeline = bitlevel::pipeline;
namespace serve = bitlevel::serve;
using bitlevel::JsonWriter;

/// Units (requests, or coalesced groups) replayed per run; a tiled
/// request alone runs 256 tiles.
constexpr std::int64_t kUnits = 16;
constexpr std::int64_t kTiledUnits = 3;

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = root.
  std::int64_t request = 0;
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  double us() const { return micros(start, end); }
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) { spans_.reserve(1 << 14); }

  std::int64_t begin(const std::string& name, std::int64_t parent, std::int64_t request) {
    const std::int64_t id = static_cast<std::int64_t>(spans_.size()) + 1;
    spans_.push_back(Span{id, parent, request, name, Clock::now(), {}});
    return id;
  }

  void end(std::int64_t id) { spans_[static_cast<std::size_t>(id - 1)].end = Clock::now(); }

  /// Time `fn` as a span; returns the span id.
  template <typename Fn>
  std::int64_t span(const std::string& name, std::int64_t parent, std::int64_t request, Fn&& fn) {
    const std::int64_t id = begin(name, parent, request);
    fn();
    end(id);
    return id;
  }

  const Span& at(std::int64_t id) const { return spans_[static_cast<std::size_t>(id - 1)]; }
  const std::vector<Span>& spans() const { return spans_; }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      JsonWriter w;
      w.begin_object();
      w.key("id").value(s.id);
      w.key("parent").value(s.parent);
      w.key("request").value(s.request);
      w.key("name").value(s.name);
      w.key("start_us").value(micros(origin_, s.start));
      w.key("end_us").value(micros(origin_, s.end));
      w.end_object();
      out << w.str() << "\n";
    }
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Samples of one named quantity across requests.
using Series = std::map<std::string, std::vector<double>>;

double median(const Series& series, const std::string& name) {
  const auto it = series.find(name);
  return it == series.end() ? 0.0 : quantile(it->second, 0.5);
}

double total(const Series& series, const std::string& name) {
  const auto it = series.find(name);
  double sum = 0;
  if (it != series.end()) {
    for (const double v : it->second) sum += v;
  }
  return sum;
}

/// The document an ok response would carry, built the way the daemon
/// builds it.
template <typename Emit>
std::string emit_response(const serve::ParsedRequest& parsed, Emit&& emit) {
  JsonWriter result;
  result.begin_object();
  const int status = emit(result);
  result.end_object();
  return serve::ok_envelope(parsed.id, parsed.action, status, result.str());
}

serve::ParsedRequest parse_valid(const std::string& line) {
  serve::ParsedRequest parsed = serve::parse_request(line);
  if (!parsed.valid) throw std::runtime_error("invalid request line: " + line);
  return parsed;
}

/// Runs one coalesced group the way the daemon does; throws unless
/// every member was answered ok.
void run_group(pipeline::PlanCache& cache, const std::vector<serve::ParsedRequest>& parsed) {
  std::vector<serve::CoalesceMember> members(parsed.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) members[i].request = parsed[i];
  serve::run_coalesced_group(cache, members, {});
  for (const auto& member : members) {
    if (!member.ok) throw std::runtime_error("coalesced replay failed: " + member.response);
  }
}

/// Everything one request's traced pass learned besides span times.
struct Facts {
  double items = 0;
  double events = 0;          ///< Compiled events per pass group.
  double groups = 0;          ///< Lane groups (1 for a reference run).
  double lane_width = 0;
  double passes = 0;
  double eq45 = 0;
  pipeline::PlanPtr plan;     ///< The plan whose compose timings count.
};

class Replayer {
 public:
  Replayer(const WorkloadSpec& spec, Tracer& tracer) : spec_(spec), tracer_(tracer) {}

  /// Untraced: parse, run, emit.
  void untraced(pipeline::PlanCache& cache, const std::vector<std::string>& unit) {
    std::vector<serve::ParsedRequest> parsed;
    for (const std::string& line : unit) parsed.push_back(parse_valid(line));
    if (spec_.action == "batch") {
      run_group(cache, parsed);
      return;
    }
    const serve::ActionParams& params = parsed.front().params;
    if (spec_.action == "simulate") {
      const serve::SimulateOutcome outcome = serve::run_simulate(cache, params);
      emit_response(parsed.front(),
                    [&](JsonWriter& w) { return serve::emit_simulate_json(w, params, outcome); });
      return;
    }
    const serve::TiledOutcome outcome = serve::run_tiled_action(cache, params);
    emit_response(parsed.front(),
                  [&](JsonWriter& w) { return serve::emit_tiled_json(w, params, outcome); });
  }

  /// Traced: spans around parse, the runner (with replayed children)
  /// and emit. Returns the root span id.
  std::int64_t traced(pipeline::PlanCache& cache, const std::vector<std::string>& unit,
                      std::int64_t request, Facts& facts) {
    std::vector<serve::ParsedRequest> parsed(unit.size());
    const std::int64_t root = tracer_.begin("request", 0, request);
    for (std::size_t i = 0; i < unit.size(); ++i) {
      tracer_.span("protocol.parse", root, request,
                   [&] { parsed[i] = serve::parse_request(unit[i]); });
    }
    for (const auto& p : parsed) {
      if (!p.valid) throw std::runtime_error("invalid request line for " + spec_.name);
    }
    const std::int64_t runner = run_traced(cache, parsed, root, request);
    tracer_.end(root);
    replay_children(cache, parsed, runner, request, facts);
    return root;
  }

 private:
  /// The runner and the emit, each in its own span under `root` (a
  /// coalesced group emits inside its runner). Returns the runner's
  /// span id.
  std::int64_t run_traced(pipeline::PlanCache& cache,
                          const std::vector<serve::ParsedRequest>& parsed, std::int64_t root,
                          std::int64_t request) {
    if (spec_.action == "batch") {
      return tracer_.span("action.run_coalesced_group", root, request,
                          [&] { run_group(cache, parsed); });
    }
    const serve::ParsedRequest& one = parsed.front();
    const serve::ActionParams& params = one.params;
    std::int64_t runner = 0;
    if (spec_.action == "simulate") {
      serve::SimulateOutcome outcome;
      runner = tracer_.span("action.run_simulate", root, request,
                            [&] { outcome = serve::run_simulate(cache, params); });
      tracer_.span("protocol.emit", root, request, [&] {
        emit_response(one, [&](JsonWriter& w) { return serve::emit_simulate_json(w, params, outcome); });
      });
    } else {
      serve::TiledOutcome outcome;
      runner = tracer_.span("action.run_tiled_action", root, request,
                            [&] { outcome = serve::run_tiled_action(cache, params); });
      tracer_.span("protocol.emit", root, request, [&] {
        emit_response(one, [&](JsonWriter& w) { return serve::emit_tiled_json(w, params, outcome); });
      });
    }
    return runner;
  }

  void replay_children(pipeline::PlanCache& cache, const std::vector<serve::ParsedRequest>& parsed,
                       std::int64_t runner, std::int64_t request, Facts& facts) {
    const serve::ActionParams& params = parsed.front().params;
    pipeline::DesignRequest design = params.request;
    design.mapping = pipeline::MappingStrategy::kAuto;
    const DesignKey& key = spec_.keys.front();
    if (spec_.action == "tiled") {
      pipeline::TiledPlan plan;
      tracer_.span("tiling.compose_tiled", runner, request,
                   [&] { plan = pipeline::compose_tiled(cache, design, params.tile); });
      const std::uint64_t bound =
          bitlevel::core::max_safe_operand(design.p, plan.k, design.expansion);
      const bitlevel::core::OperandFn x = tiled_operand(params.seed, 1, bound);
      const bitlevel::core::OperandFn y = tiled_operand(params.seed, 2, bound);
      pipeline::TiledRunResult run;
      tracer_.span("tiling.run_tiled", runner, request,
                   [&] { run = pipeline::run_tiled(cache, plan, x, y); });
      facts.plan = plan.shapes.front().plan;
      facts.items = static_cast<double>(run.tiles_executed);
      facts.groups = static_cast<double>(run.compiled_groups);
      facts.lane_width = run.compiled_groups > 0
                             ? static_cast<double>(pipeline::auto_compiled_lane_width(
                                   static_cast<std::size_t>(run.tiles_executed)))
                             : 0.0;
      const DesignKey shape{"matmul_rect", plan.tile_m, plan.tile_n, plan.tile_k, key.p,
                            key.expansion_ii};
      facts.eq45 = static_cast<double>(eq45_cycles(shape));
    } else {
      const DesignKey used{design.kernel.name, design.kernel.u,  design.kernel.v,
                           design.kernel.w,    design.p,
                           design.expansion == bitlevel::core::Expansion::kII};
      if (spec_.action == "simulate") {
        // The runner's compose, replayed on a cache that has never seen
        // the key: the cache's write path.
        tracer_.span("compose.get_or_compose_miss", runner, request, [&] {
          pipeline::PlanCache fresh;
          facts.plan = fresh.get_or_compose(design);
        });
      }
      pipeline::PlanPtr plan;
      tracer_.span("cache.get_or_compose_hit", runner, request,
                   [&] { plan = cache.get_or_compose(design); });
      if (!facts.plan) facts.plan = plan;
      // Every member's items, seeded seed, seed + 1, ... as the daemon
      // seeds them: one combined batch for a coalesced group.
      std::vector<bitlevel::core::Workload> loads;
      tracer_.span("workload.make_safe_workload", runner, request, [&] {
        for (const auto& p : parsed) {
          const std::int64_t n = spec_.action == "batch" ? p.params.batch : 1;
          for (std::int64_t i = 0; i < n; ++i) {
            loads.push_back(bitlevel::core::make_safe_workload(
                plan->model, design.p, design.expansion,
                p.params.seed + static_cast<std::uint64_t>(i)));
          }
        }
      });
      std::vector<pipeline::BatchItem> items;
      for (const auto& load : loads) items.push_back({load.x_fn(), load.y_fn()});
      std::vector<const std::map<bitlevel::math::IntVec, std::uint64_t>*> outputs;
      pipeline::BatchResult batch;
      pipeline::PlanRunResult single;
      if (spec_.action == "batch") {
        pipeline::BatchOptions options;
        options.threads = design.threads;
        options.memory = design.memory;
        tracer_.span("exec.run_batch", runner, request,
                     [&] { batch = pipeline::run_batch(cache, design, items, options); });
        for (const auto& r : batch.results) outputs.push_back(&r.z);
        facts.groups = static_cast<double>(batch.compiled_groups);
        facts.lane_width = static_cast<double>(batch.compiled_lane_width);
        if (batch.compiled_groups == 0) facts.groups = static_cast<double>(batch.scalar_items);
      } else {
        tracer_.span("exec.run_plan", runner, request, [&] {
          single = pipeline::run_plan(*plan, items[0].x, items[0].y,
                                      pipeline::RunOptions{design.threads, design.memory});
        });
        outputs.push_back(&single.z);
        facts.groups = 1;
      }
      std::size_t matches = 0;
      tracer_.span("verify.evaluate_word_reference", runner, request, [&] {
        for (std::size_t i = 0; i < items.size(); ++i) {
          const auto ref = bitlevel::core::evaluate_word_reference(plan->model, items[i].x, items[i].y);
          for (const auto& [j, v] : *outputs[i]) {
            const auto it = ref.find(j);
            matches += it != ref.end() && it->second == v ? 1 : 0;
          }
        }
      });
      if (matches == 0) throw std::runtime_error("traced replay produced no matching outputs");
      if (spec_.action == "batch") replay_member_emits(parsed, plan, batch, runner, request);
      facts.items = static_cast<double>(items.size());
      facts.eq45 = static_cast<double>(eq45_cycles(used));
    }
    if (facts.plan && facts.plan->compiled) {
      facts.events = static_cast<double>(facts.plan->compiled->events.size());
      facts.passes = static_cast<double>(facts.plan->compiled->pass_first.size()) - 1;
    }
  }

  /// Each member's emit, from its slice of the combined run with the
  /// ledger the coalescer's scatter gives it.
  void replay_member_emits(const std::vector<serve::ParsedRequest>& parsed,
                           const pipeline::PlanPtr& plan, const pipeline::BatchResult& batch,
                           std::int64_t runner, std::int64_t request) {
    std::size_t first = 0;
    for (const serve::ParsedRequest& member : parsed) {
      const std::size_t count = static_cast<std::size_t>(member.params.batch);
      serve::BatchOutcome outcome;
      outcome.plan = plan;
      outcome.feasible = true;
      outcome.correct = true;
      pipeline::BatchResult& view = outcome.batch;
      view.plan = batch.plan;
      view.compiled_lane_width = batch.compiled_lane_width;
      for (std::size_t i = first; i < first + count; ++i) {
        const bool new_group = i == first || batch.item_groups[i] != batch.item_groups[i - 1];
        switch (batch.item_paths[i]) {
          case pipeline::ItemPath::kCompiled:
            view.compiled_items += 1;
            view.compiled_groups += new_group ? 1 : 0;
            break;
          case pipeline::ItemPath::kSliced:
            view.sliced_items += 1;
            view.sliced_groups += new_group ? 1 : 0;
            break;
          case pipeline::ItemPath::kScalar:
            view.scalar_items += 1;
            break;
        }
        view.results.push_back(batch.results[i]);
      }
      first += count;
      tracer_.span("protocol.emit", runner, request, [&] {
        emit_response(member,
                      [&](JsonWriter& w) { return serve::emit_batch_json(w, member.params, outcome); });
      });
    }
  }

  const WorkloadSpec& spec_;
  Tracer& tracer_;
};

}  // namespace

int run_trace(const Options& options) {
  const WorkloadSpec& spec = find_workload(options.get("workload"));
  const std::uint64_t bench_seed = static_cast<std::uint64_t>(options.get_int("seed", 1));
  const std::string spans_path = options.get("spans");
  // Requests per unit: a batch workload's measured group occupancy.
  std::int64_t group = 1;
  if (spec.action == "batch") {
    const double occupancy = options.get_double("occupancy", 0.0);
    group = std::max<std::int64_t>(1, std::llround(occupancy / static_cast<double>(spec.batch)));
  }
  const std::int64_t units = spec.action == "tiled" ? kTiledUnits : kUnits;

  Tracer tracer(Clock::now());
  Replayer replayer(spec, tracer);
  // Separate caches for the two passes, so a cold request misses in both.
  pipeline::PlanCache untraced_cache;
  pipeline::PlanCache traced_cache;
  std::vector<std::vector<std::string>> lines;
  std::int64_t id = 0;
  for (std::int64_t r = 0; r < units; ++r) {
    std::vector<std::string>& unit = lines.emplace_back();
    for (std::int64_t m = 0; m < group; ++m) {
      ++id;
      const std::uint64_t index = static_cast<std::uint64_t>(id);
      unit.push_back(request_line(spec, id, request_key(spec, index),
                                  request_seed(bench_seed, 0, index)));
    }
  }
  if (spec.action != "simulate") {
    // Warm workloads are timed warm: the first compose is set-up.
    replayer.untraced(untraced_cache, lines.front());
    Facts ignored;
    replayer.traced(traced_cache, lines.front(), 0, ignored);
  }
  const std::size_t first_span = tracer.spans().size();

  Series series;
  std::vector<Facts> facts;
  for (std::int64_t r = 0; r < units; ++r) {
    const std::vector<std::string>& unit = lines[static_cast<std::size_t>(r)];
    const Clock::time_point t0 = Clock::now();
    replayer.untraced(untraced_cache, unit);
    series["untraced_us"].push_back(micros(t0, Clock::now()));
    Facts f;
    const std::int64_t root = replayer.traced(traced_cache, unit, r + 1, f);
    series["traced_us"].push_back(tracer.at(root).us());
    facts.push_back(f);
  }

  // Durations by span name, and the runner's self time per unit.
  std::map<std::int64_t, double> child_sum;
  for (std::size_t i = first_span; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    series[s.name].push_back(s.us());
    if (s.parent > 0) child_sum[s.parent] += s.us();
  }
  std::map<std::string, double> self_us;
  for (std::size_t i = first_span; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    const double self = s.us() - child_sum[s.id];
    self_us[s.name] += self;
    if (s.name.rfind("action.", 0) == 0) {
      series["runner_us"].push_back(s.us());
      series["runner_self_us"].push_back(self);
    }
  }
  if (!spans_path.empty()) tracer.write(spans_path);

  double items = 0;
  double exec_ns_per_event = 0;
  double lane_fill_num = 0;
  double lane_fill_den = 0;
  double ratio_sum = 0;
  double ratio_count = 0;
  Series compose;
  for (const Facts& f : facts) {
    items += f.items;
    if (f.passes > 0 && f.eq45 > 0) {
      ratio_sum += f.passes / f.eq45;
      ratio_count += 1;
    }
    if (f.lane_width > 0) {
      lane_fill_num += f.items;
      lane_fill_den += f.groups * f.lane_width;
    }
    series["passes"].push_back(f.passes);
    series["events_x_groups"].push_back(f.events * std::max(1.0, f.groups));
    const pipeline::StageTimings& t = f.plan->timings;
    compose["resolve"].push_back(t.resolve_ms);
    compose["expand"].push_back(t.expand_ms);
    compose["map"].push_back(t.map_ms);
    compose["machine"].push_back(t.machine_ms);
    compose["compile"].push_back(t.compile_ms);
    compose["total"].push_back(t.total_ms());
    compose["plan_kb"].push_back(static_cast<double>(pipeline::approximate_plan_bytes(*f.plan)) / 1024.0);
  }
  const std::string exec_name =
      spec.action == "batch" ? "exec.run_batch"
                             : (spec.action == "simulate" ? "exec.run_plan" : "tiling.run_tiled");
  const double exec_total_us = total(series, exec_name);
  const double events_total = total(series, "events_x_groups");
  if (events_total > 0) exec_ns_per_event = exec_total_us * 1000.0 / events_total;
  const double per_item = items > 0 ? 1.0 / items : 0.0;
  const double traced = median(series, "traced_us");
  const double untraced = median(series, "untraced_us");

  JsonWriter w;
  w.begin_object();
  w.key("requests").value(id);
  w.key("requests_per_unit").value(group);
  w.key("metrics").begin_object();
  w.key("protocol.parse_us").value(median(series, "protocol.parse"));
  w.key("protocol.emit_us").value(median(series, "protocol.emit"));
  w.key("cache.lookup_us").value(median(series, "cache.get_or_compose_hit"));
  for (const char* stage : {"resolve", "expand", "map", "machine", "compile", "total"}) {
    w.key(std::string("compose.") + stage + "_ms").value(median(compose, stage));
  }
  w.key("compose.plan_kb").value(median(compose, "plan_kb"));
  w.key("workload.us_per_item").value(total(series, "workload.make_safe_workload") * per_item);
  w.key("exec.us_per_item").value(exec_total_us * per_item);
  w.key("exec.ns_per_event").value(exec_ns_per_event);
  w.key("exec.passes").value(median(series, "passes"));
  w.key("exec.model_ratio").value(ratio_count > 0 ? ratio_sum / ratio_count : 0.0);
  w.key("exec.lane_fill").value(lane_fill_den > 0 ? lane_fill_num / lane_fill_den : 0.0);
  w.key("verify.us_per_item").value(total(series, "verify.evaluate_word_reference") * per_item);
  const bool tiled = spec.action == "tiled";
  w.key("tiling.compose_ms").value(tiled ? median(series, "tiling.compose_tiled") / 1000.0 : 0.0);
  w.key("tiling.run_ms").value(tiled ? median(series, "tiling.run_tiled") / 1000.0 : 0.0);
  w.key("tiling.verify_ms").value(tiled ? median(series, "runner_self_us") / 1000.0 : 0.0);
  double groups = 0;
  for (const Facts& f : facts) groups += f.groups;
  w.key("tiling.tiles_per_group").value(tiled && groups > 0 ? items / groups : 0.0);
  w.key("trace.action_self_us").value(median(series, "runner_self_us"));
  const double runner_total = total(series, "runner_us");
  w.key("trace.unattributed_share")
      .value(runner_total > 0 ? total(series, "runner_self_us") / runner_total : 0.0);
  w.key("trace.overhead_us").value(traced - untraced);
  w.key("trace.overhead_share").value(untraced > 0 ? (traced - untraced) / untraced : 0.0);
  w.end_object();
  w.key("self_us").begin_object();
  for (const auto& [name, us] : self_us) w.key(name).value(us / static_cast<double>(units));
  w.end_object();
  w.key("traced_us_p50").value(traced);
  w.key("untraced_us_p50").value(untraced);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace perfbench
