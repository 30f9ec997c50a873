// `load`: a closed-loop request generator against a running daemon.
//
// One thread per connection. Each keeps `outstanding` requests in
// flight and sends the next only when a response comes back. A warm-up
// phase runs first; then connection 0 takes a `stats` snapshot, every
// connection runs the timed phase, and connection 0 takes a second
// snapshot once all responses are in. Every response is checked; any
// error envelope, non-zero status or incorrect result is a failure.
#include <algorithm>
#include <barrier>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "harness.hpp"
#include "serve/client.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using bitlevel::JsonValue;
using bitlevel::JsonWriter;
using bitlevel::serve::Client;

/// Untimed load before the timed window, so it starts on warm worker
/// threads, a warm plan and a settled coalescer.
constexpr double kWarmupSeconds = 1.0;

std::string read_line(Client& connection) {
  std::string line;
  if (!connection.recv_line(&line)) throw std::runtime_error("daemon closed the connection");
  return line;
}

/// What the responses said about one design key's simulated run.
struct SimObservation {
  std::int64_t cycles = 0;
  std::int64_t processors = 0;
  std::string pi;
  std::int64_t responses = 0;
  bool consistent = true;  ///< Every response agreed.
};

struct Sample {
  double latency_us = 0;
  double queue_us = 0;
  double exec_us = 0;
};

/// One connection's tally of the timed phase.
struct Tally {
  std::vector<Sample> samples;
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
  std::int64_t wrong = 0;
  std::int64_t items = 0;
  std::map<std::string, std::int64_t> errors;  ///< By error code.
  std::int64_t compiled_items = 0;
  std::int64_t sliced_items = 0;
  std::int64_t scalar_items = 0;
  std::map<std::string, SimObservation> sim;
  std::vector<std::string> failures;  ///< The first few, for the report.
  Clock::time_point last_response{};

  void fail(const std::string& why) {
    if (failures.size() < 5) failures.push_back(why);
  }
};

std::int64_t int_member(const JsonValue& object, const std::string& name) {
  const JsonValue* v = object.is_object() ? object.find(name) : nullptr;
  if (v == nullptr || !v->is_int()) throw std::runtime_error("missing integer '" + name + "'");
  return v->int_v;
}

double number_member(const JsonValue& object, const std::string& name) {
  const JsonValue* v = object.is_object() ? object.find(name) : nullptr;
  return v != nullptr && v->is_number() ? v->as_double() : 0.0;
}

std::string pi_text(const JsonValue* pi) {
  if (pi == nullptr || !pi->is_array()) throw std::runtime_error("missing 'pi'");
  std::string text = "[";
  for (const JsonValue& e : pi->array_v) {
    if (text.size() > 1) text += ",";
    text += std::to_string(e.int_v);
  }
  return text + "]";
}

/// Check one ok envelope's result against what the request asked for;
/// returns the items it completed. Throws on a wrong result.
std::int64_t check_result(const WorkloadSpec& spec, const DesignKey& key,
                          const JsonValue& result, Tally& tally) {
  const JsonValue* correct = result.find("correct");
  if (correct == nullptr || !correct->is_bool() || !correct->bool_v) {
    throw std::runtime_error("result not correct");
  }
  std::int64_t items = 1;
  std::int64_t cycles = 0;
  if (spec.action == "batch") {
    items = int_member(result, "batch");
    if (items != spec.batch) throw std::runtime_error("batch size mismatch");
    cycles = int_member(result, "cycles_per_pass");
  } else if (spec.action == "tiled") {
    items = int_member(result, "tiles_executed");
    if (items != int_member(result, "tiles_total") || items != spec.items_per_request()) {
      throw std::runtime_error("tile count mismatch");
    }
    const JsonValue* check = result.find("check");
    if (check == nullptr || !check->is_string() || check->string_v != "full" ||
        int_member(result, "checked_outputs") != key.u * key.u) {
      throw std::runtime_error("tiled result not fully checked");
    }
    cycles = int_member(result, "cycles_per_tile");
  } else {
    if (int_member(result, "missing_reference") != 0) {
      throw std::runtime_error("outputs missing from the reference");
    }
    cycles = int_member(result, "cycles");
  }
  if (spec.action != "simulate") {
    const JsonValue* ledger = result.find("sliced");
    if (ledger == nullptr) throw std::runtime_error("missing execution ledger");
    const std::int64_t compiled = int_member(*ledger, "compiled_items");
    const std::int64_t sliced = int_member(*ledger, "sliced_items");
    const std::int64_t scalar = int_member(*ledger, "scalar_items");
    if (compiled + sliced + scalar != items) throw std::runtime_error("ledger does not balance");
    tally.compiled_items += compiled;
    tally.sliced_items += sliced;
    tally.scalar_items += scalar;
  }
  const std::int64_t processors = int_member(result, "processors");
  const std::string pi = spec.action == "tiled" ? "" : pi_text(result.find("pi"));
  SimObservation& obs = tally.sim[key.label()];
  if (obs.responses == 0) {
    obs.cycles = cycles;
    obs.processors = processors;
    obs.pi = pi;
  } else if (obs.cycles != cycles || obs.processors != processors || obs.pi != pi) {
    obs.consistent = false;
  }
  ++obs.responses;
  return items;
}

/// Record one response of the timed phase.
void record(const WorkloadSpec& spec, const DesignKey& key, const JsonValue& doc,
            const std::string& line, double latency_us, Tally& tally) {
  ++tally.attempted;
  try {
    const JsonValue* ok = doc.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->bool_v) {
      const JsonValue* error = doc.find("error");
      const JsonValue* code = error != nullptr ? error->find("code") : nullptr;
      const std::string name = code != nullptr && code->is_string() ? code->string_v : "unknown";
      ++tally.errors[name];
      tally.fail(key.label() + ": " + line.substr(0, 300));
      return;
    }
    if (int_member(doc, "status") != 0) throw std::runtime_error("non-zero status");
    const JsonValue* result = doc.find("result");
    if (result == nullptr || !result->is_object()) throw std::runtime_error("missing result");
    tally.items += check_result(spec, key, *result, tally);
    ++tally.ok;
    tally.samples.push_back(
        {latency_us, number_member(doc, "queue_us"), number_member(doc, "exec_us")});
  } catch (const std::exception& e) {
    ++tally.wrong;
    tally.fail(key.label() + ": " + e.what());
  }
}

struct Pending {
  Clock::time_point sent;
  std::uint64_t index = 0;
};

/// One connection's closed loop until `end`; returns after every
/// request it sent has been answered.
void run_phase(const WorkloadSpec& spec, Client& connection, int c, std::uint64_t bench_seed,
               std::uint64_t& next_index, Clock::time_point end, Tally* tally) {
  std::map<std::int64_t, Pending> in_flight;
  while (true) {
    while (static_cast<int>(in_flight.size()) < spec.outstanding && Clock::now() < end) {
      const std::uint64_t index = next_index++;
      const std::int64_t id = (static_cast<std::int64_t>(c) << 32) + static_cast<std::int64_t>(index);
      const std::string line = request_line(spec, id, request_key(spec, index),
                                            request_seed(bench_seed, c, index));
      in_flight[id] = Pending{Clock::now(), index};
      connection.send_line(line);
    }
    if (in_flight.empty()) return;
    const std::string response = read_line(connection);
    const Clock::time_point now = Clock::now();
    // A response that does not parse, or names no request in flight,
    // cannot be attributed: the run stops there.
    const JsonValue doc = bitlevel::json_parse(response);
    const JsonValue* idv = doc.find("id");
    const auto it = in_flight.find(idv != nullptr && idv->is_int() ? idv->int_v : -1);
    if (it == in_flight.end()) throw std::runtime_error("response for an unknown id: " + response);
    if (tally != nullptr) {
      record(spec, request_key(spec, it->second.index), doc, response,
             micros(it->second.sent, now), *tally);
      tally->last_response = now;
    }
    in_flight.erase(it);
  }
}

std::string stats_result(Client& connection, std::int64_t id) {
  const std::string response =
      connection.roundtrip("{\"id\":" + std::to_string(id) + ",\"action\":\"stats\"}");
  const std::string result = bitlevel::json_member_text(response, "result");
  if (result.empty()) throw std::runtime_error("bad stats response: " + response);
  return result;
}

void write_sim(JsonWriter& w, const std::map<std::string, SimObservation>& sim) {
  w.begin_object();
  for (const auto& [label, obs] : sim) {
    w.key(label).begin_object();
    w.key("cycles").value(obs.cycles);
    w.key("processors").value(obs.processors);
    w.key("pi").value(obs.pi);
    w.key("responses").value(obs.responses);
    w.key("consistent").value(obs.consistent);
    w.end_object();
  }
  w.end_object();
}

}  // namespace

int run_load(const Options& options) {
  const WorkloadSpec& spec = find_workload(options.get("workload"));
  const std::string socket_path = options.get("socket");
  const std::uint64_t bench_seed = static_cast<std::uint64_t>(options.get_int("seed", 1));
  const double seconds = options.get_double("seconds", 10.0);
  const int n = spec.connections;

  std::vector<std::unique_ptr<Client>> connections;
  for (int c = 0; c < n; ++c) {
    connections.push_back(std::make_unique<Client>());
    connections.back()->connect("unix:" + socket_path);
  }
  std::vector<Tally> tallies(static_cast<std::size_t>(n));
  std::string stats_before;
  std::string stats_after;
  Clock::time_point start{};
  std::barrier sync(n);
  std::vector<std::string> thread_errors(static_cast<std::size_t>(n));

  const auto body = [&](int c) {
    Client& connection = *connections[static_cast<std::size_t>(c)];
    // Request 0 of connection 0 is the set-up request; the load starts at 1.
    std::uint64_t next_index = 1;
    try {
      const Clock::time_point warm_end =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(kWarmupSeconds));
      run_phase(spec, connection, c, bench_seed, next_index, warm_end, nullptr);
      sync.arrive_and_wait();
      if (c == 0) {
        stats_before = stats_result(connection, (std::int64_t{1} << 62) + 1);
        start = Clock::now();
      }
      sync.arrive_and_wait();
      const Clock::time_point end =
          start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
      run_phase(spec, connection, c, bench_seed, next_index, end,
                &tallies[static_cast<std::size_t>(c)]);
      sync.arrive_and_wait();
      if (c == 0) stats_after = stats_result(connection, (std::int64_t{1} << 62) + 2);
    } catch (const std::exception& e) {
      thread_errors[static_cast<std::size_t>(c)] = e.what();
      // Leave the barrier so the other connections are not stranded.
      sync.arrive_and_drop();
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) threads.emplace_back(body, c);
  for (std::thread& t : threads) t.join();
  for (const std::string& error : thread_errors) {
    if (!error.empty()) throw std::runtime_error(error);
  }

  Tally total;
  Clock::time_point last = start;
  for (const Tally& t : tallies) {
    total.samples.insert(total.samples.end(), t.samples.begin(), t.samples.end());
    total.attempted += t.attempted;
    total.ok += t.ok;
    total.wrong += t.wrong;
    total.items += t.items;
    for (const auto& [code, count] : t.errors) total.errors[code] += count;
    total.compiled_items += t.compiled_items;
    total.sliced_items += t.sliced_items;
    total.scalar_items += t.scalar_items;
    for (const auto& [label, obs] : t.sim) {
      SimObservation& merged = total.sim[label];
      if (merged.responses == 0) {
        merged = obs;
      } else {
        merged.consistent = merged.consistent && obs.consistent && merged.cycles == obs.cycles &&
                            merged.processors == obs.processors && merged.pi == obs.pi;
        merged.responses += obs.responses;
      }
    }
    for (const std::string& f : t.failures) total.fail(f);
    last = std::max(last, t.last_response);
  }

  std::vector<double> latency;
  std::vector<double> queue;
  std::vector<double> exec;
  std::vector<double> wire;
  for (const Sample& s : total.samples) {
    latency.push_back(s.latency_us);
    queue.push_back(s.queue_us);
    exec.push_back(s.exec_us);
    wire.push_back(s.latency_us - s.queue_us - s.exec_us);
  }
  // The highest percentile with at least ten samples beyond it, capped
  // at p99 (and floored at the median for very small samples).
  const double samples = static_cast<double>(latency.size());
  const double tail_q = std::max(0.5, std::min(0.99, 1.0 - 10.0 / std::max(samples, 1.0)));
  const double duration_s = std::chrono::duration<double>(last - start).count();

  JsonWriter w;
  w.begin_object();
  w.key("workload").value(spec.name);
  w.key("seed").value(bench_seed);
  w.key("connections").value(n);
  w.key("outstanding").value(spec.outstanding);
  w.key("duration_s").value(duration_s);
  w.key("attempted").value(total.attempted);
  w.key("ok").value(total.ok);
  w.key("wrong").value(total.wrong);
  w.key("errors").begin_object();
  for (const auto& [code, count] : total.errors) w.key(code).value(count);
  w.end_object();
  w.key("items").value(total.items);
  w.key("latency_p50_us").value(quantile(latency, 0.5));
  w.key("latency_tail_us").value(quantile(latency, tail_q));
  w.key("latency_tail_q").value(tail_q);
  w.key("latency_samples").value(static_cast<std::int64_t>(latency.size()));
  w.key("queue_us_p50").value(quantile(queue, 0.5));
  w.key("exec_us_p50").value(quantile(exec, 0.5));
  w.key("wire_us_p50").value(quantile(wire, 0.5));
  w.key("ledger").begin_object();
  w.key("compiled_items").value(total.compiled_items);
  w.key("sliced_items").value(total.sliced_items);
  w.key("scalar_items").value(total.scalar_items);
  w.end_object();
  w.key("sim");
  write_sim(w, total.sim);
  w.key("failures").begin_array();
  for (const std::string& f : total.failures) w.value(f);
  w.end_array();
  w.key("stats_before").raw_value(stats_before);
  w.key("stats_after").raw_value(stats_after);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace perfbench
