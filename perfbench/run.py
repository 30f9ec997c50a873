#!/usr/bin/env python3
"""The daemon benchmark: one served workload, end to end or per layer.

Run from the repository root:

    python3 perfbench/run.py --workload warm-batch --seed 1 --seconds 10 --trace 0

The first run builds `bitlevel-design` and the benchmark harness from
source into .bench_build/. Each run then spawns `bitlevel-design --serve`
as its own process (default flags apart from the listen path), drives it
from the harness over a Unix socket, checks every response, replays a
sample of the seeds in-process against the benchmark's own naive
products, stops the daemon with SIGTERM and checks its drain report.

--trace 0 reports the end-to-end metrics; --trace 1 the per-layer
metrics, from the response envelopes, the `stats` action and a separate
traced in-process replay. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A full results
document, with run metadata, is written under .bench_build/perfbench/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "perfbench-cmake")
OUT_DIR = os.path.join(BUILD, "perfbench")
DAEMON = os.path.join(CMAKE_DIR, "tools", "bitlevel-design")
HARNESS = os.path.join(CMAKE_DIR, "bin", "perfbench-harness")

WORKLOADS = ["warm-batch", "single-item-flood", "cold-compose", "tiled-large"]
SETUP_PROBES = 5          # daemon spawns per run; setup_s is their median
DAEMON_START_TIMEOUT_S = 60.0
DAEMON_STOP_TIMEOUT_S = 60.0


class BenchError(Exception):
    """The run could not be carried out (not a wrong result)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_checked(cmd, timeout, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{what} failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        raise BenchError("no bitlevel sources next to perfbench/; run from a repository checkout")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", CMAKE_DIR]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target", "bitlevel-design",
                    "perfbench-harness"], cwd=ROOT, check=True, stdout=sys.stderr,
                   stderr=sys.stderr, timeout=1800)


def harness(*args, timeout=170):
    return json.loads(run_checked([HARNESS, *args], timeout, "perfbench-harness " + args[0]))


class Daemon:
    """One `bitlevel-design --serve` process on a Unix socket under .bench_build."""

    def __init__(self, name):
        self.socket_rel = os.path.relpath(os.path.join(OUT_DIR, name + ".sock"), ROOT)
        self.log_path = os.path.join(OUT_DIR, name + ".log")
        if os.path.exists(self.socket_rel):
            os.unlink(self.socket_rel)
        self.log_file = open(self.log_path, "w")
        self.started = time.monotonic()
        self.proc = subprocess.Popen([DAEMON, "--serve", "--listen", "unix:" + self.socket_rel],
                                     cwd=ROOT, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=self.log_file)

    def first_response(self, line):
        """Connect as soon as the socket accepts, send one request, and
        return (seconds since spawn, parsed response)."""
        deadline = self.started + DAEMON_START_TIMEOUT_S
        path = self.socket_rel  # relative: sun_path holds only 107 bytes
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited with {self.proc.returncode} during start-up")
            try:
                conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                conn.connect(path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                conn.close()
                if time.monotonic() > deadline:
                    raise BenchError("daemon did not start listening")
                time.sleep(0.0005)
        with conn:
            conn.sendall((line + "\n").encode())
            data = b""
            while not data.endswith(b"\n"):
                chunk = conn.recv(65536)
                if not chunk:
                    raise BenchError("daemon closed the set-up connection")
                data += chunk
        elapsed = time.monotonic() - self.started
        return elapsed, json.loads(data)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for row in status:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def stop(self):
        """SIGTERM, wait for the drain, return the drain report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=DAEMON_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError("daemon did not drain after SIGTERM")
        finally:
            self.log_file.close()
        report = None
        with open(self.log_path) as f:
            for row in f:
                row = row.strip()
                if row.startswith("{"):
                    report = json.loads(row)
        if report is None:
            raise BenchError("daemon printed no drain report")
        report["exit_code"] = self.proc.returncode
        return report

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self.log_file.closed:
            self.log_file.close()


def drain_problems(report):
    problems = []
    rejected = sum(report[k] for k in ("rejected_overloaded", "rejected_oversized",
                                       "rejected_deadline"))
    if report["requests"] != report["served_ok"] + report["served_error"] + rejected:
        problems.append("drain ledger does not balance: " + json.dumps(report))
    if report["leaked_plans"] != 0 or report["exit_code"] != 0:
        problems.append("drain leaked plans: " + json.dumps(report))
    return problems


def stats_problems(stats):
    """The live ledger, taken by a stats request that is itself in flight.
    A worker counts a request served before it leaves the in-flight
    gauge, so an unanswered request is always in flight, never the
    other way round."""
    s = stats["server"]
    rejected = s["rejected_overloaded"] + s["rejected_oversized"] + s["rejected_deadline"]
    unanswered = s["requests"] - s["served_ok"] - s["served_error"] - rejected
    if not 1 <= unanswered <= s["in_flight"]:
        return ["stats ledger does not balance: " + json.dumps(s)[:400]]
    return []


def sim_problems(workload, load, oracle, digest):
    """Simulated statistics: served vs. plan-derived vs. eq. 4.5, and
    exactly the same as every earlier run of the same daemon sources in
    this checkout. A change to the sources starts a new record, so a
    changed design shows as a changed sim_cycles, not as a failure."""
    problems = []
    for label, seen in load["sim"].items():
        if not seen["consistent"]:
            problems.append(f"{label}: responses disagree on cycles/processors/pi")
        want = oracle["sim"].get(label)
        if want is None:
            continue
        if seen["cycles"] != want["cycles"] or seen["processors"] != want["processors"] or \
                (seen["pi"] and seen["pi"] != want["pi"]):
            problems.append(f"{label}: served {seen} but the plan gives {want}")
        if want["fig4"] and not (want["cycles"] == want["eq45"] == want["passes"]):
            problems.append(f"{label}: Fig. 4 mapping but {want['cycles']} cycles, "
                            f"{want['passes']} passes, eq. 4.5 gives {want['eq45']}")
    if workload in ("warm-batch", "single-item-flood"):
        (label, want), = oracle["sim"].items()
        expected = {"warm-batch": 43, "single-item-flood": 31}[workload]
        if not want["fig4"] or want["eq45"] != expected or load["sim"][label]["cycles"] != expected:
            problems.append(f"{label}: expected the Fig. 4 array's {expected} passes (eq. 4.5)")
    # Repeatability across runs of the same sources in this checkout.
    path = os.path.join(OUT_DIR, f"sim-{workload}-{digest[:16]}.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    for label, seen in load["sim"].items():
        now = {k: seen[k] for k in ("cycles", "processors", "pi")}
        if label in known and known[label] != now:
            problems.append(f"{label}: {now} differs from an earlier run's {known[label]}")
        known.setdefault(label, now)
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    return problems


def delta(after, before, *path):
    a, b = after, before
    for key in path:
        a, b = a[key], b[key]
    return a - b


def daemon_layer_metrics(workload, load):
    """Per-layer metrics read off the daemon run: envelopes and stats deltas."""
    before, after = load["stats_before"], load["stats_after"]
    metrics = {
        "serve.queue_us_p50": load["queue_us_p50"],
        "serve.exec_us_p50": load["exec_us_p50"],
        "serve.wire_us_p50": load["wire_us_p50"],
    }
    groups = items = 0
    keys_before = {k["key"]: k for k in before["server"]["coalesce_keys"]}
    for k in after["server"]["coalesce_keys"]:
        old = keys_before.get(k["key"], {"groups": 0, "items": 0})
        groups += k["groups"] - old["groups"]
        items += k["items"] - old["items"]
    coalesced = delta(after, before, "server", "coalesced_items")
    metrics["coalesce.item_share"] = coalesced / load["items"] if load["items"] else 0.0
    metrics["coalesce.occupancy_mean"] = items / groups if groups else 0.0
    metrics["coalesce.bypass"] = delta(after, before, "server", "coalesce_bypass_deadline")
    hits = delta(after, before, "plan_cache", "hits")
    misses = delta(after, before, "plan_cache", "misses")
    metrics["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["cache.evictions"] = delta(after, before, "plan_cache", "evictions")
    metrics["cache.resident_mb"] = after["plan_cache"]["resident_bytes"] / 2**20
    ledger = load["ledger"]
    metrics["exec.compiled_items"] = ledger["compiled_items"]
    # simulate runs every request on the cycle-accurate reference engine.
    metrics["exec.scalar_items"] = ledger["scalar_items"] if workload != "cold-compose" \
        else load["items"]
    return metrics


def source_digest():
    digest = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(base) for f in files)
        for path in sorted(paths):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def metadata(seed, describe, stats, digest):
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or commit
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for row in f:
            if row.startswith("model name"):
                cpu = row.split(":", 1)[1].strip()
                break
    return {
        "commit": commit,
        "source_sha256": digest,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "simd_backend": describe["simd_backend"],
        "daemon_workers": stats["server"]["workers"],
        "seed": seed,
    }


def load_bench_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(args):
    workload, seed, trace = args.workload, args.seed, args.trace
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    digest = source_digest()
    describe = harness("describe", "--workload", workload, "--seed", str(seed))
    problems = []
    attempted = failed = 0

    # Set-up: spawn -> first ok response, several times; the last daemon serves the load.
    setups = []
    daemon = None
    probes = SETUP_PROBES if trace == 0 else 1
    try:
        for i in range(probes):
            daemon = Daemon(f"{workload}-{i}")
            elapsed, response = daemon.first_response(describe["first_line"])
            attempted += 1
            if not (response.get("ok") and response.get("status") == 0 and
                    response["result"].get("correct")):
                failed += 1
                problems.append("set-up request failed: " + json.dumps(response)[:400])
            setups.append(elapsed)
            if i + 1 < probes:
                problems += drain_problems(daemon.stop())
        load = harness("load", "--workload", workload, "--socket", daemon.socket_rel,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       timeout=args.seconds + 120)
        peak_rss_mb = daemon.peak_rss_mb()
        drain = daemon.stop()
    finally:
        if daemon is not None:
            daemon.kill()
    problems += drain_problems(drain)
    problems += stats_problems(load["stats_after"])

    errors = sum(load["errors"].values())
    attempted += load["attempted"]
    failed += errors + load["wrong"]
    problems += load["failures"]
    if load["ok"] == 0:
        problems.append("no request succeeded")

    oracle = harness("oracle", "--workload", workload, "--seed", str(seed))
    if not oracle["correct"]:
        problems += ["oracle: " + f for f in oracle["failures"]]
    problems += sim_problems(workload, load, oracle, digest)

    duration = load["duration_s"]
    cycles = [s["cycles"] for s in load["sim"].values()]
    end_to_end = {
        "items_per_s": load["items"] / duration,
        "requests_per_s": load["ok"] / duration,
        "latency_p50_ms": load["latency_p50_us"] / 1000.0,
        "latency_p99_ms": load["latency_tail_us"] / 1000.0,
        "setup_s": statistics.median(setups),
        "failed_share": failed / attempted,
        "peak_rss_mb": peak_rss_mb,
        "sim_cycles": statistics.fmean(cycles) if cycles else 0.0,
    }
    tail_note = (f"p{100 * load['latency_tail_q']:.4g} of {load['latency_samples']} samples")

    per_layer = traced = None
    spans_path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.jsonl")
    if trace:
        per_layer = daemon_layer_metrics(workload, load)
        # Batch workloads replay coalesced groups of the occupancy just measured.
        traced = harness("trace", "--workload", workload, "--seed", str(seed),
                         "--spans", spans_path,
                         "--occupancy", repr(per_layer["coalesce.occupancy_mean"]))
        per_layer.update(traced["metrics"])

    e2e_units, layer_units = load_bench_metrics()
    printed_units = dict(e2e_units, failed_share="ratio")
    reported = per_layer if trace else end_to_end
    units = layer_units if trace else e2e_units
    missing = [name for name in units if name not in reported]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    metrics = {name: {"value": reported[name], "unit": unit} for name, unit in units.items()}

    document = {
        "workload": workload,
        "trace": trace,
        "seconds": args.seconds,
        "metadata": metadata(seed, describe, load["stats_after"], digest),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "accounting": {"attempted": load["attempted"], "ok": load["ok"],
                       "errors": load["errors"], "wrong": load["wrong"],
                       "refused": sum(load["errors"].get(c, 0) for c in
                                      ("overloaded", "deadline_exceeded", "shutting_down"))},
        "end_to_end": {name: {"value": value, "unit": printed_units[name]}
                       for name, value in end_to_end.items()},
        "latency_tail": {"quantile": load["latency_tail_q"], "samples": load["latency_samples"]},
        "setup_s_samples": setups,
        "per_layer": per_layer,
        "traced_replay": {k: traced[k] for k in ("requests", "requests_per_unit", "self_us")}
        if trace else None,
        "spans": os.path.relpath(spans_path, ROOT) if trace else None,
        "oracle": oracle,
        "drain": drain,
        "load": {k: v for k, v in load.items() if k not in ("stats_before",)},
    }
    result_path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(result_path, "w") as f:
        json.dump(document, f, indent=1)

    meta = document["metadata"]
    print(f"perfbench {workload} seed={seed} trace={trace} commit={meta['commit']} "
          f"cpu='{meta['cpu_model']}' nproc={meta['nproc']} simd={meta['simd_backend']} "
          f"workers={meta['daemon_workers']}")
    acc = document["accounting"]
    print(f"  requests: attempted={acc['attempted']} ok={acc['ok']} errors={acc['errors']} "
          f"wrong={acc['wrong']} refused={acc['refused']}")
    for name, value in end_to_end.items():
        note = f"  ({tail_note})" if name == "latency_p99_ms" else ""
        print(f"  {name:<16} {value:>14.6g} {printed_units[name]}{note}")
    if per_layer is not None:
        print(f"  traced replay: {traced['requests']} requests, "
              f"{traced['requests_per_unit']} per traced unit")
        for name in units:
            print(f"  {name:<28} {per_layer[name]:>14.6g} {units[name]}")
        for name, us in traced["self_us"].items():
            print(f"  self {name:<36} {us:>12.6g} us")
    for problem in problems:
        print("  PROBLEM: " + problem)
    print(f"  results: {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        run(args)
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)


if __name__ == "__main__":
    main()
