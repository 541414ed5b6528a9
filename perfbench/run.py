"""The repository benchmark: cold Table IV, cross-axis differential, service mix.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-table4 --seed 2018 \\
        --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``paper-table4`` -- the paper's Table IV campaign, decimal64 multiply,
  3 solution kinds x 2000 samples, ``workers=1``, one fresh process per
  campaign;
* ``diff-axes`` -- a differential campaign over decimal64/decimal128 x
  multiply/add/fma, 12 cells x 100 samples, spike + rocket + gem5 and both
  oracles, one fresh process per campaign;
* ``service-mix`` -- a live ``repro.serve --workers 1`` process fed by two
  closed-loop callers (:mod:`service_mix`).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload untraced and traced (:mod:`tracer`) and prints the per-layer
metrics, including the tracing overhead.  Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request

import service_mix
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
PAPER_SPEEDUP_METHOD1 = 2.73

CAMPAIGN_WORKLOADS = ("paper-table4", "diff-axes")
WORKLOADS = CAMPAIGN_WORKLOADS + ("service-mix",)
#: Set-up-only process starts per run, on top of the measured ones.
SETUP_REPEATS = 5
#: Seconds to wait for a child process to start or stop.
CHILD_TIMEOUT = 60
#: Schedule entries whose decimal64 multiply answers give the service's
#: Method-1 speedup: 12 novel specs in the 4-shape rotation, 3 of them
#: decimal64 multiply.
SPEEDUP_PREFIX = 60
#: The server's peak RSS is read when this many requests have answered (or
#: at the end of a shorter run): its job table grows with every request, so
#: a fixed amount of work keeps the figure independent of throughput.
RSS_AT_REQUESTS = 100


# ------------------------------------------------------------------ helpers
def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def speedup_err_pct(speedup: float) -> float:
    return abs(speedup / PAPER_SPEEDUP_METHOD1 - 1.0) * 100.0


def load_pinned() -> dict:
    with open(os.path.join(HERE, "pinned.json")) as handle:
        return json.load(handle)


# --------------------------------------------------------------- campaigns
def spawn_worker(workload: str, seed: int, *extra) -> tuple:
    """``(setup seconds, worker output or None)`` of one fresh process."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "campaign_worker.py"), workload,
         str(seed), *extra],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = process.stdout.readline()
        setup = time.perf_counter() - started
        if ready.strip() != "READY":
            raise RuntimeError(f"worker did not start: {ready!r}")
        lines = process.stdout.read().splitlines()
    finally:
        process.stdout.close()
        process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"worker exited with {process.returncode}")
    return setup, (json.loads(lines[-1]) if lines else None)


def check_campaigns(workload: str, seed: int, outputs: list) -> tuple:
    """``(attempted, failed, errors)`` over a run's campaigns.

    Every shard must be clean, and every campaign's digest must equal the
    pinned one for this seed or, for an unpinned seed, the first
    campaign's.  A digest check counts as one attempted operation.
    """
    attempted = sum(out["shards"] + 1 for out in outputs)
    failed = sum(out["failed"] for out in outputs)
    errors = [error for out in outputs for error in out["errors"]]
    pinned = load_pinned().get(workload, {}).get(str(seed))
    expected = pinned or outputs[0].get("digest")
    for out in outputs:
        if out.get("digest") != expected:
            failed += 1
            errors.append(f"digest {out.get('digest')} != {expected}"
                          + (" (pinned)" if pinned else ""))
    return attempted, failed, errors


def campaign_run(args) -> dict:
    setups = [spawn_worker(args.workload, args.seed, "--setup-only")[0]
              for _ in range(SETUP_REPEATS)]
    outputs = []
    started = time.perf_counter()
    while not outputs or time.perf_counter() - started < args.seconds:
        setup, output = spawn_worker(args.workload, args.seed)
        setups.append(setup)
        outputs.append(output)
    attempted, failed, errors = check_campaigns(args.workload, args.seed,
                                                outputs)
    clean = [out for out in outputs if not out["failed"] and "digest" in out]
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "samples_per_s": metric(
            median([out["samples"] / out["wall_s"] for out in clean]), "1/s"),
        "peak_rss_mb": metric(
            median([out["peak_rss_mb"] for out in outputs]), "MB"),
        "speedup_err_method1_pct": metric(
            median([out["speedup_err_pct"]["method1"] for out in clean]), "%"),
    }
    return finish(errors, attempted, failed, metrics)


def campaign_trace_run(args) -> dict:
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{args.workload}.json")
    rows = []
    outputs = []
    started = time.perf_counter()
    while not rows or time.perf_counter() - started < args.seconds:
        _, plain = spawn_worker(args.workload, args.seed)
        _, traced = spawn_worker(args.workload, args.seed,
                                 "--trace-out", trace_path)
        outputs.extend((plain, traced))
        with open(trace_path) as handle:
            summary = tracer.summarize(json.load(handle))
        rows.append(layer_metrics(summary, traced["wall_s"], plain["wall_s"]))
    attempted, failed, errors = check_campaigns(args.workload, args.seed,
                                                outputs)
    metrics = {name: metric(median([row[name][0] for row in rows]), unit)
               for name, (_, unit) in rows[0].items()}
    metrics.update(service_placeholders())
    return finish(errors, attempted, failed, metrics)


# ----------------------------------------------------------- layer metrics
def layer_metrics(summary: dict, wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced run, as ``name -> (value, unit)``."""
    self_s = summary["self_by_name"]
    counts = summary["count_by_name"]
    counters = summary["counters"]
    layer_s = summary["self_by_layer"]

    def rate(instructions: float, seconds: float) -> float:
        return instructions / seconds if seconds else 0.0

    batch = counters.get("sim.batch.hits", 0) + counters.get(
        "sim.batch.misses", 0)
    rocc_s = self_s.get("rocc.execute", 0.0)
    rocc_n = counts.get("rocc.execute", 0)
    merge_s = self_s.get("core.merge", 0.0)
    named = sum(seconds for layer, seconds in layer_s.items()
                if layer != "core") + merge_s
    other_s = wall - named
    rows = {
        "testgen.vectors_s": (self_s.get("testgen.vectors", 0.0), "s"),
        "testgen.build_s": (self_s.get("testgen.build", 0.0), "s"),
        "sim.batch_hit_ratio": (
            counters.get("sim.batch.hits", 0) / batch if batch else 0.0,
            "ratio"),
        "sim.spike_s": (self_s.get("sim.spike", 0.0), "s"),
        "sim.spike_instr_per_s": (rate(
            counters.get("sim.spike.instructions_retired", 0),
            self_s.get("sim.spike", 0.0)), "1/s"),
        "sim.tier2_compile_s": (
            counters.get("sim.spike.tier2_compile_seconds", 0.0), "s"),
        "sim.tier2_blocks": (counters.get("sim.spike.tier2_blocks", 0),
                             "count"),
        "sim.tier2_deopts": (counters.get("sim.spike.tier2_deopts", 0),
                             "count"),
        "rocket.run_s": (self_s.get("rocket.run", 0.0), "s"),
        "rocket.instr_per_s": (rate(
            counters.get("rocket.run.instructions_retired", 0),
            self_s.get("rocket.run", 0.0)), "1/s"),
        "rocket.timing_compile_s": (
            counters.get("rocket.run.timing_compile_seconds", 0.0), "s"),
        "rocket.timing_spans": (counters.get("rocket.run.timing_spans", 0),
                                "count"),
        "rocket.cycles": (counters.get("rocket.run.cycles", 0), "count"),
        "rocc.execute_s": (rocc_s, "s"),
        "rocc.commands": (rocc_n, "count"),
        "rocc.ns_per_command": (rocc_s / rocc_n * 1e9 if rocc_n else 0.0,
                                "ns"),
        "gem5.run_s": (self_s.get("gem5.run", 0.0), "s"),
        "gem5.instr_per_s": (rate(
            counters.get("gem5.run.instructions_retired", 0),
            self_s.get("gem5.run", 0.0)), "1/s"),
        "gem5.tier2_compile_s": (
            counters.get("gem5.run.tier2_compile_seconds", 0.0), "s"),
        "verification.check_s": (self_s.get("verification.check", 0.0), "s"),
        "verification.coverage_s": (
            self_s.get("verification.coverage", 0.0), "s"),
        "verification.diff_s": (self_s.get("verification.diff", 0.0), "s"),
        "verification.failures": (counters.get("verification.failures", 0),
                                  "count"),
        "core.merge_s": (merge_s, "s"),
        "core.other_s": (other_s, "s"),
        "service.cache_load_s": (self_s.get("service.cache_load", 0.0), "s"),
        "service.cache_store_s": (self_s.get("service.cache_store", 0.0),
                                  "s"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
        "trace.overhead_pct": (
            (wall / untraced_wall - 1.0) * 100.0 if untraced_wall else 0.0,
            "%"),
        "trace.spans": (sum(counts.values()), "count"),
        "trace.ns_per_span": (tracer.span_cost_ns(
            time.thread_time if summary["clock"] == "thread_time"
            else time.perf_counter), "ns"),
        "trace.span_self_sum_s": (sum(layer_s.values()), "s"),
    }
    for layer in tracer.LAYERS:
        seconds = merge_s + other_s if layer == "core" else layer_s[layer]
        rows[f"share.{layer}"] = (seconds / wall if wall else 0.0, "ratio")
    return rows


SERVICE_ROWS = (
    ("service.requests_per_s", "1/s"),
    ("service.hit_p50_ms", "ms"),
    ("service.hit_p90_ms", "ms"),
    ("service.miss_p50_ms", "ms"),
    ("service.miss_p75_ms", "ms"),
    ("service.submit_ms", "ms"),
    ("service.result_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.coalesced_cells", "count"),
    ("service.queue_wait_ms", "ms"),
    ("service.jobs_retained", "count"),
    ("service.busy_s", "s"),
)


def service_placeholders() -> dict:
    """The client-side service metrics of a workload that sends no request."""
    return {name: metric(0.0, unit) for name, unit in SERVICE_ROWS}


# ----------------------------------------------------------------- service
class Server:
    """One ``repro.serve --workers 1`` process behind the launcher."""

    def __init__(self, cache_dir: str, trace_out: str = None) -> None:
        command = [sys.executable, os.path.join(HERE, "serve_launcher.py")]
        if trace_out:
            command += ["--trace-out", trace_out]
        command += ["--", "--port", "0", "--workers", "1",
                    "--cache-dir", cache_dir]
        self.started = time.perf_counter()
        self._log = open(os.path.join(OUT, "server.log"), "a")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        self.base_url = None
        try:
            for line in self.process.stdout:
                if line.startswith("repro campaign service on "):
                    self.base_url = line.split()[4]
                    break
            if self.base_url is None:
                raise RuntimeError("server exited before listening")
            with urllib.request.urlopen(f"{self.base_url}/healthz",
                                        timeout=CHILD_TIMEOUT) as response:
                if response.status != 200:
                    raise RuntimeError(f"/healthz answered {response.status}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - self.started

    def get(self, path: str) -> dict:
        with urllib.request.urlopen(f"{self.base_url}{path}",
                                    timeout=CHILD_TIMEOUT) as response:
            return json.loads(response.read())

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing")

    def stop(self) -> None:
        """SIGINT (repro.serve's clean shutdown), then kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


def fresh_cache_dir(tag: str) -> str:
    path = os.path.join(OUT, f"cache-{os.getpid()}-{tag}")
    shutil.rmtree(path, ignore_errors=True)
    return path


def serve_mix(seed: int, seconds: float = None, limit: int = None,
              trace_out: str = None, tag: str = "run") -> dict:
    """Start a server in a fresh cache, drive the mix, read stats, stop."""
    cache_dir = fresh_cache_dir(tag)
    server = Server(cache_dir, trace_out=trace_out)
    rss = []

    def on_answer(count):
        if count == RSS_AT_REQUESTS:
            rss.append(server.peak_rss_mb())

    try:
        records, wall = service_mix.drive(
            server.base_url, service_mix.Schedule(seed), seconds=seconds,
            limit=limit, on_answer=on_answer)
        stats = server.get("/stats")
        rss = rss or [server.peak_rss_mb()]
    finally:
        server.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {"setup_s": server.setup_s, "records": records, "wall_s": wall,
            "stats": stats, "peak_rss_mb": rss[0],
            "errors": service_mix.check(records)}


def service_setups() -> list:
    setups = []
    for index in range(SETUP_REPEATS):
        cache_dir = fresh_cache_dir(f"setup{index}")
        server = Server(cache_dir)
        server.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)
        setups.append(server.setup_s)
    return setups


def d64_multiply_speedup(records: list) -> float:
    """Method-1 speedup pooled over the decimal64 multiply specs answered
    among the first :data:`SPEEDUP_PREFIX` schedule entries (every run
    answers at least that many, so the value depends on the seed only)."""
    cycles = {}
    for record in records[:SPEEDUP_PREFIX]:
        spec = record["spec"]
        if not record["ok"] or (spec["fmt"], spec["op"]) != (
                "decimal64", "multiply"):
            continue
        cycles[json.dumps(spec, sort_keys=True)] = {
            cell["kind"]: cell["avg_total_cycles"]
            for cell in record["summary"]["cells"]}
    software = sum(kinds["software"] for kinds in cycles.values())
    method1 = sum(kinds["method1"] for kinds in cycles.values())
    return software / method1 if method1 else 0.0


def service_run(args) -> dict:
    os.makedirs(OUT, exist_ok=True)
    setups = service_setups()
    run = serve_mix(args.seed, seconds=args.seconds)
    setups.append(run["setup_s"])
    records = run["records"]
    answered = sum(
        len(record["summary"]["cells"]) * record["spec"]["samples"]
        for record in records if record["ok"])
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "samples_per_s": metric(answered / run["wall_s"], "1/s"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
        "speedup_err_method1_pct": metric(
            speedup_err_pct(d64_multiply_speedup(records)), "%"),
    }
    return finish(run["errors"], len(records), len(run["errors"]), metrics)


def service_trace_run(args) -> dict:
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, "trace-service-mix.json")
    plain = serve_mix(args.seed, seconds=args.seconds, tag="plain")
    records = plain["records"]
    traced = serve_mix(args.seed, limit=len(records), trace_out=trace_path,
                       tag="traced")
    with open(trace_path) as handle:
        summary = tracer.summarize(json.load(handle))
    rows = layer_metrics(summary, traced["wall_s"], plain["wall_s"])
    metrics = {name: metric(value, unit) for name, (value, unit) in rows.items()}

    ok = [record for record in records if record["ok"]]
    kinds = {kind: [r["latency_s"] * 1e3 for r in ok
                    if service_mix.classify(r) == kind]
             for kind in ("hit", "miss")}
    misses = [r for r in ok if service_mix.classify(r) == "miss"]
    cache = plain["stats"]["cache"]
    lookups = cache["hits"] + cache["misses"]
    values = {
        "service.requests_per_s": len(records) / plain["wall_s"],
        "service.hit_p50_ms": percentile(kinds["hit"], 50),
        "service.hit_p90_ms": percentile(kinds["hit"], 90),
        "service.miss_p50_ms": percentile(kinds["miss"], 50),
        "service.miss_p75_ms": percentile(kinds["miss"], 75),
        "service.submit_ms": median([r["submit_s"] * 1e3 for r in ok]),
        "service.result_ms": median([r["result_s"] * 1e3 for r in ok]),
        "service.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "service.coalesced_cells": sum(r["cache"]["coalesced"] for r in ok),
        "service.queue_wait_ms": median(
            [service_mix.queue_wait_s(r) * 1e3 for r in misses]),
        "service.jobs_retained": plain["stats"]["jobs"]["total"],
        "service.busy_s": service_mix.busy_s(records),
    }
    for name, unit in SERVICE_ROWS:
        metrics[name] = metric(values[name], unit)
    errors = plain["errors"] + traced["errors"]
    attempted = len(records) + len(traced["records"])
    print("perfbench service-mix: " + json.dumps({
        "requests": len(records), "hits": len(kinds["hit"]),
        "misses": len(kinds["miss"]),
        "coalesced": len(ok) - len(kinds["hit"]) - len(kinds["miss"]),
    }))
    return finish(errors, attempted, len(errors), metrics)


# -------------------------------------------------------------------- main
def finish(errors: list, attempted: int, failed: int, metrics: dict) -> dict:
    for error in errors[:20]:
        print(f"perfbench FAILED: {error}", file=sys.stderr)
    return {"correct": not errors and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    print("perfbench host: " + json.dumps({
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "machine": platform.machine(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }), flush=True)
    if args.workload == "service-mix":
        runner = service_trace_run if args.trace else service_run
    else:
        runner = campaign_trace_run if args.trace else campaign_run
    result = runner(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
