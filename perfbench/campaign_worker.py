"""One cold campaign in a fresh process: the unit the campaign workloads time.

Usage (run from the repository root, ``src`` on ``PYTHONPATH``)::

    python perfbench/campaign_worker.py paper-table4 2018 [--setup-only]
        [--trace-out PATH]

The worker imports the campaign engine, prints ``READY`` (the parent takes
spawn-to-``READY`` as set-up time), then runs the workload's campaign with
``workers=1`` and prints one JSON line: campaign wall time, samples, shards,
failed shards, a digest of every shard's per-sample cycle counts and result
words, the Table IV speedups and the process's peak resident memory.

``--setup-only`` exits right after ``READY``.  ``--trace-out`` installs the
layer wrappers of :mod:`tracer` before ``READY`` and writes every span to
``PATH`` after the campaign.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

#: Samples per Table IV cell: the 3 solution kinds x 2000 samples.
TABLE4_SAMPLES = 2000
#: Samples per differential cell: 3 ops x 2 formats x 2 kinds x 100.
DIFF_SAMPLES = 100
DIFF_OPERATIONS = ("multiply", "add", "fma")
DIFF_FORMATS = ("decimal64", "decimal128")
#: Cells (one shard each) per campaign: Table IV's 3 solution kinds; the
#: differential grid's operations x formats x 2 verifiable kinds.
CELLS = {
    "paper-table4": 3,
    "diff-axes": len(DIFF_OPERATIONS) * len(DIFF_FORMATS) * 2,
}


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``) in MiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def shard_tap(campaign_module, records: list) -> None:
    """Record each shard's cycle samples and result words for the digest.

    Wraps the campaign engine's per-shard entry point; the cost is one
    read of the result buffer per shard, a handful per campaign.
    """
    original = campaign_module.run_solution_shard

    def run_solution_shard(solution, vectors, **kwargs):
        outcome = original(solution, vectors, **kwargs)
        report = outcome.shard_report
        records.append({
            "kind": solution.kind,
            "fmt": report.fmt,
            "op": report.operation,
            "start": report.start,
            "cycles": list(report.raw_cycle_samples),
            "words": [f"{word:x}" for word in
                      outcome.program.read_results(outcome.timed_result)],
            "gem5_cycles": report.gem5_cycles,
            "check_failed": report.check_failed,
            "divergences": report.divergences,
            "oracle_disagreements": report.oracle_disagreements,
        })
        return outcome

    campaign_module.run_solution_shard = run_solution_shard


def digest(records: list) -> str:
    ordered = sorted(
        records, key=lambda r: (r["kind"], r["fmt"], r["op"], r["start"])
    )
    payload = [
        [r["kind"], r["fmt"], r["op"], r["start"], r["cycles"], r["words"],
         r["gem5_cycles"]]
        for r in ordered
    ]
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def run_campaign(workload: str, seed: int):
    """The workload's campaign call; returns ``(result, table_iv_report)``."""
    from repro.core.campaign import (
        run_operation_campaign,
        run_table_iv_campaign,
    )

    if workload == "paper-table4":
        result = run_table_iv_campaign(
            num_samples=TABLE4_SAMPLES, seed=seed, workers=1
        )
        return result, result.table_iv()
    result = run_operation_campaign(
        DIFF_OPERATIONS, formats=DIFF_FORMATS, num_samples=DIFF_SAMPLES,
        seed=seed, workers=1, differential=True,
    )
    return result, result.table_iv_by_operation()[
        ("multiply", "decimal64", None)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(CELLS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    import repro.core.campaign as campaign
    from repro.core.reporting import PAPER_TABLE_IV

    tracer = None
    if args.trace_out:
        import tracer as tracing

        tracer = tracing.install(tracing.Tracer())
        # The campaign call is the root span: it covers the traced wall.
        tracer.wrap(sys.modules[__name__], "run_campaign", "core.campaign")
    records = []
    shard_tap(campaign, records)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    planned = CELLS[args.workload]
    output = {"samples": 0, "shards": planned, "errors": []}
    started = time.perf_counter()
    try:
        result, table = run_campaign(args.workload, args.seed)
    except Exception as error:  # counted as failed shards, never skipped
        output["wall_s"] = time.perf_counter() - started
        output["errors"].append(f"{type(error).__name__}: {error}")
        output["failed"] = planned
    else:
        output["wall_s"] = time.perf_counter() - started
        output["samples"] = result.total_samples
        output["shards"] = result.total_shards
        bad = [
            r for r in records
            if r["check_failed"] or r["divergences"]
            or r["oracle_disagreements"]
        ]
        output["failed"] = len(bad)
        output["errors"].extend(
            f"{r['kind']} {r['fmt']} {r['op']} [{r['start']}:]: "
            f"{r['check_failed']} check failures, {r['divergences']} "
            f"divergences, {r['oracle_disagreements']} oracle splits"
            for r in bad
        )
        if len(records) != result.total_shards:
            output["failed"] = max(output["failed"], 1)
            output["errors"].append(
                f"digest saw {len(records)} of {result.total_shards} shards"
            )
        output["digest"] = digest(records)
        speedups = table.speedups()
        output["speedup_err_pct"] = {
            kind: abs(speedups[kind] / paper["speedup"] - 1.0) * 100.0
            for kind, paper in PAPER_TABLE_IV.items()
            if paper["speedup"] is not None and speedups.get(kind)
        }
    output["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.dump(args.trace_out)
    print(json.dumps(output), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
