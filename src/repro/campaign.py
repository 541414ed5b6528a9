"""Command-line entry point for paper-scale evaluation campaigns.

Every invocation builds one :class:`~repro.core.campaign.Axes` from its
flags, expands it into cells, runs them through the sharded multiprocess
engine (:mod:`repro.core.campaign`) and prints one Table IV-style block per
group plus a campaign summary.  Typical paper-scale invocation::

    PYTHONPATH=src python -m repro.campaign --samples 8000 --workers 4

With the default ``--shards-per-cell 1`` the output is bit-identical to the
serial ``EvaluationFramework.evaluate_table_iv`` at the same seed; raise it
to shard each solution's vector set across workers too (see
docs/campaigns.md for the determinism trade-off).

The list flags fill the axes; cells are ordered operation × format ×
workload × solution, and a workload is skipped for every (operation,
format) pair it does not declare:

* ``--workload NAME[,NAME...]`` — registered operand scenarios
  (docs/workloads.md, ``--list-workloads``) instead of the ``--classes``
  mix; tables per workload plus a cross-workload comparison::

      PYTHONPATH=src python -m repro.campaign --samples 2000 --workers 4 \\
          --workload telco-billing,carry-stress,special-values

* ``--format NAME[,NAME...]`` — interchange formats (docs/formats.md);
  tables per (format, workload).  With ``--differential`` and neither
  ``--workload`` nor ``--classes``, every registered workload that
  declares multiply under a requested format is co-simulated across
  spike/rocket/gem5::

      PYTHONPATH=src python -m repro.campaign --samples 200 --workers 4 \\
          --format decimal64,decimal128 --differential

* ``--op NAME[,NAME...]`` — decimal operations (multiply/add/subtract/fma,
  aliases mul/sub/mac; docs/operations.md); tables per (operation, format,
  workload), with ``--kinds`` defaulting to method1 and software::

      PYTHONPATH=src python -m repro.campaign --samples 200 --workers 4 \\
          --op mul,add,fma --format decimal64,decimal128 --differential

* ``--pipeline-sweep`` — the microarchitecture design-space study
  (docs/pipeline.md): every staged-pipeline ``--depths`` × ``--widths``
  variant of Method-1 plus the software baseline, per operation and
  format, rendered as cycles-vs-area Pareto frontiers::

      PYTHONPATH=src python -m repro.campaign --samples 200 --workers 4 \\
          --pipeline-sweep --depths 1,2,4,8 --widths 1,2,4 --differential

Exit status: 0 on success, 1 when a ``--differential`` campaign finds a
divergence, oracle split or check failure, 2 on a usage error (including
an axis combination no cell satisfies).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.core import reporting
from repro.core.campaign import OPERATION_KINDS, Axes, axis_values, run_campaign
from repro.core.pareto import frontier_summary
from repro.errors import ConfigurationError
from repro.workloads import registered_workloads


def _axis_list(axis: str, item=str):
    """argparse type for a comma-separated list axis of :class:`Axes`;
    ``item`` converts each value (``int`` for the integer axes)."""

    def parse(text: str) -> tuple:
        parts = [part.strip() for part in text.split(",") if part.strip()]
        try:
            return axis_values(axis, [item(part) for part in parts])
        except ConfigurationError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{axis} must be comma-separated integers, got {text!r}"
            ) from None

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--samples", type=int,
        default=int(os.environ.get("REPRO_BENCH_SAMPLES", 200)),
        help="samples per cell (default 200; paper scale 8000)",
    )
    parser.add_argument(
        "--workers", type=int, default=os.cpu_count() or 1,
        help="worker processes (default: CPU count; 1 = serial in-process)",
    )
    parser.add_argument(
        "--shards-per-cell", type=int, default=1,
        help="contiguous shards per cell (1 = bit-identical to serial)",
    )
    parser.add_argument("--repetitions", type=int, default=1,
                        help="kernel repetitions per sample")
    parser.add_argument("--seed", type=int, default=2018,
                        help="operand-database seed")
    parser.add_argument(
        "--kinds", type=_axis_list("kinds"), default=None,
        help="comma-separated solution kinds (default: all three Table IV "
             "rows; method1,software with --op)",
    )
    parser.add_argument(
        "--classes", type=_axis_list("operand_classes"), default=None,
        help="comma-separated operand classes (default: the Table IV mix; "
             "mutually exclusive with --workload)",
    )
    parser.add_argument(
        "--workload", type=_axis_list("workloads"), default=None, metavar="NAME[,NAME...]",
        help=(
            "registered workload scenario(s) to evaluate (see "
            "--list-workloads and docs/workloads.md); more than one name "
            "fans (solution x workload) cells across the shards and renders "
            "per-workload tables plus a cross-workload speedup comparison"
        ),
    )
    parser.add_argument(
        "--list-workloads", action="store_true",
        help="list registered workloads and exit",
    )
    parser.add_argument(
        "--format", type=_axis_list("formats"), default=None, metavar="NAME[,NAME...]",
        dest="formats",
        help=(
            "interchange format(s) to evaluate: decimal64 and/or decimal128 "
            "(docs/formats.md); more than one name fans (format x solution) "
            "cells and renders per-format speedup tables.  Combined with "
            "--differential and no explicit --workload, every registered "
            "workload declaring multiply under a requested format is "
            "co-simulated"
        ),
    )
    parser.add_argument(
        "--op", type=_axis_list("operations"), default=None, metavar="NAME[,NAME...]",
        dest="operations",
        help=(
            "decimal operation(s) to evaluate: multiply, add, subtract "
            "and/or fma (aliases mul/sub/mac; docs/operations.md); fans "
            "(operation x format x solution) cells and renders one speedup "
            "table per (operation, format) group plus a cross-operation "
            "comparison.  Defaults to the paper's multiply-only campaign"
        ),
    )
    parser.add_argument(
        "--pipeline-sweep", action="store_true",
        help=(
            "microarchitecture design-space study (docs/pipeline.md): "
            "measure every staged-pipeline (depth x width) Method-1 "
            "variant plus the software baseline per format/operation and "
            "render a cycles-vs-area Pareto frontier per group"
        ),
    )
    parser.add_argument(
        "--depths", type=_axis_list("depths", int), default=(1, 2, 4, 8),
        metavar="N[,N...]",
        help="pipeline stage depths to sweep (default 1,2,4,8; "
             "requires --pipeline-sweep)",
    )
    parser.add_argument(
        "--widths", type=_axis_list("widths", int), default=(1, 2, 4),
        metavar="N[,N...]",
        help="issue widths to sweep (default 1,2,4; requires --pipeline-sweep)",
    )
    parser.add_argument(
        "--differential", action="store_true",
        help=(
            "cross-model differential mode: co-simulate every cell on "
            "spike+rocket+gem5 with the dual (decnumber + stdlib decimal) "
            "oracle, and render the divergence/coverage table; the exit "
            "status is non-zero on any divergence (docs/verification.md)"
        ),
    )
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the functional verification pass")
    parser.add_argument(
        "--mp-start-method", default=None,
        choices=("fork", "spawn", "forkserver"),
        help="multiprocessing start method (default: platform default)",
    )
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the campaign summary as JSON")
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help=(
            "content-addressed result cache directory (docs/service.md): "
            "cells already stored under the same inputs + code version are "
            "served from disk instead of re-simulated, and fresh cells are "
            "persisted for the next run.  The same store backs the "
            "long-running service (python -m repro.serve)"
        ),
    )
    return parser


def _render_cache_line(result, cache) -> str:
    """One-line cache accounting printed under the campaign summary."""
    total = result.cache_hits + result.cache_misses
    rate = result.cache_hits / total if total else 0.0
    return (
        f"result cache: {result.cache_hits}/{total} cells served from "
        f"{cache.path} ({rate:.0%} hit rate, {len(cache)} entries stored)"
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_workloads:
        for name, workload in sorted(registered_workloads().items()):
            print(f"{name:<16s} {workload.description}")
        return 0

    operations = args.operations or ("multiply",)
    formats = args.formats or ("decimal64",)
    workloads = args.workload
    if (args.formats and args.operations is None and args.differential
            and not workloads and args.classes is None
            and not args.pipeline_sweep):
        # The "does the whole pipeline generalise?" sweep: every registered
        # workload that declares a requested (operation, format) pair.
        workloads = tuple(sorted(
            name for name, workload in registered_workloads().items()
            if any(workload.supports_format(fmt) for fmt in formats)
            and any(workload.supports_operation(op) for op in operations)
        ))
    kinds = args.kinds
    if kinds is None and args.operations is not None and not args.pipeline_sweep:
        kinds = OPERATION_KINDS
    try:
        cells = Axes(
            kinds=kinds,
            depths=args.depths if args.pipeline_sweep else None,
            widths=args.widths if args.pipeline_sweep else None,
            formats=formats,
            operations=operations,
            workloads=workloads,
            operand_classes=args.classes,
            num_samples=args.samples,
            seed=args.seed,
            repetitions=args.repetitions,
            verify_functionally=not args.no_verify,
            differential=args.differential,
        ).cells()
    except ConfigurationError as error:
        parser.error(str(error))

    cache = None
    if args.cache_dir:
        from repro.service.cache import ResultCache

        cache = ResultCache(args.cache_dir)
    result = run_campaign(
        cells,
        workers=args.workers,
        shards_per_cell=args.shards_per_cell,
        mp_start_method=args.mp_start_method,
        cache=cache,
    )

    if args.pipeline_sweep:
        print(reporting.render_pipeline_frontier(result))
    else:
        # One table per group of the most specific axis requested.
        if args.operations is not None:
            by = ("op", "fmt", "workload")
        elif args.formats is not None:
            by = ("fmt", "workload")
        elif args.workload:
            by = ("workload",)
        else:
            by = ()
        tables = result.table_iv_by(*by)
        # A cross-workload comparison shows measured rows only.
        print(reporting.render_tables(
            result, by, include_paper=by != ("workload",) or len(tables) == 1
        ))
        if len(tables) > 1:
            print()
            print(reporting.render_matrix(result, by))
    if args.differential:
        print()
        print(reporting.render_differential(result))
    print()
    print(reporting.render_campaign(result))
    if cache is not None:
        print(_render_cache_line(result, cache))
    if args.json:
        summary = result.to_summary()
        if args.pipeline_sweep:
            summary["pipeline_frontier"] = frontier_summary(result)
        elif by:
            summary["table_iv_rows"] = {
                "/".join(value or "default" for value in key): table.rows()
                for key, table in tables.items()
            }
        else:
            summary["table_iv_rows"] = tables[()].rows()
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
        print(f"summary -> {os.path.abspath(args.json)}")
    if args.differential and not result.differential_clean:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
