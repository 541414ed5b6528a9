"""Sharded multiprocess campaign engine for paper-scale evaluations.

The paper evaluates with 8,000 constrained-random samples per table; the
serial :class:`~repro.core.evaluation.EvaluationFramework` runs every
solution in one process, one simulator run after another.  The campaign
engine decomposes an evaluation into independent units and fans them out
over ``multiprocessing`` workers:

* a **cell** is one (co-design solution × workload-or-operand-mix ×
  RocketConfig) combination with its sample count and seed — one row of a
  table, one scenario of a ``--workload`` campaign, or one design point of
  a config sweep;
* each cell's shared vector set is generated once from the seed
  (bit-identical to the serial framework's) and **sharded** into contiguous
  slices; a shard is the unit of work: the worker builds and links the
  shard's test program once, runs SPIKE-style verification and the Rocket
  measurement, and returns a picklable :class:`ShardCycleReport`;
* shards are merged (order-independently, keyed by sample range) through
  :func:`repro.core.results.merge_shard_reports` — the same accounting the
  serial path uses.

Determinism guarantees:

* the **shard plan is a pure function** of (num_samples, shards_per_cell),
  so a fixed plan produces the same merged report for any worker count,
  any completion order, and any multiprocessing start method;
* with ``shards_per_cell=1`` each cell is measured in a single simulator
  run, exactly like the serial framework — the merged report is
  **bit-identical** to ``EvaluationFramework.evaluate_table_iv`` at the
  same seed (parallelism then comes from running cells concurrently);
* with ``shards_per_cell>1`` each shard starts with cold caches and a fresh
  replacement PRNG, which perturbs a handful of boundary samples — results
  are still exactly reproducible for the same plan, but differ slightly
  from the single-shard measurement (see docs/campaigns.md).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field

from repro.core.evaluation import run_solution_shard
from repro.core.results import (
    SolutionCycleReport,
    TableIVReport,
    merge_shard_reports,
)
from repro.core.solution import (
    CoDesignSolution,
    microarchitecture_variants,
    standard_solutions,
)
from repro.decnumber.formats import resolve_format_name
from repro.decnumber.operations import resolve_operation_name
from repro.errors import ConfigurationError, DecimalError
from repro.rocket.config import RocketConfig
from repro.testgen.config import SolutionKind
from repro.verification.database import OperandClass, VerificationDatabase


@dataclass(frozen=True)
class CampaignCell:
    """One evaluation cell: solution × operand mix × core configuration."""

    solution: CoDesignSolution
    num_samples: int
    operand_classes: tuple = OperandClass.TABLE_IV_MIX
    repetitions: int = 1
    seed: int = 2018
    rocket_config: RocketConfig = field(default_factory=RocketConfig)
    verify_functionally: bool = True
    label: str = ""
    #: Registered workload name; when set, the cell's vectors come from the
    #: workload registry (``operand_classes`` is then ignored) and campaign
    #: reports can be grouped per workload.
    workload: str = None
    #: Differential cell: co-simulate spike/rocket/gem5 over every shard,
    #: check with the dual oracle, and record divergences in the merged
    #: report instead of raising (see docs/verification.md).
    differential: bool = False
    #: Interchange format the cell evaluates (a first-class sweep axis:
    #: selects the kernels, accelerator sizing, operand distributions and
    #: oracle contexts — see docs/formats.md).
    fmt: str = "decimal64"
    #: Decimal operation the cell evaluates (the second first-class sweep
    #: axis: selects the kernels, the vector shape — pairs vs fma triples —
    #: and the oracle operation; see docs/operations.md).
    op: str = "multiply"

    def __post_init__(self) -> None:
        from repro.decnumber.formats import resolve_format_name
        from repro.decnumber.operations import resolve_operation_name
        from repro.errors import DecimalError

        if self.num_samples < 1:
            raise ConfigurationError("cell num_samples must be at least 1")
        try:
            object.__setattr__(self, "fmt", resolve_format_name(self.fmt))
            object.__setattr__(self, "op", resolve_operation_name(self.op))
        except DecimalError as error:
            raise ConfigurationError(str(error)) from None
        if self.workload is not None:
            from repro.workloads import get_workload

            workload = get_workload(self.workload)  # raises on unknown names
            if not workload.supports_format(self.fmt):
                raise ConfigurationError(
                    f"workload {self.workload!r} does not support format "
                    f"{self.fmt!r} (declares {workload.formats})"
                )
            if not workload.supports_operation(self.op):
                raise ConfigurationError(
                    f"workload {self.workload!r} does not support operation "
                    f"{self.op!r} (declares {workload.operations}); see "
                    "docs/operations.md"
                )
        if not self.label:
            label = self.solution.kind
            if self.workload is not None:
                label = f"{self.solution.kind} @ {self.workload}"
            if self.op != "multiply":
                label = f"{label} ({self.op})"
            if self.fmt != "decimal64":
                label = f"{label} [{self.fmt}]"
            if self.differential:
                label = f"{label} [diff]"
            object.__setattr__(self, "label", label)

    def generate_vectors(self) -> list:
        """The cell's full vector set — identical to the serial framework's."""
        from repro.testgen.generator import draw_vectors

        return draw_vectors(
            self.num_samples,
            self.seed,
            operand_classes=self.operand_classes,
            workload=self.workload,
            fmt=self.fmt,
            operation=self.op,
        )


#: The cell axes a campaign result can be grouped by, with display names.
AXIS_NAMES = {"op": "operation", "fmt": "format", "workload": "workload"}


def _distinct(cells, axis: str) -> tuple:
    """Distinct values of one cell axis, in first-seen order."""
    return tuple(dict.fromkeys(getattr(cell, axis) for cell in cells))


def plan_shards(num_samples: int, shards: int) -> list:
    """Split ``num_samples`` into ``shards`` contiguous (start, stop) slices.

    The plan is deterministic and depends only on its arguments: the first
    ``num_samples % shards`` shards are one sample longer.  Empty slices
    (more shards than samples) are dropped.
    """
    if shards < 1:
        raise ConfigurationError("shards_per_cell must be at least 1")
    shards = min(shards, num_samples)
    base, extra = divmod(num_samples, shards)
    plan = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        plan.append((start, stop))
        start = stop
    return plan


#: Per-process warm-simulator cache (see :mod:`repro.sim.batch`).  Pool
#: workers live across many shard tasks, so shards sharing a program shape
#: (same solution x format x shard size) reuse one warm executor — tier-2
#: compiled superblocks, promotion heat and speculation state carry over
#: instead of being rebuilt per shard.  Batch mode is bit-identical to the
#: cold path, so the engine's determinism guarantees are unchanged.
_SHARD_RUNNER = None


def _shard_runner():
    global _SHARD_RUNNER
    if _SHARD_RUNNER is None:
        from repro.sim.batch import BatchRunner

        _SHARD_RUNNER = BatchRunner()
    return _SHARD_RUNNER


def _run_shard_task(task):
    """Worker entry point: run one shard and return its picklable report."""
    cell_id, shard_index, start, stop, cell, vectors = task
    outcome = run_solution_shard(
        cell.solution,
        vectors,
        operand_classes=cell.operand_classes,
        repetitions=cell.repetitions,
        seed=cell.seed,
        rocket_config=cell.rocket_config,
        verify_functionally=cell.verify_functionally,
        shard_index=shard_index,
        start=start,
        workload=cell.workload,
        differential=cell.differential,
        fmt=cell.fmt,
        operation=cell.op,
        runner=_shard_runner(),
    )
    return cell_id, outcome.shard_report


@dataclass
class CampaignResult:
    """Merged outcome of one campaign run."""

    cells: list
    reports: list                  # SolutionCycleReport, aligned with cells
    #: Worker processes the shard *plan* was sized for (1 = in-process).
    #: Plan-based rather than task-based so a cache-hit rerun (which
    #: schedules no tasks) summarises identically to the cold run.
    workers: int
    shards_per_cell: int
    wall_seconds: float
    baseline_kind: str = SolutionKind.SOFTWARE
    #: Content-addressed cache accounting (0/0 when no cache was attached).
    #: Deliberately *not* part of :meth:`to_summary`: a warm rerun's summary
    #: must stay bit-identical to the cold run's.
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def total_samples(self) -> int:
        return sum(cell.num_samples for cell in self.cells)

    @property
    def total_shards(self) -> int:
        return sum(report.num_shards for report in self.reports)

    @property
    def total_sim_wall_seconds(self) -> float:
        """Summed simulator wall-clock across all shards (CPU work done)."""
        return sum(report.sim_wall_seconds for report in self.reports)

    @property
    def differential(self) -> bool:
        """True when any cell ran in cross-model differential mode."""
        return any(cell.differential for cell in self.cells)

    @property
    def total_divergences(self) -> int:
        return sum(report.divergences for report in self.reports)

    @property
    def total_oracle_disagreements(self) -> int:
        return sum(report.oracle_disagreements for report in self.reports)

    @property
    def total_check_failures(self) -> int:
        return sum(report.verification_failures for report in self.reports)

    @property
    def differential_clean(self) -> bool:
        """No divergence, oracle split or check failure across all cells."""
        return not (
            self.total_divergences
            or self.total_oracle_disagreements
            or self.total_check_failures
        )

    def report_for(self, kind: str, workload: str = None,
                   fmt: str = None, op: str = None) -> SolutionCycleReport:
        """The merged report of one solution kind (plus workload/format/op).

        ``workload=None``/``fmt=None``/``op=None`` mean "unspecified": they
        match only when the matching cells all share one workload/format/
        operation, and raise on an ambiguous multi-workload, multi-format
        or multi-operation campaign rather than silently picking the first.
        ``fmt`` and ``op`` accept aliases ("quad", "mul", "mac").
        """
        wanted = {
            "workload": workload,
            "fmt": None if fmt is None else resolve_format_name(fmt),
            "op": None if op is None else resolve_operation_name(op),
        }
        matches = [
            (cell, report)
            for cell, report in zip(self.cells, self.reports)
            if cell.solution.kind == kind
            and all(value is None or getattr(cell, axis) == value
                    for axis, value in wanted.items())
        ]
        if not matches:
            raise ConfigurationError(
                f"no campaign cell evaluated kind {kind!r}"
                + "".join(f" with {axis}={value!r}"
                          for axis, value in wanted.items() if value)
            )
        for axis, value in wanted.items():
            seen = _distinct([cell for cell, _ in matches], axis)
            if value is None and len(seen) > 1:
                raise ConfigurationError(
                    f"kind {kind!r} was evaluated under several "
                    f"{AXIS_NAMES[axis]}s ({sorted(map(str, seen))}); "
                    f"pass report_for(kind, {axis}=...)"
                )
        return matches[0][1]

    @property
    def workloads(self) -> tuple:
        """Distinct workload names of the cells, in first-seen order.

        Cells without a workload (legacy class-mix cells) appear as ``None``.
        """
        return _distinct(self.cells, "workload")

    @property
    def formats(self) -> tuple:
        """Distinct interchange formats of the cells, in first-seen order."""
        return _distinct(self.cells, "fmt")

    @property
    def operations(self) -> tuple:
        """Distinct decimal operations of the cells, in first-seen order."""
        return _distinct(self.cells, "op")

    def table_iv(self, baseline_kind: str = None) -> TableIVReport:
        """The campaign's rows as one Table IV report (one cell per kind)."""
        grouped = self.table_iv_by(baseline_kind=baseline_kind)
        return grouped.get((), TableIVReport(
            num_samples=0, baseline_kind=baseline_kind or self.baseline_kind
        ))

    def table_iv_by(self, *axes: str, baseline_kind: str = None) -> dict:
        """One Table IV report per distinct value of the cell ``axes``.

        ``axes`` name cell fields among ``"op"``, ``"fmt"`` and
        ``"workload"``; keys are tuples of their values in first-seen
        order, and each group's speedups are computed against the group's
        own baseline run.  ``table_iv_by()`` is the whole campaign as one
        group.  A group holding two cells of one solution kind raises: the
        campaign varies over an axis the grouping leaves out.
        """
        unknown = [axis for axis in axes if axis not in AXIS_NAMES]
        if unknown:
            raise ConfigurationError(
                f"cannot group by {unknown}; choose from {tuple(AXIS_NAMES)}"
            )
        grouped: dict = {}
        rows: dict = {}
        for cell, cycle_report in zip(self.cells, self.reports):
            key = tuple(getattr(cell, axis) for axis in axes)
            table = grouped.setdefault(key, TableIVReport(
                num_samples=cell.num_samples,
                baseline_kind=baseline_kind or self.baseline_kind,
            ))
            kind = cell.solution.kind
            earlier = rows.setdefault(key, {}).setdefault(kind, cell)
            if earlier is not cell:
                differing = [axis for axis in AXIS_NAMES
                             if getattr(earlier, axis) != getattr(cell, axis)]
                raise ConfigurationError(
                    f"cell group {key!r} has more than one {kind!r} cell"
                    + (f" (they differ in {', '.join(differing)}; group by "
                       "that axis too)" if differing else "")
                )
            table.reports[kind] = cycle_report
            table.num_samples = max(table.num_samples, cell.num_samples)
        return grouped

    def table_iv_by_operation(self, baseline_kind: str = None) -> dict:
        """``table_iv_by("op", "fmt", "workload")``."""
        return self.table_iv_by("op", "fmt", "workload",
                                baseline_kind=baseline_kind)

    def to_summary(self) -> dict:
        """JSON-ready summary (used by the CLI and the campaign benchmark)."""
        summary = {
            "workers": self.workers,
            "shards_per_cell": self.shards_per_cell,
            "wall_seconds": round(self.wall_seconds, 4),
            "sim_wall_seconds": round(self.total_sim_wall_seconds, 4),
            "total_samples": self.total_samples,
            "total_shards": self.total_shards,
            "cells": [
                {
                    "label": cell.label,
                    "kind": cell.solution.kind,
                    "workload": cell.workload,
                    "fmt": cell.fmt,
                    "op": cell.op,
                    "solution": report.solution_name,
                    "samples": report.num_samples,
                    "shards": report.num_shards,
                    "avg_total_cycles": round(report.avg_total_cycles, 3),
                    "avg_hw_cycles": round(report.avg_hw_cycles, 3),
                    "avg_sw_cycles": round(report.avg_sw_cycles, 3),
                    "icache_hit_rate": round(report.icache_hit_rate, 6),
                    "dcache_hit_rate": round(report.dcache_hit_rate, 6),
                    "rocc_commands": report.rocc_commands,
                    "verification_failures": report.verification_failures,
                    "sim_wall_seconds": round(report.sim_wall_seconds, 4),
                }
                for cell, report in zip(self.cells, self.reports)
            ],
        }
        if self.differential:
            summary["differential"] = {
                "divergences": self.total_divergences,
                "oracle_disagreements": self.total_oracle_disagreements,
                "check_failures": self.total_check_failures,
            }
            for cell_summary, report in zip(summary["cells"], self.reports):
                if not report.differential:
                    continue
                cell_summary["differential"] = {
                    "models": list(report.models),
                    "divergences": report.divergences,
                    "oracle_disagreements": report.oracle_disagreements,
                    "gem5_cycles": report.gem5_cycles,
                    "conditions_covered": report.conditions_covered,
                    "first_divergence": report.first_divergence,
                }
        return summary


def run_campaign(
    cells,
    workers: int = 1,
    shards_per_cell: int = 1,
    mp_start_method: str = None,
    cache=None,
) -> CampaignResult:
    """Run every cell, sharded and fanned out over worker processes.

    ``workers <= 1`` runs all shards in-process (the serial reference mode);
    any worker count produces the same merged reports for the same shard
    plan, because the plan — not the scheduling — defines the measurement.
    ``mp_start_method`` overrides the platform's multiprocessing start
    method ("fork" is fastest where available).

    ``cache`` may pass a :class:`repro.service.cache.ResultCache`: cells
    whose content address (inputs + code fingerprint) is already stored are
    satisfied without generating vectors or scheduling shards, and freshly
    computed cells are persisted for the next run.  Cached and fresh shard
    reports merge through the same accounting, so a warm rerun's summary is
    bit-identical to the cold run's (the ``--cache-dir`` CLI mode and the
    campaign service both rest on this).
    """
    cells = list(cells)
    if not cells:
        raise ConfigurationError("a campaign needs at least one cell")

    started = time.perf_counter()
    plans = [plan_shards(cell.num_samples, shards_per_cell) for cell in cells]
    planned_shards = sum(len(plan) for plan in plans)
    # Vectors are generated once per cell in the parent and pre-sliced into
    # the tasks, so workers never regenerate a cell's full set per shard.
    # Cache-hit cells skip vector generation entirely — their measurements
    # are already on disk.
    tasks = []
    shard_reports = {}
    cell_keys = [None] * len(cells)
    computed_ids = set()
    for cell_id, cell in enumerate(cells):
        if cache is not None:
            key = cache.key_for(cell, shards_per_cell)
            cell_keys[cell_id] = key
            cached = cache.load(key)
            if cached is not None:
                shard_reports[cell_id] = list(cached)
                continue
            computed_ids.add(cell_id)
        shard_reports[cell_id] = []
        vectors = cell.generate_vectors()
        for shard_index, (start, stop) in enumerate(plans[cell_id]):
            tasks.append(
                (cell_id, shard_index, start, stop, cell, vectors[start:stop])
            )

    if workers is None:
        workers = os.cpu_count() or 1
    # Plan-based, so a fully cached rerun reports the same worker count as
    # the cold run it is replaying (see CampaignResult.workers).
    pool_size = 1 if workers <= 1 or planned_shards == 1 else min(
        workers, planned_shards
    )
    if pool_size == 1 or len(tasks) <= 1:
        for task in tasks:
            cell_id, report = _run_shard_task(task)
            shard_reports[cell_id].append(report)
    elif tasks:
        context = (
            multiprocessing.get_context(mp_start_method)
            if mp_start_method
            else multiprocessing.get_context()
        )
        with context.Pool(processes=min(pool_size, len(tasks))) as pool:
            for cell_id, report in pool.imap_unordered(_run_shard_task, tasks):
                shard_reports[cell_id].append(report)
    if cache is not None:
        for cell_id in sorted(computed_ids):
            cache.store(
                cell_keys[cell_id],
                shard_reports[cell_id],
                label=cells[cell_id].label,
            )
    wall_seconds = time.perf_counter() - started

    reports = [
        merge_shard_reports(
            solution_name=cell.solution.name,
            solution_kind=cell.solution.kind,
            shards=shard_reports[cell_id],
            repetitions=cell.repetitions,
        )
        for cell_id, cell in enumerate(cells)
    ]
    return CampaignResult(
        cells=cells,
        reports=reports,
        workers=pool_size,
        shards_per_cell=shards_per_cell,
        wall_seconds=wall_seconds,
        cache_hits=len(cells) - len(computed_ids) if cache is not None else 0,
        cache_misses=len(computed_ids),
    )




#: The paper's Table IV rows, in the paper's order.
TABLE_IV_KINDS = (
    SolutionKind.METHOD1,
    SolutionKind.SOFTWARE,
    SolutionKind.METHOD1_DUMMY,
)
#: Default rows of an operation sweep: the two *verifiable* Table IV kinds.
#: The dummy row measures multiply-shaped stub traffic and contributes
#: nothing to a per-operation speedup comparison.
OPERATION_KINDS = (SolutionKind.METHOD1, SolutionKind.SOFTWARE)


def _integer(value, what: str, minimum: int = None) -> int:
    # Service specs arrive as decoded JSON, so only a real integer counts:
    # ``int()`` would run ``true`` as 1 and truncate 2.5 or 1.9 silently.
    # The CLI parses its integer flags before they get here.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{what} must be at least {minimum}, got {value}")
    return value


def _choice(allowed: tuple, noun: str):
    def resolve(value):
        if value not in allowed:
            raise ConfigurationError(
                f"unknown {noun} {value!r} (choose from {allowed})"
            )
        return value

    return resolve


def _workload(name) -> str:
    from repro.workloads import get_workload

    if not isinstance(name, str):
        raise ConfigurationError(f"workload names must be strings, got {name!r}")
    get_workload(name)  # unknown names get the registry's did-you-mean
    return name


def _decimal_name(resolve):
    def resolved(name) -> str:
        try:
            return resolve(name)
        except DecimalError as error:
            raise ConfigurationError(str(error)) from None

    return resolved


#: Every list axis of :class:`Axes`: (resolver of one value, noun).
_LIST_AXES = {
    "kinds": (_choice(SolutionKind.ALL, "solution kind"), "solution kind"),
    "depths": (lambda value: _integer(value, "depth", 1), "depth"),
    "widths": (lambda value: _integer(value, "width", 1), "width"),
    "formats": (_decimal_name(resolve_format_name), "format name"),
    "operations": (_decimal_name(resolve_operation_name), "operation name"),
    "workloads": (_workload, "workload name"),
    "operand_classes": (_choice(OperandClass.ALL, "operand class"),
                        "operand class"),
}


def axis_values(axis: str, values) -> tuple:
    """Validate one list axis of :class:`Axes`: canonical, non-empty, unique.

    The CLI's comma-separated flags and the service's JSON spec fields both
    go through this one validator, so they accept exactly the same values.
    Aliases resolve to canonical names ("mul" -> "multiply", "quad" ->
    "decimal128"); anything else raises :class:`ConfigurationError`.
    """
    resolve, noun = _LIST_AXES[axis]
    if isinstance(values, str) or not isinstance(values, (list, tuple)):
        raise ConfigurationError(f"{axis} must be a list, got {values!r}")
    resolved = tuple(resolve(value) for value in values)
    if not resolved:
        raise ConfigurationError(f"at least one {noun} is required")
    duplicates = sorted({str(value) for value in resolved
                         if resolved.count(value) > 1})
    if duplicates:
        raise ConfigurationError(f"duplicate {noun}(s): {', '.join(duplicates)}")
    return resolved


@dataclass(frozen=True)
class Axes:
    """The axes of one campaign: the only place cells are expanded.

    The list axes are the solution ``kinds`` — or, with ``depths`` and
    ``widths``, the staged-pipeline design points of Method-1 plus the
    software baseline — the interchange ``formats``, the decimal
    ``operations``, and either registered ``workloads`` or an
    ``operand_classes`` mix.  The scalar fields apply to every cell.
    Construction validates and canonicalises every list axis through
    :func:`axis_values`, so an ``Axes`` built from CLI flags and one built
    from a service spec cannot disagree about what is valid.
    """

    kinds: tuple = None            # None: the three Table IV rows
    depths: tuple = None           # pipeline sweep, together with widths
    widths: tuple = None
    formats: tuple = ("decimal64",)
    operations: tuple = ("multiply",)
    workloads: tuple = None        # None: the operand_classes mix
    operand_classes: tuple = None  # None: OperandClass.TABLE_IV_MIX
    num_samples: int = 100
    seed: int = 2018
    repetitions: int = 1
    verify_functionally: bool = True
    differential: bool = False
    rocket_config: RocketConfig = None
    solutions: dict = None

    def __post_init__(self) -> None:
        sweep = self.depths is not None or self.widths is not None
        if sweep and (self.depths is None or self.widths is None):
            raise ConfigurationError("a pipeline sweep needs depths and widths")
        if sweep and self.kinds is not None:
            raise ConfigurationError(
                "kinds and a pipeline sweep are mutually exclusive: the sweep "
                "defines its own design points (Method-1 variants + baseline)"
            )
        if sweep and self.workloads is not None:
            raise ConfigurationError(
                "workloads and a pipeline sweep are mutually exclusive: the "
                "sweep measures the operand-class mix per design point"
            )
        if self.workloads is not None and self.operand_classes is not None:
            raise ConfigurationError(
                "classes and workloads are mutually exclusive: a workload "
                "defines its own operand distribution"
            )
        for axis in _LIST_AXES:
            if getattr(self, axis) is not None:
                object.__setattr__(
                    self, axis, axis_values(axis, getattr(self, axis))
                )
        for name, what in (("num_samples", "samples"), ("seed", "seed"),
                           ("repetitions", "repetitions")):
            object.__setattr__(self, name, _integer(getattr(self, name), what))

    def _design_points(self, solutions: dict, op: str, fmt: str) -> list:
        """``(solution, label)`` per row of one (operation, format) group."""
        if self.depths is None:
            return [(solutions[kind], "") for kind in self.kinds or TABLE_IV_KINDS]
        points = [solutions[SolutionKind.SOFTWARE]]
        points.extend(microarchitecture_variants(self.depths, self.widths, fmt=fmt))
        # Sweep labels name the design point and always show op and format.
        suffix = " [diff]" if self.differential else ""
        return [(point, f"{point.name} ({op}) [{fmt}]{suffix}") for point in points]

    def cells(self) -> list:
        """The campaign cells, ordered op × fmt × workload × solution.

        A workload is skipped for every (operation, format) pair it does
        not declare; a workload declaring none of the requested pairs
        raises rather than silently vanishing from the campaign.
        """
        from repro.workloads import get_workload

        pairs = [(op, fmt) for op in self.operations for fmt in self.formats]

        def supports(name, op, fmt) -> bool:
            if name is None:
                return True
            workload = get_workload(name)
            return workload.supports_format(fmt) and workload.supports_operation(op)

        for name in self.workloads or ():
            if not any(supports(name, op, fmt) for op, fmt in pairs):
                workload = get_workload(name)
                raise ConfigurationError(
                    f"workload {name!r} supports none of the requested "
                    f"(operation, format) combinations "
                    f"({list(self.operations)} x {list(self.formats)}; "
                    f"declares {workload.operations} x {workload.formats})"
                )
        solutions = (
            self.solutions if self.solutions is not None else standard_solutions()
        )
        rocket_config = (
            self.rocket_config if self.rocket_config is not None else RocketConfig()
        )
        cells = []
        for op, fmt in pairs:
            points = self._design_points(solutions, op, fmt)
            for name in self.workloads or (None,):
                if not supports(name, op, fmt):
                    continue
                cells.extend(
                    CampaignCell(
                        solution=solution,
                        num_samples=self.num_samples,
                        operand_classes=(
                            self.operand_classes or OperandClass.TABLE_IV_MIX
                        ),
                        repetitions=self.repetitions,
                        seed=self.seed,
                        rocket_config=rocket_config,
                        verify_functionally=self.verify_functionally,
                        label=label,
                        workload=name,
                        differential=self.differential,
                        fmt=fmt,
                        op=op,
                    )
                    for solution, label in points
                )
        return cells


def run_operation_campaign(
    operations,
    formats=("decimal64",),
    num_samples: int = 100,
    kinds=None,
    repetitions: int = 1,
    seed: int = 2018,
    operand_classes=OperandClass.TABLE_IV_MIX,
    rocket_config: RocketConfig = None,
    verify_functionally: bool = True,
    solutions: dict = None,
    workloads=None,
    workers: int = 1,
    shards_per_cell: int = 1,
    mp_start_method: str = None,
    differential: bool = False,
    cache=None,
) -> CampaignResult:
    """Run an (operation × format × workload-or-mix × kind) campaign.

    ``kinds`` defaults to :data:`OPERATION_KINDS`; group the result with
    :meth:`CampaignResult.table_iv_by_operation`.
    """
    axes = Axes(
        kinds=kinds or OPERATION_KINDS,
        formats=formats,
        operations=operations,
        workloads=workloads or None,
        operand_classes=None if workloads else operand_classes,
        num_samples=num_samples,
        seed=seed,
        repetitions=repetitions,
        verify_functionally=verify_functionally,
        differential=differential,
        rocket_config=rocket_config,
        solutions=solutions,
    )
    return run_campaign(axes.cells(), workers=workers,
                        shards_per_cell=shards_per_cell,
                        mp_start_method=mp_start_method, cache=cache)


def run_table_iv_campaign(
    num_samples: int = 100,
    kinds=None,
    repetitions: int = 1,
    seed: int = 2018,
    operand_classes=OperandClass.TABLE_IV_MIX,
    rocket_config: RocketConfig = None,
    verify_functionally: bool = True,
    solutions: dict = None,
    workers: int = 1,
    shards_per_cell: int = 1,
    mp_start_method: str = None,
    workload: str = None,
    differential: bool = False,
    fmt: str = "decimal64",
    op: str = "multiply",
    cache=None,
) -> CampaignResult:
    """Convenience wrapper: plan, run and merge a Table IV campaign."""
    axes = Axes(
        kinds=kinds or None,
        formats=(fmt,),
        operations=(op,),
        workloads=None if workload is None else (workload,),
        operand_classes=operand_classes if workload is None else None,
        num_samples=num_samples,
        seed=seed,
        repetitions=repetitions,
        verify_functionally=verify_functionally,
        differential=differential,
        rocket_config=rocket_config,
        solutions=solutions,
    )
    return run_campaign(axes.cells(), workers=workers,
                        shards_per_cell=shards_per_cell,
                        mp_start_method=mp_start_method, cache=cache)
