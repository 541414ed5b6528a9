"""Plain-text rendering of the paper's tables from measured data.

Every render function takes the corresponding report object and returns a
string shaped like the table in the paper, so benchmark output can be compared
against the published numbers side by side (EXPERIMENTS.md records both).
"""

from __future__ import annotations

from repro.asm import macros
from repro.core.campaign import AXIS_NAMES
from repro.isa.rocc import DecimalFunct
from repro.testgen.config import SolutionKind

#: The published numbers, kept here so reports can show paper-vs-measured.
PAPER_TABLE_IV = {
    SolutionKind.METHOD1: {"sw": 1013, "hw": 188, "total": 1201, "speedup": 2.73},
    SolutionKind.SOFTWARE: {"sw": 3285, "hw": 0, "total": 3285, "speedup": None},
    SolutionKind.METHOD1_DUMMY: {"sw": 1446, "hw": 0, "total": 1446, "speedup": 2.27},
}
PAPER_TABLE_V = {
    SolutionKind.METHOD1_DUMMY: {"seconds": 589.0, "speedup": 2.32},
    SolutionKind.SOFTWARE: {"seconds": 1367.0, "speedup": None},
}
PAPER_TABLE_VI = {
    SolutionKind.METHOD1_DUMMY: {"seconds": 0.005443, "speedup": 2.30},
    SolutionKind.SOFTWARE: {"seconds": 0.012511, "speedup": None},
}


def _format_speedup(value) -> str:
    return "-" if value is None else f"{value:.2f}x"


def render_table_ii() -> str:
    """Table II: the decimal accelerator instruction set."""
    lines = [
        "Table II: List of instructions",
        f"{'Function':<12s} {'Function7':<10s} Description",
        "-" * 72,
    ]
    for name, funct in DecimalFunct.BY_NAME.items():
        description = DecimalFunct.DESCRIPTIONS.get(name, "")
        lines.append(f"{name:<12s} {funct:07b}    {description}")
    return "\n".join(lines)


def render_table_iii() -> str:
    """Table III: RoCC instruction encodings produced by the macro generator."""
    rows = macros.table_iii_rows()
    header = (
        f"{'Instruction':<12s} {'funct7':>8s} {'rs2':>6s} {'rs1':>6s} "
        f"{'xd':>3s} {'xs1':>4s} {'xs2':>4s} {'rd':>6s} {'opcode':>8s} {'hex':>12s}"
    )
    lines = ["Table III: RoCC instructions (our encodings)", header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['instruction']:<12s} {row['funct7']:>8s} {row['rs2']:>6s} "
            f"{row['rs1']:>6s} {row['xd']:>3d} {row['xs1']:>4d} {row['xs2']:>4d} "
            f"{row['rd']:>6s} {row['opcode']:>8s} {row['hex']:>12s}"
        )
    return "\n".join(lines)


def render_table_iv(report, include_paper: bool = True) -> str:
    """Table IV: average cycles per multiplication and speedups."""
    lines = [
        f"Table IV: Average number of cycles ({report.num_samples} samples)",
        f"{'Solution':<36s} {'SW part':>9s} {'HW part':>9s} {'Total':>9s} {'Speedup':>9s}",
    ]
    lines.append("-" * 76)
    speedups = report.speedups()
    for kind, cycle_report in report.reports.items():
        speedup = None if kind == report.baseline_kind else speedups.get(kind)
        lines.append(
            f"{cycle_report.solution_name:<36s} "
            f"{cycle_report.avg_sw_cycles:>9.0f} {cycle_report.avg_hw_cycles:>9.0f} "
            f"{cycle_report.avg_total_cycles:>9.0f} {_format_speedup(speedup):>9s}"
        )
        if include_paper and kind in PAPER_TABLE_IV:
            paper = PAPER_TABLE_IV[kind]
            lines.append(
                f"{'  (paper)':<36s} {paper['sw']:>9d} {paper['hw']:>9d} "
                f"{paper['total']:>9d} {_format_speedup(paper['speedup']):>9s}"
            )
    return "\n".join(lines)


def render_table_v(report, include_paper: bool = True) -> str:
    """Table V: host wall-clock comparison."""
    lines = [
        "Table V: Evaluation by real (host) implementation",
        f"{'Solution':<36s} {'Time (sec)':>12s} {'Speedup':>9s}",
        "-" * 60,
    ]
    for kind, row in report.rows.items():
        speedup = None if kind == report.baseline_kind else report.speedup(kind)
        lines.append(
            f"{row.name:<36s} {row.seconds:>12.4f} {_format_speedup(speedup):>9s}"
        )
        if include_paper and kind in PAPER_TABLE_V:
            paper = PAPER_TABLE_V[kind]
            lines.append(
                f"{'  (paper, Intel i7)':<36s} {paper['seconds']:>12.4f} "
                f"{_format_speedup(paper['speedup']):>9s}"
            )
    return "\n".join(lines)


def render_table_vi(report, include_paper: bool = True) -> str:
    """Table VI: Gem5 AtomicSimpleCPU comparison."""
    lines = [
        "Table VI: Evaluation using Gem5 AtomicSimpleCPU (SE mode, RISC-V ISA)",
        f"{'Solution':<36s} {'Time (sec)':>12s} {'Speedup':>9s}",
        "-" * 60,
    ]
    for kind, row in report.rows.items():
        speedup = None if kind == report.baseline_kind else report.speedup(kind)
        lines.append(
            f"{row.name:<36s} {row.seconds:>12.6f} {_format_speedup(speedup):>9s}"
        )
        if include_paper and kind in PAPER_TABLE_VI:
            paper = PAPER_TABLE_VI[kind]
            lines.append(
                f"{'  (paper)':<36s} {paper['seconds']:>12.6f} "
                f"{_format_speedup(paper['speedup']):>9s}"
            )
    return "\n".join(lines)


def render_campaign(result) -> str:
    """Summary of a sharded campaign run (cells, shards, workers, wall clock)."""
    lines = [
        (
            f"Campaign: {len(result.cells)} cells, {result.total_shards} shards, "
            f"{result.workers} workers, {result.total_samples} samples"
        ),
        (
            f"wall clock {result.wall_seconds:.2f}s, "
            f"simulator time {result.total_sim_wall_seconds:.2f}s"
            + (
                f" ({result.total_sim_wall_seconds / result.wall_seconds:.2f}x "
                f"concurrency)"
                if result.wall_seconds
                else ""
            )
        ),
        f"{'Cell':<40s} {'Samples':>8s} {'Shards':>7s} {'Avg cyc':>9s} "
        f"{'I$ hit':>7s} {'D$ hit':>7s} {'Sim s':>7s}",
        "-" * 90,
    ]
    for cell, report in zip(result.cells, result.reports):
        lines.append(
            f"{cell.label:<40s} {report.num_samples:>8d} {report.num_shards:>7d} "
            f"{report.avg_total_cycles:>9.0f} {report.icache_hit_rate:>6.1%} "
            f"{report.dcache_hit_rate:>6.1%} {report.sim_wall_seconds:>7.2f}"
        )
    return "\n".join(lines)


def render_differential(result) -> str:
    """Divergence/coverage table of a differential campaign.

    One row per cell: cross-model divergence count, oracle disagreements,
    kernel-vs-oracle check failures, gem5 total ticks and how many golden
    result conditions the cell's vectors exercised.  Cells with divergences
    also print their first diverging vector, so the table alone is enough
    to start debugging.
    """
    from repro.verification.coverage import CoverageTracker

    total_conditions = len(CoverageTracker.CONDITIONS)
    lines = [
        (
            "Differential campaign: "
            f"{result.total_divergences} divergence(s), "
            f"{result.total_oracle_disagreements} oracle disagreement(s), "
            f"{result.total_check_failures} check failure(s)"
        ),
        f"{'Cell':<40s} {'Samples':>8s} {'Models':>20s} {'Diverge':>8s} "
        f"{'Oracle':>7s} {'Checks':>7s} {'gem5 cyc':>10s} {'Cond':>6s}",
        "-" * 112,
    ]
    first_divergences = []
    covered_overall = set()
    differential_cells = 0
    for cell, report in zip(result.cells, result.reports):
        if not report.differential:
            continue
        differential_cells += 1
        covered_overall.update(
            name for name, count in report.condition_coverage.items() if count
        )
        lines.append(
            f"{cell.label:<40s} {report.num_samples:>8d} "
            f"{'+'.join(report.models):>20s} {report.divergences:>8d} "
            f"{report.oracle_disagreements:>7d} "
            f"{report.verification_failures:>7d} {report.gem5_cycles:>10d} "
            f"{report.conditions_covered:>3d}/{total_conditions:<2d}"
        )
        if report.first_divergence:
            first_divergences.append(f"{cell.label}: {report.first_divergence}")
    if not differential_cells:
        return "Differential campaign: no differential cells"
    missing = sorted(set(CoverageTracker.CONDITIONS) - covered_overall)
    lines.append(
        f"conditions covered across cells: {len(covered_overall)}/"
        f"{total_conditions}"
        + (f" (missing: {', '.join(missing)})" if missing else "")
    )
    if first_divergences:
        lines.append("first divergences:")
        lines.extend("  " + entry for entry in first_divergences)
    return "\n".join(lines)


def _is_paper_experiment(cells) -> bool:
    """The paper's own experiment: decimal64 multiply over its operand mix."""
    return all(
        cell.op == "multiply"
        and cell.fmt == "decimal64"
        and cell.workload in (None, "paper-uniform")
        for cell in cells
    )


def render_tables(result, by=(), include_paper: bool = True) -> str:
    """One Table IV-style block per ``result.table_iv_by(*by)`` group.

    Each block is titled by its group's axis values (``Operation: add ·
    format: decimal128 · workload: carry-stress``; no title when ``by`` is
    empty) and shows speedups against the group's own baseline.  The
    paper's published rows print only next to the paper's own experiment
    (decimal64 multiply over the Table IV mix or ``paper-uniform``), and
    only while ``include_paper`` holds.
    """
    blocks = []
    for key, table in result.table_iv_by(*by).items():
        title = " · ".join(
            f"{AXIS_NAMES[axis]}: {value}"
            for axis, value in zip(by, key) if value is not None
        )
        cells = [cell for cell in result.cells
                 if tuple(getattr(cell, axis) for axis in by) == key]
        block = render_table_iv(
            table, include_paper and _is_paper_experiment(cells)
        )
        if title:
            title = title[0].upper() + title[1:]
            block = "\n".join([title, "=" * len(title), block])
        blocks.append(block)
    return "\n\n".join(blocks)


def render_matrix(result, by) -> str:
    """Cross-group comparison: per-solution average cycles and speedups.

    One row per ``result.table_iv_by(*by)`` group; for every non-baseline
    solution kind the row shows ``avg cycles (speedup vs that group's own
    baseline run)``, so the matrix answers "*where* does the co-design help
    most?" at a glance.
    """
    grouped = result.table_iv_by(*by)
    kinds = []
    for table in grouped.values():
        for kind in table.reports:
            if kind not in kinds:
                kinds.append(kind)
    names = [AXIS_NAMES[axis] for axis in by]
    # The row-label column is headed by the first two axes.
    heading = " / ".join(names[:2]).capitalize()
    width = 18 if len(by) == 1 else 34
    header = f"{heading:<{width}s}" + "".join(f" {kind:>24s}" for kind in kinds)
    lines = [
        f"Cross-{names[0]} comparison (avg cycles, speedup vs baseline)",
        header,
        "-" * len(header),
    ]
    for key, table in grouped.items():
        speedups = table.speedups()
        label = " / ".join(str(value) for value in key if value is not None)
        row = f"{label or 'default':<{width}s}"
        for kind in kinds:
            report = table.reports.get(kind)
            if report is None:
                row += f" {'-':>24s}"
                continue
            cell = f"{report.avg_total_cycles:.0f}"
            if kind != table.baseline_kind:
                cell += f" ({_format_speedup(speedups.get(kind))})"
            row += f" {cell:>24s}"
        lines.append(row)
    return "\n".join(lines)


def render_pipeline_frontier(result) -> str:
    """Pareto tables of a ``--pipeline-sweep`` campaign, one per group.

    Each (operation, format) group renders its design points — the staged-
    pipeline depth × width grid plus the software baseline — sorted by
    cycles, with area and frontier membership, so the cycles-vs-area
    trade-off reads directly off the table (docs/pipeline.md).
    """
    from repro.core.pareto import frontier_of, points_from_campaign

    sections = []
    for (op, fmt), points in points_from_campaign(result).items():
        frontier = {
            (p.name, p.avg_cycles, p.gate_equivalents) for p in frontier_of(points)
        }
        header = (
            f"{'Design point':<36s} {'Avg cycles':>12s} "
            f"{'Gate equiv.':>12s} {'Flip-flops':>11s} {'Pareto':>8s}"
        )
        lines = [
            f"Pipeline microarchitecture sweep — {op} / {fmt} (cycles vs area)",
            header,
            "-" * len(header),
        ]
        for point in sorted(
            points,
            key=lambda p: (p.avg_cycles, p.gate_equivalents, p.name),
        ):
            on_frontier = (
                point.name,
                point.avg_cycles,
                point.gate_equivalents,
            ) in frontier
            lines.append(
                f"{point.name:<36s} {point.avg_cycles:>12.0f} "
                f"{point.gate_equivalents:>12.0f} {point.flip_flops:>11d} "
                f"{'yes' if on_frontier else 'no':>8s}"
            )
        sections.append("\n".join(lines))
    return "\n\n".join(sections)


def render_pareto(points) -> str:
    """Design points and which of them are Pareto-optimal."""
    frontier = {
        point.name
        for point in points
        if not any(other.dominates(point) for other in points)
    }
    lines = [
        "Co-design Pareto points (performance vs hardware overhead)",
        f"{'Design':<36s} {'Avg cycles':>12s} {'Gate equiv.':>12s} {'Pareto':>8s}",
        "-" * 72,
    ]
    for point in sorted(points, key=lambda item: item.avg_cycles):
        lines.append(
            f"{point.name:<36s} {point.avg_cycles:>12.0f} "
            f"{point.gate_equivalents:>12.0f} {'yes' if point.name in frontier else 'no':>8s}"
        )
    return "\n".join(lines)
