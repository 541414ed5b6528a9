"""Tour of the workload registry: one mini-campaign, three scenarios.

Runs a small Table IV-style campaign across three registered workloads —
the paper's own mix, telco call rating and the BCD carry-chain stress —
through the sharded campaign engine, then prints the per-workload tables
and the cross-workload speedup comparison.  This is the quickest way to
see that the co-design's advantage is *workload-dependent*: carry-heavy
coefficients gain more from the accelerator than sparse ones.

Run from the repository root::

    PYTHONPATH=src python examples/workload_tour.py [samples] [workers]

See docs/workloads.md for the registry API and how to add a scenario.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.core import reporting  # noqa: E402
from repro.core.campaign import Axes, run_campaign  # noqa: E402
from repro.testgen.config import SolutionKind  # noqa: E402
from repro.workloads import get_workload  # noqa: E402

TOUR = ("paper-uniform", "telco-billing", "carry-stress")


def main(argv=None) -> None:
    argv = argv if argv is not None else sys.argv
    samples = int(argv[1]) if len(argv) > 1 else 200
    workers = int(argv[2]) if len(argv) > 2 else (os.cpu_count() or 1)

    print(f"Running {len(TOUR)} workloads x 2 solutions, "
          f"{samples} samples each, {workers} workers\n")
    for name in TOUR:
        print(f"  {name:<16s} {get_workload(name).description}")
    print()

    axes = Axes(
        workloads=TOUR,
        num_samples=samples,
        kinds=(SolutionKind.METHOD1, SolutionKind.SOFTWARE),
    )
    result = run_campaign(axes.cells(), workers=workers)
    print(reporting.render_tables(result, ("workload",), include_paper=False))
    print()
    print(reporting.render_matrix(result, ("workload",)))
    print()
    print(reporting.render_campaign(result))


if __name__ == "__main__":
    main()
