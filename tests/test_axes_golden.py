"""Golden transcript of the campaign CLI and the service's spec decomposition.

Every invocation below runs ``python -m repro.campaign`` in-process at 2
samples on one worker and is compared with the recorded transcript in
``tests/golden/axes_golden.json``:

* stdout, with timing masked (the ``wall clock`` line, the ``Sim s``
  column of the campaign table and the ``summary ->`` path);
* the ``--json`` summary, with every ``*wall_seconds`` value masked;
* ``cell_key_payload(cell, version="golden")`` of every cell the run
  measured, in run order (``code_version`` hashes every source file, so it
  is pinned here).

The service half records the labels and cache keys of the cells
``cells_from_spec`` builds for the four service-mix request shapes, a
``workloads`` list and a ``classes`` spec.

Cell order, labels, keys and rendered output are the campaign's public
contract (cached results are addressed by these keys), so the transcript
is never re-recorded to absorb a refactor.  Record it afresh only for an
intended output change::

    PYTHONPATH=src python tests/test_axes_golden.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile

import pytest

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "axes_golden.json")

COMMON_ARGS = ["--samples", "2", "--workers", "1"]

INVOCATIONS = {
    "default": [],
    "classes-kinds": ["--classes", "normal,rounding",
                      "--kinds", "method1,software"],
    "workload-paper-uniform": ["--workload", "paper-uniform"],
    "workload-telco-billing": ["--workload", "telco-billing"],
    "workloads-three": ["--workload",
                        "paper-uniform,telco-billing,carry-stress"],
    "formats-kinds": ["--format", "decimal64,decimal128",
                      "--kinds", "method1,software"],
    "format-workload-differential": ["--format", "decimal128",
                                     "--workload", "carry-stress",
                                     "--differential"],
    "ops-formats-differential": ["--op", "mul,add,fma",
                                 "--format", "decimal64,decimal128",
                                 "--differential"],
    "ops-workloads": ["--op", "add,fma",
                      "--workload", "carry-stress,telco-billing"],
    "pipeline-sweep-differential": ["--pipeline-sweep", "--depths", "1,2",
                                    "--widths", "1,2", "--differential"],
    "shards-per-cell": ["--shards-per-cell", "2"],
}

#: The four request shapes of the service-mix benchmark, plus a workload
#: list and an operand-class mix.
SERVICE_SPECS = {
    "shape-decimal64-multiply": {"samples": 30, "seed": 11,
                                 "fmt": "decimal64", "op": "multiply"},
    "shape-decimal64-add": {"samples": 30, "seed": 12,
                            "fmt": "decimal64", "op": "add"},
    "shape-decimal128-multiply": {"samples": 30, "seed": 13,
                                  "fmt": "decimal128", "op": "multiply"},
    "shape-decimal128-add": {"samples": 30, "seed": 14,
                             "fmt": "decimal128", "op": "add"},
    "workloads": {"samples": 8, "seed": 5,
                  "workloads": ["telco-billing", "carry-stress"]},
    "classes": {"samples": 8, "classes": ["normal", "rounding"],
                "kinds": ["method1", "software"]},
}

_CAMPAIGN_ROW = re.compile(r"^(.*\d%\s+\d+(?:\.\d+)?%)\s+\d+\.\d+$")


def _mask_stdout(text: str) -> list:
    lines = []
    for line in text.splitlines():
        if line.startswith("wall clock "):
            line = "wall clock <masked>"
        elif line.startswith("summary -> "):
            line = "summary -> <masked>"
        else:
            line = _CAMPAIGN_ROW.sub(r"\1 <sim s>", line)
        lines.append(line)
    return lines


def _mask_summary(value):
    if isinstance(value, dict):
        return {
            key: "<masked>" if key.endswith("wall_seconds")
            else _mask_summary(item)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [_mask_summary(item) for item in value]
    return value


def _roundtrip(value):
    """The value as it reads back from the JSON transcript."""
    return json.loads(json.dumps(value))


def run_invocation(args: list) -> dict:
    """Run one CLI invocation and return its masked transcript."""
    from repro.campaign import main
    from repro.core.campaign import CampaignCell
    from repro.service.cache import cell_key_payload

    cells = []
    original = CampaignCell.generate_vectors

    def recording(self):
        cells.append(self)
        return original(self)

    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "summary.json")
        CampaignCell.generate_vectors = recording
        try:
            with contextlib.redirect_stdout(stdout):
                code = main(COMMON_ARGS + list(args) + ["--json", path])
        finally:
            CampaignCell.generate_vectors = original
        with open(path) as handle:
            summary = json.load(handle)
    shards_per_cell = summary["shards_per_cell"]
    return _roundtrip({
        "exit": code,
        "stdout": _mask_stdout(stdout.getvalue()),
        "summary": _mask_summary(summary),
        "cells": [
            cell_key_payload(cell, shards_per_cell, version="golden")
            for cell in cells
        ],
    })


def service_cells(spec: dict) -> list:
    from repro.service.cache import cell_key, cell_key_payload
    from repro.service.engine import cells_from_spec

    return _roundtrip([
        {
            "label": cell.label,
            "key": cell_key(cell, 1, version="golden"),
            "payload": cell_key_payload(cell, 1, version="golden"),
        }
        for cell in cells_from_spec(dict(spec))
    ])


def record() -> dict:
    return {
        "invocations": {
            name: {"args": args, **run_invocation(args)}
            for name, args in INVOCATIONS.items()
        },
        "service": {
            name: {"spec": spec, "cells": service_cells(spec)}
            for name, spec in SERVICE_SPECS.items()
        },
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_transcript_covers_every_case(golden):
    assert set(golden["invocations"]) == set(INVOCATIONS)
    assert set(golden["service"]) == set(SERVICE_SPECS)
    for name, args in INVOCATIONS.items():
        assert golden["invocations"][name]["args"] == args
    for name, spec in SERVICE_SPECS.items():
        assert golden["service"][name]["spec"] == spec


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_cli_invocation_matches_golden(golden, name):
    expected = golden["invocations"][name]
    actual = run_invocation(INVOCATIONS[name])
    assert actual["exit"] == expected["exit"]
    assert actual["stdout"] == expected["stdout"]
    assert actual["summary"] == expected["summary"]
    assert [cell["solution"]["name"] for cell in actual["cells"]] == [
        cell["solution"]["name"] for cell in expected["cells"]
    ]
    assert actual["cells"] == expected["cells"]


@pytest.mark.parametrize("name", sorted(SERVICE_SPECS))
def test_service_spec_cells_match_golden(golden, name):
    expected = golden["service"][name]["cells"]
    actual = service_cells(SERVICE_SPECS[name])
    assert [cell["label"] for cell in actual] == [
        cell["label"] for cell in expected
    ]
    assert actual == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(record(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {GOLDEN_PATH}")
