"""In-memory span tracer that wraps each layer's public entry points.

The tracer never edits ``src/``: :func:`install` replaces a fixed list of
public functions and methods (one or a few per layer) with thin wrappers
that record a span around the original call.  Spans live in memory as
tuples and are written out once, by :meth:`Tracer.dump`, when the traced
process ends.  :func:`summarize` turns a dump into per-layer self times
and counters.

A span is ``(id, parent_id, name, start, end, thread)``.  Parents come from
a per-thread stack, so spans opened on the service's event-loop thread and
on its shard worker thread nest independently.  A layer is the span name's
prefix before the first dot (``rocc.execute`` -> ``rocc``); the layers are
the repository's modules: testgen, sim, rocket, rocc, gem5, verification,
core and service.

Counters that the engines already keep (tier-2 compile seconds, timing
spans, BatchRunner hits) are read before and after each wrapped run and
their differences added to the tracer's own counters, so a warm executor
reused across shards is not counted twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

LAYERS = ("testgen", "sim", "rocket", "rocc", "gem5", "verification", "core",
          "service")


class Tracer:
    """Span and counter store for one process."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans = []
        self.counters = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.thread = threading.get_ident()
        return stack

    def wrap(self, owner, attr: str, name: str, probe=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``probe(args)``, when given, runs before the call and returns a
        ``finish(result)`` callable that runs after it; probes read engine
        counters and must only be attached to low-frequency entry points.
        """
        original = getattr(owner, attr)
        spans_append = self.spans.append
        ids = self._ids
        stack_of = self._stack
        local = self._local
        clock = self.clock

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            finish = probe(args) if probe is not None else None
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans_append((span_id, parent, name, start, end, local.thread))
            if finish is not None:
                finish(result)
            return result

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        """Write every span and counter to ``path`` as one JSON document."""
        names = sorted({span[2] for span in self.spans})
        index = {name: position for position, name in enumerate(names)}
        document = {
            "names": names,
            "spans": [
                [s[0], s[1], index[s[2]], s[3], s[4], s[5]] for s in self.spans
            ],
            "counters": dict(self.counters),
            "clock": getattr(self.clock, "__name__", "clock"),
        }
        with open(path, "w") as handle:
            json.dump(document, handle)


# ----------------------------------------------------------------- probes
def _delta_probe(tracer, attrs, prefix, target=lambda obj: obj,
                 result_fields=()):
    """Probe adding ``target(self).attr`` differences to ``prefix.attr``.

    Probes update the counters without a lock: in every traced process a
    single thread runs the simulators (the campaign's main thread, or the
    service's one shard worker thread).
    """
    counters = tracer.counters

    def probe(args):
        obj = target(args[0])
        before = [getattr(obj, attr) for attr in attrs]

        def finish(result):
            for attr, old in zip(attrs, before):
                counters[f"{prefix}.{attr}"] += getattr(obj, attr) - old
            for field in result_fields:
                counters[f"{prefix}.{field}"] += getattr(result, field)

        return finish

    return probe


def _check_probe(tracer):
    counters = tracer.counters

    def probe(args):
        def finish(report):
            counters["verification.failures"] += report.failed

        return finish

    return probe


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's public entry points (see the module docs).

    Must run before any simulator is constructed: the executor binds the
    accelerator's ``execute`` method when it decodes a RoCC instruction.
    """
    import repro.core.campaign as campaign
    import repro.core.evaluation as evaluation
    import repro.service.engine as engine
    import repro.testgen.generator as generator
    import repro.verification.differential as differential
    from repro.gem5.atomic_cpu import AtomicSimpleCPU
    from repro.rocc.interface import Accelerator
    from repro.rocket.core import RocketEmulator
    from repro.service.cache import ResultCache
    from repro.sim.batch import BatchRunner
    from repro.sim.spike import SpikeSimulator
    from repro.verification.checker import ResultChecker
    from repro.verification.coverage import CoverageTracker

    engine_attrs = ("tier2_compile_seconds", "tier2_blocks", "tier2_deopts")
    wrap = tracer.wrap

    # testgen: vector generation and program build/link (BatchRunner's
    # acquire rebinds a cached template or builds cold).
    wrap(campaign.CampaignCell, "generate_vectors", "testgen.vectors")
    wrap(generator, "build_test_program", "testgen.build")
    wrap(evaluation, "build_test_program", "testgen.build")
    wrap(BatchRunner, "acquire", "testgen.build",
         _delta_probe(tracer, ("hits", "misses"), "sim.batch"))
    wrap(BatchRunner, "acquire_timed", "testgen.build")
    # sim: functional (SPIKE-style) runs; tier-2 counters live on the
    # executor, which a BatchRunner keeps warm across runs.
    wrap(SpikeSimulator, "run", "sim.spike",
         _delta_probe(tracer, engine_attrs, "sim.spike",
                      target=lambda sim: sim.executor,
                      result_fields=("instructions_retired",)))
    # rocket: the cycle-accurate core and its compiled timing tier.
    wrap(RocketEmulator, "run", "rocket.run",
         _delta_probe(tracer, ("timing_compile_seconds", "timing_spans"),
                      "rocket.run",
                      result_fields=("cycles", "instructions_retired")))
    # rocc: every accelerator command, from whichever core issued it.
    wrap(Accelerator, "execute", "rocc.execute")
    # gem5: the atomic CPU model of the differential cross-check.
    wrap(AtomicSimpleCPU, "run", "gem5.run",
         _delta_probe(tracer, engine_attrs, "gem5.run",
                      target=lambda cpu: cpu.executor,
                      result_fields=("instructions_retired",)))
    # verification: golden (and dual-oracle) checks, coverage, model diff.
    wrap(ResultChecker, "check_run", "verification.check",
         _check_probe(tracer))
    wrap(CoverageTracker, "record_all", "verification.coverage")
    wrap(differential, "diff_result_words", "verification.diff")
    # core: shard glue and the order-independent shard merge.
    wrap(campaign, "run_solution_shard", "core.shard")
    for module in (campaign, engine):
        wrap(module, "merge_shard_reports", "core.merge")
    # service: the content-addressed result store.
    wrap(ResultCache, "load", "service.cache_load")
    wrap(ResultCache, "store", "service.cache_store")
    return tracer


def span_cost_ns(clock=time.perf_counter, calls: int = 100_000) -> float:
    """Cost of one wrapped call over a plain one, in nanoseconds.

    Times a no-op method ``calls`` times before and after wrapping it with
    :meth:`Tracer.wrap`; the best of three rounds damps host noise.  A
    traced run's wrapper overhead is about ``spans x span_cost_ns``.
    """

    class Probe:
        def call(self):
            return None

    def best(probe) -> float:
        rounds = []
        for _ in range(3):
            started = time.perf_counter()
            for _ in range(calls):
                probe.call()
            rounds.append(time.perf_counter() - started)
        return min(rounds)

    plain = best(Probe())
    Tracer(clock=clock).wrap(Probe, "call", "probe.call")
    return (best(Probe()) - plain) / calls * 1e9


# -------------------------------------------------------------- analysis
def summarize(document: dict) -> dict:
    """Self time per span name and per layer, span counts and counters.

    A span's self time is its duration minus the durations of its direct
    children.  Spans from every thread are included.
    """
    names = document["names"]
    spans = document["spans"]
    child_time = defaultdict(float)
    for _sid, parent, _name, start, end, _thread in spans:
        if parent:
            child_time[parent] += end - start
    self_by_name = defaultdict(float)
    count_by_name = defaultdict(int)
    for sid, _parent, name, start, end, _thread in spans:
        label = names[name]
        self_by_name[label] += (end - start) - child_time.get(sid, 0.0)
        count_by_name[label] += 1
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for label, seconds in self_by_name.items():
        layer = label.split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + seconds
    return {
        "self_by_name": dict(self_by_name),
        "count_by_name": dict(count_by_name),
        "self_by_layer": self_by_layer,
        "counters": document.get("counters", {}),
        "clock": document.get("clock", "perf_counter"),
    }
