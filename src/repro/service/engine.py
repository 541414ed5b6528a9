"""Asyncio campaign job engine: decompose, satisfy from cache, fan out, merge.

The engine is the service half of ROADMAP item 5.  A submitted campaign
spec is decomposed into :class:`~repro.core.campaign.CampaignCell`s; every
cell is content-addressed through :mod:`repro.service.cache`:

* **cached** cells are satisfied immediately from the store;
* **in-flight** cells (an identical cell already being computed for another
  job) coalesce onto the first job's future — concurrent duplicate
  submissions cost one computation;
* **novel** cells are sharded with the same
  :func:`~repro.core.campaign.plan_shards` plan as the CLI engine and
  scheduled onto a worker pool via ``loop.run_in_executor``, then stored.

All shard reports — cached, coalesced and fresh alike — merge through
:func:`repro.core.results.merge_shard_reports`, so a fully cache-hit job's
:meth:`~repro.core.campaign.CampaignResult.to_summary` is bit-identical to
the cold run's (modulo the request's own ``wall_seconds``; compare with
:func:`comparable_summary`).

Jobs expose a status snapshot and an append-only NDJSON-able event list that
:mod:`repro.service.server` streams; every mutation happens on the event
loop, so no locks are needed beyond the executor boundary.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.campaign import Axes, CampaignResult, _run_shard_task, plan_shards
from repro.core.results import merge_shard_reports
from repro.errors import ConfigurationError

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"

_SPEC_FIELDS = frozenset({
    "samples", "seed", "repetitions", "kinds", "workload", "workloads",
    "fmt", "op", "classes", "verify", "differential", "shards_per_cell",
    "cache", "label",
})


def _timed_shard_task(task):
    """Worker entry point: one shard and the seconds its worker spent on it.

    Timed inside the worker, so the time a shard waits in the executor's
    queue behind other shards does not count as busy time.
    """
    started = time.monotonic()
    cell_id, report = _run_shard_task(task)
    return cell_id, report, time.monotonic() - started


def cells_from_spec(spec: dict) -> list:
    """Campaign cells for one submitted job spec.

    The spec is the JSON body of ``POST /submit`` (fields documented in
    docs/service.md); unknown fields are rejected so a typo cannot silently
    run a different campaign than the caller meant to key.
    """
    if not isinstance(spec, dict):
        raise ConfigurationError("campaign spec must be a JSON object")
    unknown = sorted(set(spec) - _SPEC_FIELDS)
    if unknown:
        raise ConfigurationError(
            f"unknown campaign spec field(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(_SPEC_FIELDS))})"
        )
    if spec.get("workload") is not None and spec.get("workloads") is not None:
        raise ConfigurationError(
            "'workload' and 'workloads' are mutually exclusive"
        )
    workloads = spec.get("workloads")
    if spec.get("workload") is not None:
        workloads = [spec["workload"]]
    return Axes(
        kinds=spec.get("kinds"),
        formats=[spec.get("fmt", "decimal64")],
        operations=[spec.get("op", "multiply")],
        workloads=workloads,
        operand_classes=spec.get("classes"),
        num_samples=spec.get("samples", 100),
        seed=spec.get("seed", 2018),
        repetitions=spec.get("repetitions", 1),
        verify_functionally=bool(spec.get("verify", True)),
        differential=bool(spec.get("differential", False)),
    ).cells()


def comparable_summary(summary: dict) -> dict:
    """``to_summary()`` minus the request's own wall clock.

    Everything else — including per-cell ``sim_wall_seconds``, which cached
    shards carry from the run that actually computed them — must be
    bit-identical between a cold run and a cache-hit rerun.
    """
    summary = dict(summary)
    summary.pop("wall_seconds", None)
    return summary


@dataclass
class Job:
    """One submitted campaign and everything observable about it."""

    job_id: str
    spec: dict
    cells: list
    shards_per_cell: int
    status: str = QUEUED
    error: str = ""
    result: CampaignResult = None
    summary: dict = None
    events: list = field(default_factory=list)
    cells_cached: int = 0
    cells_coalesced: int = 0
    cells_computed: int = 0
    shards_done: int = 0
    shards_total: int = 0
    wall_seconds: float = 0.0
    created_monotonic: float = field(default_factory=time.monotonic)
    _changed: object = None  # asyncio.Condition, created on the loop

    def to_status(self) -> dict:
        return {
            "job": self.job_id,
            "status": self.status,
            "label": self.spec.get("label", ""),
            "cells": len(self.cells),
            "cells_cached": self.cells_cached,
            "cells_coalesced": self.cells_coalesced,
            "cells_computed": self.cells_computed,
            "shards_total": self.shards_total,
            "shards_done": self.shards_done,
            "events": len(self.events),
            "error": self.error,
            "wall_seconds": round(self.wall_seconds, 4),
        }

    @property
    def finished(self) -> bool:
        return self.status in (DONE, FAILED)


class CampaignService:
    """Long-running engine behind ``python -m repro.serve`` (module docs)."""

    def __init__(self, cache, workers: int = 1, shards_per_cell: int = 1,
                 mp_start_method: str = None) -> None:
        if shards_per_cell < 1:
            raise ConfigurationError("shards_per_cell must be at least 1")
        self.cache = cache
        self.workers = max(1, int(workers or 1))
        self.shards_per_cell = shards_per_cell
        self.mp_start_method = mp_start_method
        self._jobs = {}
        self._inflight = {}          # cell key -> asyncio.Future([shards])
        self._executor = None
        self._ids = itertools.count(1)
        self._started_monotonic = time.monotonic()
        self._busy_seconds = 0.0
        self.shards_computed = 0

    # ------------------------------------------------------------- lifecycle
    def _ensure_executor(self):
        if self._executor is None:
            if self.workers <= 1:
                self._executor = ThreadPoolExecutor(max_workers=1)
            else:
                import multiprocessing

                context = (
                    multiprocessing.get_context(self.mp_start_method)
                    if self.mp_start_method
                    else multiprocessing.get_context()
                )
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=context
                )
        return self._executor

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ----------------------------------------------------------------- jobs
    def job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ConfigurationError(f"unknown job {job_id!r}") from None

    @property
    def jobs(self) -> dict:
        return dict(self._jobs)

    @property
    def in_flight(self) -> int:
        return sum(1 for job in self._jobs.values() if not job.finished)

    def stats(self) -> dict:
        uptime = time.monotonic() - self._started_monotonic
        capacity = uptime * self.workers
        return {
            "workers": self.workers,
            "shards_per_cell": self.shards_per_cell,
            "uptime_seconds": round(uptime, 3),
            "jobs": {
                "total": len(self._jobs),
                "in_flight": self.in_flight,
                "done": sum(1 for j in self._jobs.values() if j.status == DONE),
                "failed": sum(1 for j in self._jobs.values() if j.status == FAILED),
            },
            "shards_computed": self.shards_computed,
            "busy_seconds": round(self._busy_seconds, 3),
            "worker_utilization": round(
                min(1.0, self._busy_seconds / capacity) if capacity else 0.0, 6
            ),
            "cache": self.cache.stats(),
        }

    async def submit(self, spec: dict) -> Job:
        """Validate ``spec``, register a job and start running it."""
        cells = cells_from_spec(spec)
        shards_per_cell = spec.get("shards_per_cell", self.shards_per_cell)
        # JSON gives bools and floats too: ``true`` or ``2.5`` is a caller's
        # mistake (400), not a shard count to coerce.
        if (
            isinstance(shards_per_cell, bool)
            or not isinstance(shards_per_cell, int)
            or shards_per_cell < 1
        ):
            raise ConfigurationError(
                "shards_per_cell must be an integer of at least 1, "
                f"got {shards_per_cell!r}"
            )
        job = Job(
            job_id=f"job-{next(self._ids)}",
            spec=dict(spec),
            cells=cells,
            shards_per_cell=shards_per_cell,
        )
        job.shards_total = sum(
            len(plan_shards(cell.num_samples, shards_per_cell)) for cell in cells
        )
        job._changed = asyncio.Condition()
        self._jobs[job.job_id] = job
        await self._emit(job, "submitted", cells=len(job.cells),
                         shards=job.shards_total)
        asyncio.ensure_future(self._run_job(job))
        return job

    async def wait(self, job: Job) -> Job:
        """Block until ``job`` finishes (used by tests and the smoke runner)."""
        async with job._changed:
            while not job.finished:
                await job._changed.wait()
        return job

    # ----------------------------------------------------------- event plumbing
    async def _emit(self, job: Job, event: str, **fields) -> None:
        record = {
            "event": event,
            "job": job.job_id,
            "seq": len(job.events),
            "t": round(time.monotonic() - job.created_monotonic, 4),
        }
        record.update(fields)
        job.events.append(record)
        async with job._changed:
            job._changed.notify_all()

    async def events(self, job: Job, from_seq: int = 0):
        """Async iterator over job events; ends when the job finishes."""
        index = from_seq
        while True:
            while index < len(job.events):
                yield job.events[index]
                index += 1
            if job.finished:
                return
            async with job._changed:
                if index >= len(job.events) and not job.finished:
                    await job._changed.wait()

    # -------------------------------------------------------------- execution
    async def _run_job(self, job: Job) -> None:
        job.status = RUNNING
        started = time.monotonic()
        try:
            use_cache = bool(job.spec.get("cache", True))
            if not use_cache:
                self.cache.bypass(len(job.cells))
            shard_sets = await asyncio.gather(*(
                self._cell_shards(job, cell_id, cell, use_cache)
                for cell_id, cell in enumerate(job.cells)
            ), return_exceptions=True)
            for shards in shard_sets:
                if isinstance(shards, BaseException):
                    raise shards
            reports = [
                merge_shard_reports(
                    solution_name=cell.solution.name,
                    solution_kind=cell.solution.kind,
                    shards=shards,
                    repetitions=cell.repetitions,
                )
                for cell, shards in zip(job.cells, shard_sets)
            ]
            job.wall_seconds = time.monotonic() - started
            planned = job.shards_total
            job.result = CampaignResult(
                cells=job.cells,
                reports=reports,
                workers=(
                    1 if self.workers <= 1 or planned == 1
                    else min(self.workers, planned)
                ),
                shards_per_cell=job.shards_per_cell,
                wall_seconds=job.wall_seconds,
                cache_hits=job.cells_cached,
                cache_misses=job.cells_computed + job.cells_coalesced,
            )
            job.summary = job.result.to_summary()
            job.status = DONE
            await self._emit(
                job, "done",
                cells_cached=job.cells_cached,
                cells_coalesced=job.cells_coalesced,
                cells_computed=job.cells_computed,
                wall_seconds=round(job.wall_seconds, 4),
            )
        except Exception as error:  # surfaced through /status + /result
            job.wall_seconds = time.monotonic() - started
            job.error = f"{type(error).__name__}: {error}"
            job.status = FAILED
            await self._emit(job, "failed", error=job.error)

    async def _cell_shards(self, job: Job, cell_id: int, cell, use_cache: bool):
        key = self.cache.key_for(cell, job.shards_per_cell)
        if use_cache:
            pending = self._inflight.get(key)
            if pending is not None:
                shards = await asyncio.shield(pending)
                job.cells_coalesced += 1
                job.shards_done += len(shards)
                await self._emit(job, "cell_coalesced", cell=cell.label,
                                 key=key, shards=len(shards))
                return shards
            cached = self.cache.load(key)
            if cached is not None:
                job.cells_cached += 1
                job.shards_done += len(cached)
                await self._emit(job, "cell_cached", cell=cell.label,
                                 key=key, shards=len(cached))
                return cached
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = future
            try:
                shards = await self._compute_cell(job, cell_id, cell)
                self.cache.store(key, shards, label=cell.label)
                future.set_result(shards)
            except BaseException as error:
                future.set_exception(error)
                # A coalesced awaiter consumes the exception; nobody else
                # should trip "exception was never retrieved".
                future.exception()
                raise
            finally:
                self._inflight.pop(key, None)
        else:
            shards = await self._compute_cell(job, cell_id, cell)
        job.cells_computed += 1
        await self._emit(job, "cell_done", cell=cell.label, key=key,
                         shards=len(shards))
        return shards

    async def _compute_cell(self, job: Job, cell_id: int, cell):
        loop = asyncio.get_running_loop()
        executor = self._ensure_executor()
        vectors = await loop.run_in_executor(executor, cell.generate_vectors)
        plan = plan_shards(cell.num_samples, job.shards_per_cell)
        tasks = [
            (cell_id, shard_index, start, stop, cell, vectors[start:stop])
            for shard_index, (start, stop) in enumerate(plan)
        ]
        shards = await asyncio.gather(*(
            self._run_shard(job, cell, task) for task in tasks
        ))
        return sorted(shards, key=lambda s: (s.start, s.shard_index))

    async def _run_shard(self, job: Job, cell, task):
        loop = asyncio.get_running_loop()
        _cell_id, report, busy_seconds = await loop.run_in_executor(
            self._ensure_executor(), _timed_shard_task, task
        )
        self._busy_seconds += busy_seconds
        self.shards_computed += 1
        job.shards_done += 1
        await self._emit(
            job, "shard_done", cell=cell.label, shard=report.shard_index,
            start=report.start, stop=report.stop,
            sim_wall_seconds=round(report.sim_wall_seconds, 4),
        )
        return report
