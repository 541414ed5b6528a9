"""Closed-loop mixed traffic against a live campaign service.

Two caller threads share one seeded schedule of small Table IV specs; each
caller sends its next request only after the previous one has answered.
Every fifth request is a novel spec with a fresh operand seed, its shape
rotating over decimal64/decimal128 x multiply/add; the other 80% repeat one
of the last 8 novel specs (cache reads, some coalescing onto a job still
running).  With 3 solution kinds per shape the 4 shapes need 12 warm
programs while the server's ``BatchRunner`` holds 8, so its program cache
is smaller than its working set.

A request is ``POST /submit``, then ``GET /stream/<job>`` read to its end
(no polling, no sleeping: a hit answers in a few milliseconds), then
``GET /result/<job>``.  Its latency runs from sending the submit to
receiving the result.  The reply's ``cache`` block classes it: a hit has
``computed == 0 and coalesced == 0``; a miss has ``computed > 0``; the
rest coalesced onto another job.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request

SAMPLES = 30
SHAPES = (
    ("decimal64", "multiply"),
    ("decimal64", "add"),
    ("decimal128", "multiply"),
    ("decimal128", "add"),
)
#: One request in five is novel, the other four repeat a recent spec.
NOVEL_EVERY = 5
RECENT = 8
CALLERS = 2
HTTP_TIMEOUT = 120


class Schedule:
    """Deterministic request sequence drawn from ``seed``.

    Every fifth entry, starting with entry 0, is a novel spec; its shape
    rotates through :data:`SHAPES`, so entry 0 is always the paper's
    decimal64 multiply.  The other entries repeat one of the last
    :data:`RECENT` novel specs.  The seed picks the operand seeds and which
    recent spec each repeat names, never the mix itself, so every seed puts
    the same load on the server.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._specs = []
        self._novel = []

    def spec(self, index: int) -> dict:
        while len(self._specs) <= index:
            self._specs.append(self._draw(len(self._specs)))
        return self._specs[index]

    def _draw(self, index: int) -> dict:
        rng = self._rng
        if index % NOVEL_EVERY:
            return rng.choice(self._novel[-RECENT:])
        # A fixed rotation, not a random draw: it keeps the server's load
        # the same for every seed.  Rotating 4 shapes (12 programs) through
        # BatchRunner's 8-entry LRU misses on every novel spec, so each
        # novel spec pays a cold build and compile.
        fmt, op = SHAPES[len(self._novel) % len(SHAPES)]
        spec = {"samples": SAMPLES, "seed": rng.randrange(1, 2**31),
                "fmt": fmt, "op": op}
        self._novel.append(spec)
        return spec


def _http(url: str, body: dict = None):
    """``(status, bytes)`` of one request; non-2xx statuses are returned."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def one_request(base_url: str, spec: dict) -> dict:
    """Submit ``spec``, read its event stream, fetch its result."""
    record = {"spec": spec, "ok": False}
    started = time.perf_counter()
    status, body = _http(f"{base_url}/submit", spec)
    submitted = time.perf_counter()
    record["submit_s"] = submitted - started
    if status != 202:
        record["error"] = f"submit HTTP {status}: {body[:200]!r}"
        return record
    job = json.loads(body)["job"]
    status, body = _http(f"{base_url}/stream/{job}")
    if status != 200:
        record["error"] = f"stream HTTP {status}"
        return record
    record["events"] = [json.loads(line) for line in body.splitlines()
                        if line.strip()]
    fetch = time.perf_counter()
    status, body = _http(f"{base_url}/result/{job}")
    finished = time.perf_counter()
    record["result_s"] = finished - fetch
    record["latency_s"] = finished - started
    if status != 200:
        record["error"] = f"result HTTP {status}: {body[:200]!r}"
        return record
    payload = json.loads(body)
    record["cache"] = payload["cache"]
    record["summary"] = payload["summary"]
    record["ok"] = True
    return record


def drive(base_url: str, schedule: Schedule, seconds: float = None,
          limit: int = None, on_answer=None) -> tuple:
    """Run the closed loop until ``seconds`` pass or ``limit`` requests.

    ``on_answer(count)``, when given, runs after each answer with the
    number answered so far.  Returns ``(records in schedule order, wall
    seconds)``; the wall clock ends when the last in-flight request
    answers.
    """
    lock = threading.Lock()
    next_index = [0]
    records = {}
    started = time.perf_counter()

    def caller():
        while True:
            with lock:
                index = next_index[0]
                if limit is not None and index >= limit:
                    return
                if seconds is not None and time.perf_counter() - started >= seconds:
                    return
                next_index[0] += 1
                spec = schedule.spec(index)
            try:
                record = one_request(base_url, spec)
            except (OSError, ValueError, KeyError) as error:
                record = {"spec": spec, "ok": False,
                          "error": f"{type(error).__name__}: {error}"}
            with lock:
                records[index] = record
                if on_answer is not None:
                    on_answer(len(records))

    threads = [threading.Thread(target=caller) for _ in range(CALLERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return [records[index] for index in sorted(records)], wall


def classify(record: dict) -> str:
    cache = record["cache"]
    if cache["computed"] > 0:
        return "miss"
    if cache["coalesced"] == 0:
        return "hit"
    return "coalesced"


def check(records: list) -> list:
    """Correctness gate: one error string per failed request.

    A request fails on any HTTP or job error, a verification failure in
    its summary, or a summary (less its wall clock) that differs from the
    summary of the request that computed the same spec.
    """
    from repro.service.engine import comparable_summary

    errors = [None] * len(records)
    reference = {}
    for index, record in enumerate(records):
        if not record["ok"]:
            errors[index] = record.get("error", "request failed")
            continue
        if any(cell["verification_failures"]
               for cell in record["summary"]["cells"]):
            errors[index] = "verification failures in summary"
        if record["cache"]["computed"] > 0:
            reference.setdefault(_key(record["spec"]),
                                 comparable_summary(record["summary"]))
    for index, record in enumerate(records):
        if errors[index] is not None:
            continue
        expected = reference.get(_key(record["spec"]))
        if expected is None:
            errors[index] = "no request computed this spec"
        elif comparable_summary(record["summary"]) != expected:
            errors[index] = "summary differs from the computing request's"
    return [error for error in errors if error is not None]


def _key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


def queue_wait_s(record: dict) -> float:
    """Time before a computing job's first shard started simulating.

    From the job's event stream: the first ``shard_done`` timestamp less
    that shard's own ``sim_wall_seconds`` (so vector generation and program
    build of that shard are included).
    """
    for event in record["events"]:
        if event["event"] == "shard_done":
            return event["t"] - event["sim_wall_seconds"]
    return 0.0


def busy_s(records: list) -> float:
    """Simulator busy time summed from every ``shard_done`` event."""
    return sum(
        event["sim_wall_seconds"]
        for record in records if record["ok"]
        for event in record["events"] if event["event"] == "shard_done"
    )
