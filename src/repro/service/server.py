"""Stdlib-only HTTP front end for the campaign service.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
third-party framework, matching the repository's no-new-dependencies rule.
Every response closes the connection, JSON in and out:

============================  =============================================
``GET  /healthz``             liveness + package version
``GET  /stats``               cache hit rate, jobs in flight, worker
                              utilization (:meth:`CampaignService.stats`)
``POST /submit``              campaign spec (docs/service.md) -> ``202``
                              with the job id
``GET  /status/<job>``        job snapshot (cells cached/coalesced/computed)
``GET  /result/<job>``        ``200`` with the merged campaign summary once
                              done, ``409`` while running, ``500`` if failed
``GET  /stream/<job>``        NDJSON progress events, one JSON object per
                              line, ending when the job finishes
============================  =============================================

:func:`serve_in_background` runs the whole stack (event loop, service,
server) on a daemon thread for tests, benchmarks and the CI smoke runner;
``python -m repro.serve`` runs it in the foreground.
"""

from __future__ import annotations

import asyncio
import json
import threading

from repro._version import __version__
from repro.errors import ConfigurationError
from repro.service.engine import DONE, FAILED, CampaignService

_MAX_BODY_BYTES = 4 * 1024 * 1024
_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    500: "Internal Server Error",
}


class _BadRequest(Exception):
    """A request answered with an error status before it is routed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServiceServer:
    """One listening socket wired to one :class:`CampaignService`."""

    def __init__(self, service: CampaignService, host: str = "127.0.0.1",
                 port: int = 8437) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.service.shutdown()

    # ------------------------------------------------------------- plumbing
    async def _handle_connection(self, reader, writer) -> None:
        try:
            request = await self._read_request(reader)
            if request is not None:
                await self._route(writer, *request)
        except ConnectionError:
            pass
        except _BadRequest as error:
            try:
                await _send_json(writer, error.status, {"error": str(error)})
            except ConnectionError:
                pass
        except Exception as error:  # defensive: a handler bug must not kill the loop
            try:
                await _send_json(writer, 500, {
                    "error": f"{type(error).__name__}: {error}"
                })
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, AttributeError):
                pass

    async def _read_request(self, reader):
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            return None
        try:
            method, target, _protocol = request_line.split(" ", 2)
        except ValueError:
            return None
        headers = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _BadRequest(400, f"bad Content-Length: {raw_length!r}")
        length = int(raw_length)
        if length > _MAX_BODY_BYTES:
            raise _BadRequest(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _route(self, writer, method, target, headers, body) -> None:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            await _send_json(writer, 200, {
                "status": "ok", "version": __version__,
            })
        elif path == "/stats" and method == "GET":
            await _send_json(writer, 200, self.service.stats())
        elif path == "/submit":
            if method != "POST":
                await _send_json(writer, 405, {"error": "POST /submit"})
                return
            await self._submit(writer, body)
        elif path.startswith("/status/") and method == "GET":
            await self._with_job(writer, path[len("/status/"):], self._status)
        elif path.startswith("/result/") and method == "GET":
            await self._with_job(writer, path[len("/result/"):], self._result)
        elif path.startswith("/stream/") and method == "GET":
            await self._with_job(writer, path[len("/stream/"):], self._stream)
        else:
            await _send_json(writer, 404, {"error": f"no route for {method} {path}"})

    async def _with_job(self, writer, job_id, handler) -> None:
        try:
            job = self.service.job(job_id)
        except ConfigurationError as error:
            await _send_json(writer, 404, {"error": str(error)})
            return
        await handler(writer, job)

    # -------------------------------------------------------------- handlers
    async def _submit(self, writer, body: bytes) -> None:
        try:
            spec = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            await _send_json(writer, 400, {"error": f"bad JSON body: {error}"})
            return
        try:
            job = await self.service.submit(spec)
        except ConfigurationError as error:
            await _send_json(writer, 400, {"error": str(error)})
            return
        await _send_json(writer, 202, {
            "job": job.job_id,
            "status": job.status,
            "cells": len(job.cells),
            "shards": job.shards_total,
            "status_url": f"/status/{job.job_id}",
            "result_url": f"/result/{job.job_id}",
            "stream_url": f"/stream/{job.job_id}",
        })

    async def _status(self, writer, job) -> None:
        await _send_json(writer, 200, job.to_status())

    async def _result(self, writer, job) -> None:
        if job.status == FAILED:
            await _send_json(writer, 500, {
                "job": job.job_id, "status": job.status, "error": job.error,
            })
        elif job.status != DONE:
            await _send_json(writer, 409, {
                "job": job.job_id, "status": job.status,
                "error": "job still running; poll /status or read /stream",
            })
        else:
            await _send_json(writer, 200, {
                "job": job.job_id,
                "status": job.status,
                "cache": {
                    "cells": len(job.cells),
                    "hits": job.cells_cached,
                    "coalesced": job.cells_coalesced,
                    "computed": job.cells_computed,
                },
                "wall_seconds": round(job.wall_seconds, 4),
                "summary": job.summary,
            })

    async def _stream(self, writer, job) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        async for event in self.service.events(job):
            writer.write(json.dumps(event).encode() + b"\n")
            await writer.drain()


async def _send_json(writer, status: int, payload: dict) -> None:
    body = json.dumps(payload, indent=2).encode() + b"\n"
    reason = _REASONS.get(status, "OK")
    writer.write(
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n".encode()
    )
    writer.write(body)
    await writer.drain()


async def serve_forever(cache, host: str = "127.0.0.1", port: int = 8437,
                        workers: int = 1, shards_per_cell: int = 1,
                        mp_start_method: str = None, ready=None) -> None:
    """Run the service until cancelled (the ``python -m repro.serve`` core)."""
    service = CampaignService(
        cache, workers=workers, shards_per_cell=shards_per_cell,
        mp_start_method=mp_start_method,
    )
    server = ServiceServer(service, host=host, port=port)
    await server.start()
    if ready is not None:
        ready(server)
    print(f"repro campaign service on http://{server.host}:{server.port} "
          f"(cache: {cache.path}, workers: {service.workers})", flush=True)
    try:
        await asyncio.Event().wait()
    finally:
        await server.stop()


class BackgroundServer:
    """The full service stack on a daemon thread (tests/benchmarks/smoke).

    Usage::

        with serve_in_background(cache, workers=2) as server:
            urllib.request.urlopen(server.base_url + "/healthz")
    """

    def __init__(self, cache, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 1, shards_per_cell: int = 1,
                 mp_start_method: str = None) -> None:
        self.cache = cache
        self.host = host
        self.port = port
        self.service = None
        self._loop = None
        self._server = None
        self._thread = None
        self._ready = threading.Event()
        self._stop_event = None
        self._startup_error = None
        self._kwargs = dict(
            workers=workers, shards_per_cell=shards_per_cell,
            mp_start_method=mp_start_method,
        )

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise RuntimeError("campaign service failed to start within 30s")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def main():
            self.service = CampaignService(self.cache, **self._kwargs)
            self._server = ServiceServer(self.service, self.host, self.port)
            await self._server.start()
            self.port = self._server.port
            self._stop_event = asyncio.Event()
            self._ready.set()
            await self._stop_event.wait()
            await self._server.stop()

        try:
            self._loop.run_until_complete(main())
        except Exception as error:
            self._startup_error = error
            self._ready.set()
        finally:
            self._loop.close()

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None:
            if self._thread.is_alive() and self._stop_event is not None:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout=30)

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_background(cache, **kwargs) -> BackgroundServer:
    """Start :class:`BackgroundServer` and return it once it is listening."""
    return BackgroundServer(cache, **kwargs).start()
