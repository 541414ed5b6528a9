"""Start the campaign service, optionally with the layer wrappers installed.

Usage (run from the repository root, ``src`` on ``PYTHONPATH``)::

    python perfbench/serve_launcher.py [--trace-out PATH] -- \\
        --port 0 --workers 1 --cache-dir DIR

Everything after ``--`` goes unchanged to ``repro.serve``'s entry point.
With ``--trace-out`` the launcher wraps every layer's public entry points
(:func:`tracer.install`) before the server starts, so server-side spans
come from outside ``src/``, and writes them to ``PATH`` when the server
stops (SIGINT ends ``repro.serve`` cleanly).
"""

from __future__ import annotations

import argparse
import sys
import time


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    serve_args = []
    if "--" in argv:
        split = argv.index("--")
        argv, serve_args = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    from repro.serve import main as serve_main

    if args.trace_out is None:
        return serve_main(serve_args)
    import tracer as tracing

    # Per-thread CPU clock: the event loop and the shard worker thread
    # share one interpreter lock, so wall-clock spans on the two threads
    # would each include the other's running time.
    tracer = tracing.install(tracing.Tracer(clock=time.thread_time))
    try:
        return serve_main(serve_args)
    finally:
        tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
