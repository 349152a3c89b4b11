"""Host the annotation server in its own process for the HTTP workloads.

Run from the root of a checkout::

    python3 perfbench/server.py [--history FILE] [--trace FILE]

The server is fitted as ``build_service("mall-tiny")`` does.  ``--history``
pre-loads the store with ``[object_id, m-semantics dicts]`` pairs.
``--trace`` wraps the layers' public functions after set-up and writes
the spans to FILE on exit.  The process prints ``READY <port>`` once it
serves, and drains and exits on SIGTERM or when its standard input closes.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path


async def _serve(service, trace_path) -> None:
    from repro.net.server import AnnotationHTTPServer

    tracer = None
    if trace_path:
        from spans import Tracer, install

        tracer = install(Tracer())
    server = AnnotationHTTPServer(service, host="127.0.0.1", port=0)
    await server.start()
    print(f"READY {server.port}", flush=True)

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)

    class _StdinWatch(asyncio.Protocol):
        def connection_lost(self, exc):
            stop.set()

    await loop.connect_read_pipe(_StdinWatch, sys.stdin)
    await stop.wait()
    await server.stop()
    if tracer is not None:
        tracer.unpatch()
        tracer.dump(trace_path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--history", default=None)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()
    sys.path.insert(0, str(Path("src").resolve()))

    from repro.net.__main__ import build_service
    from repro.persistence.serializers import semantics_from_dicts

    service, _ = build_service("mall-tiny")
    if args.history:
        for object_id, entries in json.loads(Path(args.history).read_text()):
            service.store.publish(object_id, semantics_from_dicts(entries))
    asyncio.run(_serve(service, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
