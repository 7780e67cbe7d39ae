"""``repro-serve`` — the evaluation-service command line.

Usage::

    repro-serve serve --port 8451 --max-batch-size 64 --linger-ms 5
    repro-serve serve --no-cache --queue-depth 512 --default-timeout 30
    repro-serve request --url http://127.0.0.1:8451 request.json
    echo '{"kind": "delay", ...}' | repro-serve request -

``serve`` runs the asyncio server in the foreground until SIGINT/SIGTERM,
then drains gracefully (in-flight and queued requests all complete) and
prints the metrics summary.  ``request`` posts one JSON request document
— or a JSON-lines file of several, which the server micro-batches — and
pretty-prints the response(s).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from typing import Any, List, Optional

from ..engine.backends import BACKEND_NAMES
from ..engine.store import add_store_arguments, describe_store, \
    store_from_args
from .client import ServeClient, ServeClientError
from .server import ReproServer
from .service import ReproService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Asyncio evaluation service with dynamic "
                    "micro-batching over the vectorized kernel layer.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    serve_parser = subparsers.add_parser(
        "serve", help="run the evaluation server in the foreground")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8451,
                              help="TCP port (0 = ephemeral)")
    serve_parser.add_argument("--max-batch-size", type=int, default=64,
                              metavar="N",
                              help="lanes per dispatched batch")
    serve_parser.add_argument("--linger-ms", type=float, default=5.0,
                              metavar="MS",
                              help="max milliseconds the first queued "
                                   "request waits for company")
    serve_parser.add_argument("--queue-depth", type=int, default=1024,
                              metavar="N",
                              help="admission-control bound per request "
                                   "class (excess requests get 429)")
    serve_parser.add_argument("--default-timeout", type=float, default=None,
                              metavar="SECONDS",
                              help="queue deadline for requests without "
                                   "their own timeout")
    serve_parser.add_argument("--cache-dir", default=None, metavar="DIR",
                              help="result cache directory (default: "
                                   "$REPRO_CACHE_DIR or ./.repro-cache)")
    serve_parser.add_argument("--no-cache", action="store_true",
                              help="serve without the result cache")
    add_store_arguments(serve_parser)
    serve_parser.add_argument("--backend", choices=BACKEND_NAMES,
                              default="thread",
                              help="execution backend batch evaluations "
                                   "dispatch onto (default: thread)")
    serve_parser.add_argument("--backend-workers", type=int, default=None,
                              metavar="N",
                              help="backend worker count (default: "
                                   "min(8, cpu count))")

    request_parser = subparsers.add_parser(
        "request", help="post a request document to a running server")
    request_parser.add_argument("document",
                                help="path to a JSON / JSON-lines request "
                                     "file, or '-' for stdin")
    request_parser.add_argument("--url", default="http://127.0.0.1:8451",
                                help="server base URL")
    request_parser.add_argument("--timeout", type=float, default=30.0,
                                help="client-side socket timeout")

    return parser


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _serve(args: argparse.Namespace) -> int:
    if args.max_batch_size < 1 or args.queue_depth < 1:
        print("repro-serve: --max-batch-size and --queue-depth must be "
              ">= 1", file=sys.stderr)
        return 2
    if args.linger_ms < 0:
        print(f"repro-serve: --linger-ms must be >= 0, got "
              f"{args.linger_ms}", file=sys.stderr)
        return 2
    if args.backend_workers is not None and args.backend_workers < 1:
        print("repro-serve: --backend-workers must be >= 1",
              file=sys.stderr)
        return 2
    cache = None if args.no_cache else store_from_args(args)
    service = ReproService(
        cache=cache, max_batch_size=args.max_batch_size,
        max_linger=args.linger_ms / 1000.0,
        max_queue_depth=args.queue_depth,
        default_timeout=args.default_timeout,
        backend=args.backend, backend_workers=args.backend_workers)
    server = ReproServer(service, host=args.host, port=args.port)

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # non-Unix event loops
                pass
        await server.start()
        print(f"repro-serve: listening on {server.url} "
              f"(batch<= {args.max_batch_size}, linger "
              f"{args.linger_ms:g}ms, queue<= {args.queue_depth}, "
              f"backend {service.backend.name}x{service.backend.workers}, "
              f"cache {describe_store(cache)})",
              flush=True)
        await stop.wait()
        print("repro-serve: draining ...", flush=True)
        await server.shutdown()

    asyncio.run(_main())
    print(service.metrics.format_summary())
    return 0


# ----------------------------------------------------------------------
# request
# ----------------------------------------------------------------------
def _read_documents(path: str) -> List[Any]:
    text = (sys.stdin.read() if path == "-"
            else open(path, "r", encoding="utf-8").read())
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty request document")
    try:
        return [json.loads(line) for line in lines]
    except json.JSONDecodeError:
        # A single pretty-printed (multi-line) JSON object is fine too.
        return [json.loads(text)]


def _request(args: argparse.Namespace) -> int:
    try:
        documents = _read_documents(args.document)
    except (OSError, ValueError) as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2
    with ServeClient.from_url(args.url, timeout=args.timeout) as client:
        try:
            if len(documents) == 1:
                responses = [client.evaluate(documents[0])]
            else:
                responses = client.evaluate_many(documents)
        except ServeClientError as exc:
            print(json.dumps({"ok": False, "error": exc.error}, indent=2,
                             sort_keys=True, allow_nan=False))
            return 1
        except (ConnectionError, OSError) as exc:
            print(f"repro-serve: cannot reach {args.url}: {exc}",
                  file=sys.stderr)
            return 2
    for response in responses:
        print(json.dumps(response, indent=2, sort_keys=True,
                         allow_nan=False))
    return 0 if all(r.get("ok") for r in responses) else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _serve(args)
    return _request(args)


if __name__ == "__main__":
    sys.exit(main())
