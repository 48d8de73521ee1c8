"""What ``repro serve``, ``repro fleet`` and a fleet worker share.

A serving process is one :class:`~repro.service.PredictionService`
behind one :class:`~repro.service.ServiceServer`: ``repro serve`` runs
it over ULM logs, a fleet worker runs it over nothing (observations
arrive by ``observe``), and ``repro fleet`` hands its workers the
options it was given.  This module says once what those options are
(:data:`SERVICE_OPTIONS` — the parser arguments, the argv that parses
back to them, the objects built from them) and what such a process does
from its first connection to its last: serve until signalled, then
checkpoint every resident link, seal the tails and close the store.

Only ``argparse`` loads with the module, so the fleet front (no numpy)
and every ``--help`` can import it; the serving stack loads inside the
functions that run it.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Iterable, List, Tuple

__all__ = [
    "SERVICE_OPTIONS",
    "add_service_options",
    "add_serve_options",
    "service_argv",
    "open_service",
    "close_service",
    "serve_until_signalled",
]

#: What a ``PredictionService`` + ``ServiceServer`` pair can be told,
#: as ``(flag, add_argument keywords)``.  A new option is one row here
#: and its use in :func:`open_service` / :func:`serve_until_signalled`.
SERVICE_OPTIONS: Tuple[Tuple[str, dict], ...] = (
    ("--spec", dict(
        default="C-AVG15",
        help="default predictor spec for unqualified queries")),
    ("--max-resident", dict(
        type=int, default=None, metavar="N",
        help="evict least-recently-used links to the state dir past N "
             "resident links (needs --state-dir)")),
    ("--fallback", dict(
        action="store_true",
        help="answer unknown links with a low-confidence link-agnostic "
             "aggregate instead of no value (a fleet also serves "
             "last-good answers while a shard is down)")),
    ("--fsync", dict(
        action="store_true",
        help="fsync store writes (power-loss durability; default covers "
             "process death only)")),
    ("--no-quality", dict(
        action="store_true",
        help="disable the online accuracy tracker "
             "(prediction/observation pairing)")),
)


def add_service_options(parser: argparse.ArgumentParser) -> None:
    for flag, keywords in SERVICE_OPTIONS:
        parser.add_argument(flag, **keywords)


def add_serve_options(parser: argparse.ArgumentParser) -> None:
    """One serving process: where it listens, where it keeps state, and
    the service options."""
    parser.add_argument("--socket", default=None,
                        help="unix socket path to answer queries on")
    parser.add_argument("--state-dir", default=None, metavar="DIR",
                        help="durable tiered store directory: write-through "
                             "history, checkpoint on shutdown, warm restart")
    add_service_options(parser)


def service_argv(args: argparse.Namespace) -> List[str]:
    """The service options of ``args`` as argv that parses back to them."""
    argv: List[str] = []
    for flag, keywords in SERVICE_OPTIONS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if keywords.get("action") == "store_true":
            if value:
                argv.append(flag)
        elif value is not None:
            argv += [flag, str(value)]
    return argv


def open_service(args: argparse.Namespace):
    """The service the serve options of ``args`` describe, over a
    :class:`~repro.store.LinkStore` when they name a ``--state-dir``."""
    from repro.core.predictors.registry import resolve
    from repro.service import PredictionService

    try:
        resolve(args.spec)
    except KeyError:
        raise SystemExit(f"unknown predictor {args.spec!r}") from None
    store = None
    if args.state_dir:
        from repro.store import LinkStore

        store = LinkStore(args.state_dir, fsync=args.fsync)
    elif args.max_resident is not None:
        raise SystemExit("--max-resident needs --state-dir (nowhere to evict to)")
    return PredictionService(
        default_spec=args.spec,
        degraded_fallback=args.fallback,
        store=store,
        max_resident=args.max_resident,
        quality=not args.no_quality,
    )


def close_service(service) -> None:
    """Spill for a warm restart: checkpoint every resident link, seal
    the tails, close the store.  Nothing to do without a store."""
    store = service.store
    if store is None:
        return
    written = service.checkpoint_all(seal=True)
    store.close()
    print(f"checkpointed {written} links to {store.root}",
          file=sys.stderr, flush=True)


def serve_until_signalled(
    service,
    args: argparse.Namespace,
    background: Iterable[Tuple[str, Callable]] = (),
) -> int:
    """Answer on ``args.socket`` until SIGTERM / SIGINT, then drain.

    The caller has checked that ``--socket`` was given, before it opened
    the service (and with it the state dir).  The first signal stops the
    accept loop, even one that arrives before the socket is bound;
    in-flight work finishes, the ``background`` loops (``(thread name,
    loop(stopping))`` — the log followers and metrics dumps of ``repro
    serve``) are joined so the final checkpoint covers what they
    delivered, and :func:`close_service` runs.  The first signal also
    gives SIGINT back its default action, so a second SIGINT kills the
    process at once, without the final checkpoint.
    """
    import signal
    import threading

    from repro.service import ServiceServer

    server = ServiceServer(service, args.socket)
    stopping = threading.Event()

    def _graceful(signum, frame) -> None:
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        if not stopping.is_set():
            stopping.set()
            server.request_stop()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    threads = [
        threading.Thread(target=loop, args=(stopping,), name=name, daemon=True)
        for name, loop in background
    ]
    for thread in threads:
        thread.start()
    print(f"serving {len(service.links())} links on {args.socket}",
          file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        stopping.set()
        for thread in threads:
            # A wedged loop must not block shutdown forever.
            thread.join(timeout=5.0)
        close_service(service)
    return 0
