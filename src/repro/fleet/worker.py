"""One fleet worker: ``repro serve`` without logs, on a shard.

``python -m repro.fleet.worker --socket S --state-dir D --shard K`` is
what the :class:`~repro.fleet.supervisor.WorkerSupervisor` spawns, once
per shard.  A worker is deliberately nothing special: the options, the
:class:`~repro.service.service.PredictionService` +
:class:`~repro.service.server.ServiceServer` pair and the
signal-drain-checkpoint loop are :mod:`repro.serving`'s, the ones
``repro serve`` runs, and no log is ingested (observations arrive over
the wire via the ``observe`` op, routed by the front tier).  That
sameness is the crash-recovery story: a respawned worker warm-revives
from its store shard's WAL tails and checkpoints exactly like a ``repro
serve`` warm restart, so every observation acked before a ``kill -9`` is
still there after.

SIGTERM/SIGINT drain gracefully: the accept loop exits, resident links
checkpoint, and the store seals — a rolling restart loses nothing and
revives O(1) from checkpoints instead of folding WAL deltas.
"""

from __future__ import annotations

import argparse
import sys

from repro import serving

__all__ = ["main"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-fleet-worker",
        description="One prediction-service shard of a repro fleet.",
    )
    parser.add_argument("--shard", type=int, default=0,
                        help="shard index: names the process on its "
                             "command line, changes nothing it does")
    serving.add_serve_options(parser)
    args = parser.parse_args(argv)
    if not args.socket:
        parser.error("the following arguments are required: --socket")
    return serving.serve_until_signalled(serving.open_service(args), args)


if __name__ == "__main__":
    sys.exit(main())
