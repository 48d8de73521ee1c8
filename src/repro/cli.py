"""Command-line interface: campaigns, reports, evaluation, and serving.

Examples::

    repro campaign --month aug --seed 1 --out-dir logs/
    repro report census --seed 1
    repro report errors --link LBL-ANL --class 1GB --seed 1
    repro report relative --link LBL-ANL --class 100MB --predictors C-AVG15,C-LV
    repro evaluate logs/aug-LBL-ANL.ulm --predictors C-AVG15,C-MED,SIZE --json
    repro serve --socket /tmp/repro.sock data/*.ulm --follow
    repro serve --socket /tmp/repro.sock data/*.ulm --follow \
        --state-dir state/ --max-resident 1024
    repro query predict --socket /tmp/repro.sock --link aug-LBL-ANL --size 1GB
    repro status --socket /tmp/repro.sock --watch 2
    repro query batch --socket /tmp/repro.sock --batch items.json --binary
    repro query rank --logs data/aug-LBL-ANL.ulm,data/aug-ISI-ANL.ulm --size 100MB

Conventions: predictor sets are always ``--predictors`` (comma-separated
specs), size classes are always ``--class``, machine-readable output is
always ``--json``.  Exit codes: 0 success, 1 operational error (bad
predictor name, missing link, server unreachable), 2 usage error.

Observability: ``repro serve --metrics-interval N --metrics-file F``
appends one JSON registry snapshot per interval to ``F`` for offline
analysis.  To profile a subcommand, run it under the standard library:
``python -m cProfile -o repro.pstats -m repro.cli <subcommand> ...``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional

from repro import serving  # argparse only; the serving stack loads on use

if TYPE_CHECKING:
    from repro.workload.campaigns import CampaignOutput

__all__ = ["main"]

_SIZE_SUFFIXES = {"KB": 10**3, "MB": 10**6, "GB": 10**9}


def _run(month: str, seed: int, with_nws: bool = False) -> Dict[str, CampaignOutput]:
    # Subcommands import what they run: the simulator loads here, for the
    # commands that run a campaign, and not with the module.
    from repro.workload import AUG_2001, DEC_2001, run_month, run_month_with_nws

    try:
        start = {"aug": AUG_2001, "dec": DEC_2001}[month.lower()]
    except KeyError:
        raise SystemExit(f"unknown month {month!r}; expected aug or dec") from None
    if with_nws:
        return run_month_with_nws(start_epoch=start, seed=seed)
    return run_month(start_epoch=start, seed=seed)


def _parse_size(text: str) -> int:
    """Bytes from ``1000000``, ``100MB``, ``1GB``, ... (decimal units)."""
    raw = text.strip().upper()
    for suffix, scale in _SIZE_SUFFIXES.items():
        if raw.endswith(suffix):
            try:
                return int(float(raw[: -len(suffix)]) * scale)
            except ValueError:
                break
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(
            f"bad size {text!r}; expected bytes or a KB/MB/GB suffix"
        ) from None


def _parse_specs(text: str) -> List[str]:
    """Validated predictor specs from a comma-separated ``--predictors``."""
    from repro.core.predictors.registry import resolve

    names = [n.strip() for n in text.split(",") if n.strip()]
    if not names:
        raise SystemExit("--predictors must name at least one predictor")
    for name in names:
        try:
            resolve(name)
        except KeyError:
            raise SystemExit(
                f"unknown predictor {name!r}; expected a Figure 4 name "
                f"(optionally C- prefixed) or SIZE"
            ) from None
    return names


def _emit(payload: dict, as_json: bool, text: str) -> None:
    print(json.dumps(payload, indent=2) if as_json else text)


# ----------------------------------------------------------------------
# campaign / report / export
# ----------------------------------------------------------------------
def _cmd_campaign(args: argparse.Namespace) -> int:
    outputs = _run(args.month, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for link, output in outputs.items():
        path = out_dir / f"{args.month}-{link}.ulm"
        n = output.log.save(path)
        print(f"{link}: wrote {n} records to {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import (
        check_summary_claims,
        compare_probe_vs_gridftp,
        compute_census,
        compute_class_errors,
        compute_classification_impact,
        compute_relative_table,
        render_census,
        render_class_errors,
        render_classification_impact,
        render_nws_comparison,
        render_relative_table,
        render_summary,
    )
    from repro.core.predictors.registry import CLASSIFIED_PREDICTOR_NAMES

    kind = args.kind
    if kind == "census":
        months = {
            "August": _run("aug", args.seed),
            "December": _run("dec", args.seed),
        }
        print(render_census(compute_census(months)))
        return 0

    outputs = _run(args.month, args.seed, with_nws=(kind == "nws"))
    if kind == "nws":
        for link, output in _select(outputs, args.link).items():
            print(render_nws_comparison(compare_probe_vs_gridftp(output)))
            print()
        return 0

    for link, output in _select(outputs, args.link).items():
        errors = compute_class_errors(link, output.log.to_frame())
        if kind == "errors":
            for label in _labels(args.size_class):
                print(render_class_errors(errors, label))
                print()
        elif kind == "classification":
            print(render_classification_impact(compute_classification_impact(errors)))
            print()
        elif kind == "relative":
            if args.predictors:
                names = tuple(_parse_specs(args.predictors))
                missing = [n for n in names if n not in errors.result.traces]
                if missing:
                    raise SystemExit(
                        f"predictors not in the evaluated battery: {missing}"
                    )
            else:
                names = tuple(CLASSIFIED_PREDICTOR_NAMES)
            table = compute_relative_table(
                link, errors.result, predictor_names=names,
            )
            for label in _labels(args.size_class):
                print(render_relative_table(table, label))
                print()
        elif kind == "summary":
            print(render_summary(check_summary_claims(errors)))
            print()
        else:  # pragma: no cover - argparse restricts choices
            raise SystemExit(f"unknown report kind {kind!r}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    """Write every figure's data as CSV files."""
    from repro.analysis.export import export_all

    months = {
        "August": _run("aug", args.seed, with_nws=args.with_nws),
        "December": _run("dec", args.seed, with_nws=args.with_nws),
    }
    written = export_all(months, args.out_dir)
    for path in written:
        print(f"wrote {path}")
    return 0


def _select(
    outputs: Dict[str, CampaignOutput], link: Optional[str]
) -> Dict[str, CampaignOutput]:
    if link is None:
        return outputs
    if link not in outputs:
        raise SystemExit(f"unknown link {link!r}; expected one of {list(outputs)}")
    return {link: outputs[link]}


def _labels(size_class: Optional[str]) -> tuple:
    from repro.core.classification import PAPER_CLASS_LABELS

    if size_class is None:
        return PAPER_CLASS_LABELS
    if size_class not in PAPER_CLASS_LABELS:
        raise SystemExit(
            f"unknown class {size_class!r}; expected one of {PAPER_CLASS_LABELS}"
        )
    return (size_class,)


# ----------------------------------------------------------------------
# evaluate
# ----------------------------------------------------------------------
@contextmanager
def _reading(path):
    """A malformed log ends the command with one line naming it."""
    from repro.logs.ulm import ULMError

    try:
        yield
    except ULMError as exc:
        raise SystemExit(f"{path}: {exc}") from None


def _cmd_evaluate(args: argparse.Namespace) -> int:
    """Walk predictors over one or more external ULM log files.

    Files load through the columnar ingest into a
    :class:`~repro.data.dataset.Dataset` — one link per file, keyed by
    stem — and all links evaluate in one
    :func:`~repro.core.engine.evaluate_dataset` call.  A single file
    keeps the original output and JSON shape exactly.
    """
    from repro.analysis.report import render_table
    from repro.core.classification import paper_classification
    from repro.core.engine import evaluate_dataset
    from repro.data import Dataset

    paths = [Path(p) for p in args.log_files]
    for path in paths:
        if not path.exists():
            raise SystemExit(f"no such log file: {path}")
    names = _parse_specs(args.predictors)
    link_paths: Dict[str, str] = {}
    dataset = Dataset({})
    for path in paths:
        link_paths.setdefault(path.stem, str(path))
        with _reading(path):
            dataset = dataset.merge(Dataset.from_ulm(path))
    for link, frame in dataset.items():
        if len(frame) <= args.training:
            raise SystemExit(
                f"{link_paths[link]}: {len(frame)} records, need more than "
                f"the training prefix ({args.training})"
            )
    results = evaluate_dataset(dataset, names, training=args.training)

    cls = paper_classification()
    labels = _labels(args.size_class)
    payloads = []
    tables = []
    for link, result in results.items():
        n = len(dataset[link])
        rows = []
        report = []
        for name in names:
            trace = result[name]
            per_class = {
                label: trace.mean_abs_pct_error(trace.class_mask(cls, label))
                for label in labels
            }
            overall = trace.mean_abs_pct_error()
            rows.append([name, *per_class.values(), overall, trace.abstentions])
            report.append({
                "name": name,
                "per_class_mape": per_class,
                "overall_mape": overall,
                "abstentions": trace.abstentions,
            })
        payloads.append({
            "log": link_paths[link],
            "records": n,
            "training": args.training,
            "predictions_per_predictor": n - args.training,
            "predictors": report,
        })
        tables.append(render_table(
            ["predictor", *labels, "overall", "abstained"],
            rows,
            title=(
                f"{link_paths[link]}: {n} records, "
                f"{n - args.training} predictions per predictor "
                f"(MAPE %)"
            ),
        ))

    if len(payloads) == 1:
        _emit(payloads[0], args.json, tables[0])
    else:
        _emit({"logs": payloads}, args.json, "\n\n".join(tables))
    return 0


# ----------------------------------------------------------------------
# serve / query
# ----------------------------------------------------------------------
def _ingest_logs(service, log_paths: List[str], link: Optional[str] = None):
    """Bulk-ingest ULM logs into ``service`` (link = file stem); returns it."""
    store = service.store
    if link is not None and len(log_paths) > 1:
        raise SystemExit("--link only applies to a single log file")
    for path in log_paths:
        if not Path(path).exists():
            raise SystemExit(f"no such log file: {path}")
        name = link or Path(path).stem
        if store is not None and store.durable_rows(name) > 0:
            # Warm restart: the store already holds this link's history
            # (it revives on first touch); re-ingesting the file would
            # duplicate every record.  The follower resumes from the
            # durable offset instead.
            print(f"{name}: warm ({store.durable_rows(name)} durable records, "
                  f"resume offset {store.resume_offset(name)})", file=sys.stderr)
            continue
        with _reading(path):
            name, count = service.ingest_ulm(path, link=link)
        print(f"{name}: ingested {count} records from {path}", file=sys.stderr)
    return service


def _service_over_logs(logs: str, spec: Optional[str]):
    """The in-process service behind ``query --logs`` / ``status --logs``."""
    from repro.service import PredictionService

    return _ingest_logs(
        PredictionService(default_spec=spec or "C-AVG15"),
        [p.strip() for p in logs.split(",") if p.strip()],
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import LogFollower

    if not (args.socket or args.oneshot):
        raise SystemExit("serve needs --socket (or --oneshot)")
    service = _ingest_logs(serving.open_service(args), args.logs, args.link)
    store = service.store

    followers = []
    if args.follow:
        followers = [
            # Each poll's new records fold through one observe_batch
            # sweep (grouped locks, one WAL group commit).
            LogFollower(path, service.observe_batch, link=args.link)
            for path in args.logs
        ]
        for follower in followers:
            resume = store.resume_offset(follower.link) if store else 0
            if resume:
                # Warm restart: deliver only what durability missed.
                follower.seek_to(resume)
            else:
                # The logs were just bulk-ingested; only future appends
                # should flow through the follower.
                follower.seek_to_end()

    if args.oneshot:
        for follower in followers:
            follower.poll()
        if args.metrics_file:
            _dump_metrics_snapshot(service, args.metrics_file)
        print(json.dumps(service.status(), indent=2))
        serving.close_service(service)
        return 0

    def _poll_loop(stopping) -> None:
        while not stopping.is_set():
            for follower in followers:
                follower.poll()
            stopping.wait(args.interval)

    def _metrics_loop(stopping) -> None:
        while not stopping.is_set():
            stopping.wait(args.metrics_interval)
            try:
                _dump_metrics_snapshot(service, args.metrics_file)
            except OSError:
                pass  # an unwritable dump file must not kill serving

    background = []
    if followers:
        background.append(("repro-tail", _poll_loop))
    if args.metrics_file:
        background.append(("repro-metrics", _metrics_loop))
    return serving.serve_until_signalled(service, args, background)


def _dump_metrics_snapshot(service, path: str) -> None:
    """Append one timestamped merged-registry snapshot as a JSON line.

    The merge is the server's own (:func:`repro.service.server.
    merged_snapshot`): process-wide series — including the per-protocol
    request counters — overlaid with the service's instruments, accuracy
    gauges refreshed from the tracker first, all in one object per
    interval.
    """
    from repro.service.server import merged_snapshot

    line = json.dumps({"time": time.time(), "metrics": merged_snapshot(service)})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")


def _cmd_status(args: argparse.Namespace) -> int:
    """The service scoreboard: one shot, ``--watch N``, or ``--json``.

    Against a live server (``--socket``) each refresh issues the
    ``status`` and ``metrics`` ops over one reused connection; against
    ``--logs`` the service is built in-process once and re-read per
    refresh (useful for eyeballing a log replay).  ``--json`` emits one
    ``{"status", "metrics"}`` object per refresh (JSON lines under
    ``--watch``); the human form is the scoreboard of
    :func:`repro.obs.scoreboard.render_scoreboard`.
    """
    from repro.obs.scoreboard import render_scoreboard

    if args.watch is not None and args.watch <= 0:
        raise SystemExit("--watch needs a positive refresh interval")
    if args.socket:
        from repro.client import ServiceClient

        holder = {"client": ServiceClient(args.socket, binary=args.binary)}

        def fetch():
            from repro.client import error_info

            status = holder["client"].request({"op": "status"})
            metrics = holder["client"].request({"op": "metrics"})
            for response in (status, metrics):
                if not response.get("ok"):
                    code, message = error_info(response)
                    raise SystemExit(f"status failed: {code}: {message}")
            return status, metrics.get("metrics", {})

        def reconnect() -> None:
            holder["client"].close()
            holder["client"] = ServiceClient(args.socket, binary=args.binary)

        def cleanup() -> None:
            holder["client"].close()
    elif args.logs:
        if args.binary:
            raise SystemExit("--binary needs a live server (--socket)")
        from repro.service.server import merged_snapshot

        service = _service_over_logs(args.logs, args.spec)

        def fetch():
            return service.status(), merged_snapshot(service)

        def reconnect() -> None:
            return None

        def cleanup() -> None:
            return None
    else:
        raise SystemExit("status needs --socket (live server) or --logs "
                         "(in-process)")

    def emit_once() -> None:
        status, metrics = fetch()
        if args.json:
            print(json.dumps({"time": time.time(), "status": status,
                              "metrics": metrics}))
        else:
            if args.watch is not None:
                sys.stdout.write("\x1b[2J\x1b[H")  # clear screen, home cursor
            sys.stdout.write(render_scoreboard(status, metrics))
        sys.stdout.flush()

    # A watch outlives any single server process: once the first refresh
    # has succeeded, a connection failure means the service is restarting
    # (a deploy, a supervisor respawn), so keep retrying with backoff on
    # a fresh connection instead of dying mid-watch.  Failing the *first*
    # contact still exits — a wrong --socket should not spin forever.
    contacted = False
    backoff = 0.0
    try:
        while True:
            try:
                emit_once()
                contacted = True
                backoff = 0.0
            except (OSError, ConnectionError) as exc:
                if not contacted or args.watch is None:
                    raise SystemExit(
                        f"cannot reach server at {args.socket}: {exc}"
                    ) from None
                backoff = min(backoff * 2 or 0.5, 5.0)
                print(f"repro status: server unreachable ({exc}); "
                      f"retrying in {backoff:.1f}s", file=sys.stderr)
                time.sleep(backoff)
                reconnect()
                continue
            if args.watch is None:
                break
            time.sleep(args.watch)
    except KeyboardInterrupt:
        pass
    finally:
        cleanup()
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Run the sharded serving fleet: N supervised workers + TCP front.

    ``repro fleet --workers 4 --state-dir DIR`` spawns four worker
    processes (each a full prediction service owning a consistent-hash
    shard of links, backed by ``DIR/shard-k``) and serves them behind
    one TCP endpoint speaking both wire dialects.  Crashed workers are
    respawned and warm-revive from their WAL/checkpoints; SIGTERM takes
    the fleet down gracefully — front first, then a rolling worker
    shutdown with per-shard checkpoints.

    Unlike ``repro serve``, a second SIGINT does not kill the front:
    the front is its workers' parent, and dying mid-roll would leave
    the workers not yet signalled serving with no supervisor.  The roll
    is bounded instead (each worker gets its graceful timeout, then
    SIGKILL), and a second Ctrl-C at a terminal reaches the workers too
    — one process group — whose own second SIGINT kills them, so the
    roll then ends at once.
    """
    import signal
    import threading

    from repro.fleet import FleetRunner

    if args.workers < 1:
        raise SystemExit("--workers must be at least 1")
    host, _, port_text = args.listen.partition(":")
    try:
        port = int(port_text) if port_text else 0
    except ValueError:
        raise SystemExit(f"bad --listen {args.listen!r} "
                         f"(expected HOST or HOST:PORT)") from None
    # ``--fallback`` goes by keyword, not in ``service_args``: the front
    # reads it too, and the runner spells it out for the workers.
    fallback, args.fallback = args.fallback, False
    runner = FleetRunner(
        args.workers,
        args.state_dir,
        host=host or "127.0.0.1",
        port=port,
        service_args=serving.service_argv(args),
        fallback=fallback,
    )
    stopping = threading.Event()

    def _graceful(signum, frame) -> None:
        stopping.set()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    try:
        runner.start()
    except (OSError, RuntimeError, TimeoutError) as exc:
        raise SystemExit(f"fleet failed to start: {exc}") from None
    front_host, front_port = runner.address
    print(f"fleet: {args.workers} workers behind {front_host}:{front_port}"
          + (f" (state: {args.state_dir})" if args.state_dir else ""),
          file=sys.stderr, flush=True)
    try:
        while not stopping.wait(0.5):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        print("fleet: rolling shutdown...", file=sys.stderr, flush=True)
        runner.stop()
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Stream a ULM log into a running service through ``observe_batch``.

    The load driver for grid-scale campaigns: batches of N observations
    per round trip, each batch folded under grouped link locks and made
    durable by one WAL group commit server-side.  Per-record byte
    offsets ride along so a durable server records its resume point
    exactly as the in-process follower would.
    """
    from repro.client import ServiceClient
    from repro.logs.ulm import parse_raw_lines

    if args.batch < 1:
        raise SystemExit("--batch must be >= 1")
    path = Path(args.log_file)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SystemExit(f"cannot read log file {path}: {exc}") from None
    link = args.link or path.stem
    items: List[Dict[str, object]] = []
    skipped = 0
    for record, end in parse_raw_lines(raw.split(b"\n")):
        if record is None:
            skipped += 1
            continue
        items.append({
            "link": link, "size": record.file_size,
            "start": record.start_time, "end": record.end_time,
            "bandwidth": record.bandwidth,
            "operation": record.operation.value,
            "streams": record.streams, "tcp_buffer": record.tcp_buffer,
            # An unterminated last line is parsed; it ends at the file's end.
            "offset": min(end, len(raw)),
        })
    if not items:
        raise SystemExit(f"no parseable records in {path}")
    acked = failed = batches = 0
    t0 = time.perf_counter()
    try:
        with ServiceClient(args.socket) as client:
            for lo in range(0, len(items), args.batch):
                batches += 1
                for result in client.observe_batch(items[lo:lo + args.batch]):
                    if result.get("ok"):
                        acked += 1
                    else:
                        failed += 1
    except (OSError, ConnectionError) as exc:
        raise SystemExit(
            f"cannot reach server at {args.socket}: {exc}") from None
    elapsed = time.perf_counter() - t0
    rate = acked / elapsed if elapsed > 0 else 0.0
    _emit(
        {
            "link": link, "records": len(items), "acked": acked,
            "failed": failed, "skipped_lines": skipped, "batches": batches,
            "seconds": round(elapsed, 3),
            "records_per_second": round(rate, 1),
        },
        args.json,
        f"{link}: acked {acked}/{len(items)} records in {batches} "
        f"batch(es), {elapsed:.2f}s ({rate:,.0f} rec/s)",
    )
    return 0 if failed == 0 else 1


def _load_batch_items(path: str) -> List[Dict[str, object]]:
    """Batch items from a JSON array file or a JSON-lines file.

    Each item is ``{"link": ..., "size": ...}`` (plus optional
    ``spec``/``now``) or a ``[link, size]`` / ``[link, size, spec]``
    array; sizes accept the usual KB/MB/GB suffixes.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"cannot read batch file {path}: {exc}") from None
    stripped = text.lstrip()
    if not stripped:
        raise SystemExit(f"batch file {path} is empty")
    try:
        if stripped.startswith("["):
            entries = json.loads(text)
        else:
            entries = [
                json.loads(line) for line in text.splitlines() if line.strip()
            ]
    except ValueError as exc:
        raise SystemExit(f"bad JSON in batch file {path}: {exc}") from None
    items: List[Dict[str, object]] = []
    for pos, entry in enumerate(entries):
        if isinstance(entry, dict):
            item = dict(entry)
        elif isinstance(entry, list) and 2 <= len(entry) <= 4:
            item = {"link": entry[0], "size": entry[1]}
            if len(entry) > 2 and entry[2] is not None:
                item["spec"] = entry[2]
            if len(entry) > 3 and entry[3] is not None:
                item["now"] = entry[3]
        else:
            raise SystemExit(
                f"batch file {path} item {pos}: expected an object or a "
                f"[link, size(, spec(, now))] array"
            )
        if "size" in item and isinstance(item["size"], str):
            item["size"] = _parse_size(item["size"])
        items.append(item)
    return items


def _cmd_query(args: argparse.Namespace) -> int:
    req: Dict[str, object] = {"op": args.op}
    if args.kind and args.op == "events":
        req["kind"] = args.kind
    if args.limit is not None and args.op in ("spans", "events"):
        req["limit"] = args.limit
    if args.op == "predict":
        if not args.link or args.size is None:
            raise SystemExit("query predict needs --link and --size")
        req.update({"link": args.link, "size": _parse_size(args.size)})
    elif args.op == "batch":
        if not args.batch:
            raise SystemExit("query batch needs --batch FILE")
        req["op"] = "predict_batch"
        req["items"] = _load_batch_items(args.batch)
    elif args.op == "rank":
        if not args.candidates or args.size is None:
            raise SystemExit("query rank needs --candidates and --size")
        req.update({
            "candidates": [c.strip() for c in args.candidates.split(",") if c.strip()],
            "size": _parse_size(args.size),
        })
    if args.spec:
        req["spec"] = args.spec
    if args.now is not None:
        req["now"] = args.now

    if args.socket:
        from repro.client import ServiceClient

        try:
            with ServiceClient(args.socket, binary=args.binary) as client:
                response = client.request(req)
        except (OSError, ConnectionError) as exc:
            raise SystemExit(f"cannot reach server at {args.socket}: {exc}") from None
    elif args.logs:
        if args.binary:
            raise SystemExit("--binary needs a live server (--socket)")
        from repro.service.server import handle_request

        response = handle_request(
            _service_over_logs(args.logs, args.spec), req)
    else:
        raise SystemExit("query needs --socket (live server) or --logs (in-process)")

    if not response.get("ok"):
        from repro.client import error_info

        code, message = error_info(response)
        detail = message if code == "error" else f"{code}: {message}"
        raise SystemExit(f"query failed: {detail}")

    _emit(response, args.json, _render_query(args.op, response))
    return 0


def _render_query(op: str, response: Dict) -> str:
    if op == "ping":
        return "pong"
    if op == "batch":
        lines = []
        ok = 0
        for i, item in enumerate(response["results"]):
            if not item.get("ok"):
                from repro.client import error_info

                code, message = error_info(item)
                lines.append(f"{i}. error [{code}] {message}")
                continue
            ok += 1
            value = item["value"]
            rendered = (
                f"{value / 1e6:.3f} MB/s" if value is not None else "no prediction"
            )
            if item.get("degraded"):
                rendered += " [degraded fallback]"
            lines.append(
                f"{i}. {item['link']} [{item['spec']}] size={item['size']}: "
                f"{rendered} ({'cached' if item['cached'] else 'computed'})"
            )
        lines.append(f"{ok}/{response['count']} predictions answered")
        return "\n".join(lines)
    if op == "predict":
        value = response["value"]
        rendered = f"{value / 1e6:.3f} MB/s" if value is not None else "no prediction"
        if response.get("degraded"):
            rendered += " [degraded fallback]"
        return (
            f"{response['link']} [{response['spec']}] "
            f"size={response['size']}: {rendered} "
            f"({'cached' if response['cached'] else 'computed'}, "
            f"history={response['history_length']})"
        )
    if op == "rank":
        lines = []
        for i, item in enumerate(response["ranking"], start=1):
            bw = item["predicted_bandwidth"]
            rendered = f"{bw / 1e6:.3f} MB/s" if bw is not None else "no prediction"
            lines.append(
                f"{i}. {item['site']}: {rendered} "
                f"(history={item['history_length']})"
            )
        return "\n".join(lines)
    if op == "metrics":
        lines = []
        for name, data in sorted(response["metrics"].items()):
            if data["type"] in ("counter", "gauge"):
                lines.append(f"{name} {data['value']:g}")
            else:
                for key in ("count", "mean", "p50", "p90", "p99", "max"):
                    if key in data:
                        lines.append(f"{name}_{key} {data[key]:g}")
        return "\n".join(lines)
    return json.dumps(response, indent=2)


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the IPPS 2002 wide-area transfer prediction paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser("campaign", help="run a two-week campaign, save ULM logs")
    campaign.add_argument("--month", default="aug", help="aug or dec")
    campaign.add_argument("--seed", type=int, default=1)
    campaign.add_argument("--out-dir", default="logs")
    campaign.set_defaults(func=_cmd_campaign)

    report = sub.add_parser("report", help="print a figure/table analogue")
    report.add_argument(
        "kind",
        choices=["census", "errors", "classification", "relative", "nws", "summary"],
    )
    report.add_argument("--month", default="aug")
    report.add_argument("--seed", type=int, default=1)
    report.add_argument("--link", default=None, help="LBL-ANL or ISI-ANL")
    report.add_argument("--class", dest="size_class", default=None,
                        help="10MB, 100MB, 500MB, or 1GB")
    report.add_argument(
        "--predictors", default=None,
        help="comma-separated predictor specs for 'relative' "
             "(default: every C- variant)",
    )
    report.set_defaults(func=_cmd_report)

    evaluate_cmd = sub.add_parser(
        "evaluate", help="walk predictors over external ULM log files"
    )
    evaluate_cmd.add_argument(
        "log_files", nargs="+", metavar="log_file",
        help="ULM transfer logs (one evaluated link per file, keyed by stem)",
    )
    evaluate_cmd.add_argument(
        "--predictors", default="C-AVG15,C-MED,C-LV,SIZE",
        help="comma-separated predictor specs (Figure 4 names, C- variants, SIZE)",
    )
    evaluate_cmd.add_argument("--training", type=int, default=15)
    evaluate_cmd.add_argument("--class", dest="size_class", default=None,
                              help="restrict the per-class columns to one class")
    evaluate_cmd.add_argument("--json", action="store_true",
                              help="emit machine-readable JSON instead of a table")
    evaluate_cmd.set_defaults(func=_cmd_evaluate)

    export_cmd = sub.add_parser(
        "export", help="write every figure's data as CSV files"
    )
    export_cmd.add_argument("--seed", type=int, default=1)
    export_cmd.add_argument("--out-dir", default="figures")
    export_cmd.add_argument(
        "--with-nws", action="store_true",
        help="attach NWS sensors so the Figures 1-2 probe series export too",
    )
    export_cmd.set_defaults(func=_cmd_export)

    serve = sub.add_parser(
        "serve", help="run the online prediction service over ULM logs"
    )
    serve.add_argument("logs", nargs="*",
                       help="ULM log files to ingest (link = stem); none is "
                            "a fleet worker: observations arrive by `observe`")
    serving.add_serve_options(serve)
    serve.add_argument("--link", default=None,
                       help="override the link name (single log only)")
    serve.add_argument("--follow", action="store_true",
                       help="keep tailing the logs for appended records")
    serve.add_argument("--interval", type=float, default=1.0,
                       help="tail poll interval in seconds")
    serve.add_argument("--oneshot", action="store_true",
                       help="ingest, print service status JSON, and exit")
    serve.add_argument("--metrics-interval", type=float, default=60.0,
                       help="seconds between --metrics-file snapshots")
    serve.add_argument("--metrics-file", default=None,
                       help="append periodic registry snapshots (JSONL) here")
    serve.set_defaults(func=_cmd_serve)

    ingest = sub.add_parser(
        "ingest",
        help="stream a ULM log into a running service via observe_batch",
    )
    ingest.add_argument("log_file", help="ULM transfer log to stream")
    ingest.add_argument("--socket", required=True,
                        help="unix socket of the running service")
    ingest.add_argument("--batch", type=int, default=500, metavar="N",
                        help="observations per observe_batch round trip")
    ingest.add_argument("--link", default=None,
                        help="override the link name (default: file stem)")
    ingest.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON summary")
    ingest.set_defaults(func=_cmd_ingest)

    fleet = sub.add_parser(
        "fleet", help="run a sharded fleet of supervised prediction workers"
    )
    fleet.add_argument("--workers", type=int, default=4, metavar="N",
                       help="worker processes (one consistent-hash shard each)")
    fleet.add_argument("--state-dir", default=None, metavar="DIR",
                       help="fleet state root: worker sockets plus one "
                            "durable store shard per worker (default: "
                            "a temp dir that dies with the fleet)")
    fleet.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                       help="front-tier TCP address (port 0 picks a free one)")
    serving.add_service_options(fleet)  # handed to every worker
    fleet.set_defaults(func=_cmd_fleet)

    status_cmd = sub.add_parser(
        "status", help="show the live service scoreboard"
    )
    status_cmd.add_argument("--socket", default=None,
                            help="socket of a running server")
    status_cmd.add_argument("--binary", action="store_true",
                            help="speak the binary frame protocol "
                                 "(needs --socket)")
    status_cmd.add_argument("--logs", default=None,
                            help="comma-separated ULM logs for an "
                                 "in-process scoreboard")
    status_cmd.add_argument("--spec", default=None,
                            help="default predictor spec for --logs")
    status_cmd.add_argument("--watch", type=float, default=None, metavar="N",
                            help="refresh every N seconds until interrupted")
    status_cmd.add_argument("--json", action="store_true",
                            help="emit {status, metrics} JSON instead of the "
                                 "scoreboard (JSON lines under --watch)")
    status_cmd.set_defaults(func=_cmd_status)

    query = sub.add_parser("query", help="query a prediction service")
    query.add_argument(
        "op",
        choices=["ping", "predict", "batch", "rank", "status", "metrics",
                 "spans", "events"],
    )
    query.add_argument("--socket", default=None, help="socket of a running server")
    query.add_argument("--binary", action="store_true",
                       help="speak the binary frame protocol (needs --socket)")
    query.add_argument("--batch", default=None, metavar="FILE",
                       help="batch items file (JSON array or JSON lines) "
                            "for the batch op")
    query.add_argument("--logs", default=None,
                       help="comma-separated ULM logs for an in-process answer")
    query.add_argument("--link", default=None, help="link to predict for")
    query.add_argument("--size", default=None,
                       help="transfer size (bytes, or with KB/MB/GB suffix)")
    query.add_argument("--candidates", default=None,
                       help="comma-separated candidate links for rank")
    query.add_argument("--spec", default=None, help="predictor spec")
    query.add_argument("--now", type=float, default=None,
                       help="anchor time (epoch seconds; default: wall clock)")
    query.add_argument("--kind", default=None,
                       help="filter events by event kind")
    query.add_argument("--limit", type=int, default=None,
                       help="keep only the newest N spans/events")
    query.add_argument("--json", action="store_true",
                       help="emit the raw JSON response")
    query.set_defaults(func=_cmd_query)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe; not an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
