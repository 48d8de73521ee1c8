"""The watchable service scoreboard behind ``repro status``.

:func:`render_scoreboard` is a pure function from one
:meth:`~repro.service.service.PredictionService.status` payload (plus an
optional merged metrics snapshot, see
:func:`repro.service.server.merged_snapshot`) to a fixed-width terminal
page: service headline, cache and streaming hit rates, store residency,
the live accuracy rollup, and per-spec / per-link rolling-error tables.
No ANSI escapes and no I/O here — the CLI owns the refresh loop and the
screen clearing, tests own the strings.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

__all__ = ["render_scoreboard"]

_LINK_ROWS = 20  # widest table a terminal page can usefully hold


def _pct(value: Optional[float]) -> str:
    return f"{value:.1f}%" if value is not None else "-"


def _num(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.3g}"


def _micros(seconds: Optional[float]) -> str:
    return f"{seconds * 1e6:.0f}us" if seconds is not None else "-"


def _ratio(hits: float, total: float) -> str:
    return f"{hits / total * 100.0:.1f}%" if total else "-"


def _table(headers: List[str], rows: Iterable[List[str]]) -> List[str]:
    matrix = [headers] + [list(r) for r in rows]
    widths = [max(len(row[i]) for row in matrix) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(matrix):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return lines


def _counter_value(metrics: Dict[str, Any], name: str,
                   **labels: str) -> Optional[float]:
    data = metrics.get(name)
    if not isinstance(data, dict):
        return None
    if not labels:
        return data.get("value")
    for entry in data.get("series", ()):
        if entry.get("labels") == labels:
            return entry.get("value")
    return None


def render_scoreboard(status: Dict[str, Any],
                      metrics: Optional[Dict[str, Any]] = None) -> str:
    """One terminal page summarizing a service ``status()`` payload.

    ``metrics`` — when given, a merged registry snapshot — contributes
    the per-protocol server request counters and the store's checkpoint
    timings; everything else reads from ``status`` alone, so the renderer
    works identically against a live socket and an in-process service.
    """
    lines: List[str] = []
    cache = status.get("cache", {})
    streaming = status.get("streaming", {})
    accuracy = status.get("accuracy", {})

    lines.append(
        f"repro service  links={status.get('link_count', 0)}  "
        f"ingested={status.get('ingested', 0):g}  "
        f"predicts={status.get('predicts', 0):g}  "
        f"spec={status.get('default_spec', '?')}"
    )

    hits = cache.get("hits", 0.0)
    misses = cache.get("misses", 0.0)
    streamed = streaming.get("streamed", 0.0)
    recomputed = streaming.get("recomputed", 0.0)
    lines.append(
        f"cache  hit={_ratio(hits, hits + misses)} "
        f"({hits:g}/{hits + misses:g})  "
        f"entries={cache.get('entries', 0):g}/{cache.get('capacity', 0):g}"
        f"   streaming  hit={_ratio(streamed, streamed + recomputed)} "
        f"({streamed:g} streamed, {recomputed:g} recomputed)"
    )

    store = status.get("store")
    if store:
        lines.append(
            f"store  resident={store.get('resident_links', 0)}"
            f"  evicted={store.get('evicted_links', 0)}"
            f"  stored={store.get('stored_links', 0)}"
            f"  evictions={store.get('evictions', 0):g}"
            f"  revivals={store.get('revivals', 0):g}"
            f"  group-commits={store.get('group_commits', 0):g}"
            f"  fsyncs={store.get('fsyncs', 0):g}"
            f"  disk={store.get('bytes_on_disk', 0) / 1e6:.1f}MB"
        )

    fleet = status.get("fleet")
    if fleet:
        shards = fleet.get("shards") or []
        up = sum(1 for s in shards if s.get("up"))
        lines.append(
            f"fleet  workers={up}/{fleet.get('workers', len(shards))} up"
            f"  fallback={'on' if fleet.get('fallback') else 'off'}"
            f"  last-good={fleet.get('last_good_entries', 0)}"
        )
        if shards:
            lines.append("")
            lines += _table(
                ["shard", "up", "breaker", "pending", "restarts", "pid"],
                ([str(s.get("shard", i)),
                  "yes" if s.get("up") else "NO",
                  str((s.get("breaker") or {}).get("state", "?")),
                  str(s.get("pending", 0)),
                  str(s.get("restarts", "-")),
                  str(s.get("pid", "-"))]
                 for i, s in enumerate(shards)),
            )

    if metrics is not None:
        parts = []
        for protocol in ("json", "binary"):
            count = _counter_value(metrics, "server_requests", protocol=protocol)
            if count is not None:
                parts.append(f"{protocol}={count:g}")
        total = _counter_value(metrics, "server_requests")
        bad = _counter_value(metrics, "server_bad_requests")
        if total is not None or parts:
            line = f"server  requests={total if total is not None else 0:g}"
            if parts:
                line += " (" + ", ".join(parts) + ")"
            if bad:
                line += f"  bad={bad:g}"
            lines.append(line)

        written = metrics.get("store_checkpoint_write_seconds") or {}
        read = metrics.get("store_checkpoint_read_seconds") or {}
        if written.get("count") or read.get("count"):
            stored = _counter_value(metrics, "store_checkpoint_bytes") or 0.0
            lines.append(
                f"checkpoints  written={written.get('count', 0):g}"
                f" p50={_micros(written.get('p50'))}"
                f"  read={read.get('count', 0):g}"
                f" p50={_micros(read.get('p50'))}"
                f"  stored={stored / 1e6:.2f}MB"
            )

    lines.append("")
    if not accuracy.get("enabled"):
        lines.append("accuracy  disabled")
        return "\n".join(lines) + "\n"

    overall = accuracy.get("overall", {})
    window = overall.get("window", {})
    lines.append(
        f"accuracy  scored={accuracy.get('scored', 0)}"
        f"  pending={accuracy.get('pending', 0)}"
        f"  dropped={accuracy.get('dropped', 0)}"
        f"  mape={_pct(overall.get('mape'))}"
        f"  mape[{accuracy.get('window', 0)}]={_pct(window.get('mape'))}"
        f"  bias={_pct(overall.get('bias_pct'))}"
    )
    degraded = accuracy.get("degraded")
    if degraded:
        lines.append(
            f"degraded  scored={degraded.get('count', 0)}"
            f"  mape={_pct(degraded.get('mape'))}"
        )

    by_spec = accuracy.get("by_spec") or {}
    if by_spec:
        lines.append("")
        lines += _table(
            ["spec", "n", "mape", f"mape[{accuracy.get('window', 0)}]",
             "mse", "bias", "abstain"],
            ([spec, str(s.get("count", 0)), _pct(s.get("mape")),
              _pct((s.get("window") or {}).get("mape")), _num(s.get("mse")),
              _pct(s.get("bias_pct")), str(s.get("abstentions", 0))]
             for spec, s in by_spec.items()),
        )

    links = accuracy.get("links") or {}
    if links:
        lines.append("")
        records = status.get("links") or {}
        # Worst rolling error first: the links that need a look float up.
        ranked = sorted(
            links.items(),
            key=lambda kv: -(
                ((kv[1].get("overall") or {}).get("window") or {}).get("mape")
                or -1.0
            ),
        )
        rows = []
        for link, entry in ranked[:_LINK_ROWS]:
            s = entry.get("overall") or {}
            rows.append([
                link,
                str((records.get(link) or {}).get("records", "-")),
                str(s.get("count", 0)),
                _pct(s.get("mape")),
                _pct((s.get("window") or {}).get("mape")),
                _pct(s.get("last_abs_pct")),
            ])
        lines += _table(
            ["link", "records", "scored", "mape",
             f"mape[{accuracy.get('window', 0)}]", "last"],
            rows,
        )
        if len(links) > _LINK_ROWS:
            lines.append(f"... {len(links) - _LINK_ROWS} more links")

    return "\n".join(lines) + "\n"
