"""render_scoreboard — the pure text layer behind ``repro status``."""

from repro.obs.scoreboard import render_scoreboard


def _status(**overrides):
    status = {
        "default_spec": "C-AVG15",
        "link_count": 2,
        "links": {"A": {"records": 40, "version": 40},
                  "B": {"records": 10, "version": 10}},
        "ingested": 50.0,
        "predicts": 12.0,
        "cache": {"entries": 3.0, "capacity": 64.0, "hits": 9.0,
                  "misses": 3.0, "hit_ratio": 0.75},
        "streaming": {"streamed": 10.0, "recomputed": 2.0},
        "accuracy": {
            "enabled": True, "window": 32, "recorded": 12, "scored": 11,
            "dropped": 0, "pending": 1, "link_count": 2,
            "overall": {"count": 11, "abstentions": 0, "unscorable": 0,
                        "mape": 42.5, "mse": 1e10, "rmse": 1e5,
                        "bias_pct": -3.0, "calibration": {},
                        "window": {"count": 11, "mape": 40.0, "mse": 9e9},
                        "last_abs_pct": 12.0, "last_time": 1.0},
            "by_spec": {"C-AVG15": {
                "count": 11, "abstentions": 0, "unscorable": 0,
                "mape": 42.5, "mse": 1e10, "rmse": 1e5, "bias_pct": -3.0,
                "calibration": {},
                "window": {"count": 11, "mape": 40.0, "mse": 9e9},
                "last_abs_pct": 12.0, "last_time": 1.0}},
            "links": {
                "A": {"overall": {"count": 11, "mape": 42.5,
                                  "window": {"count": 11, "mape": 40.0},
                                  "last_abs_pct": 12.0},
                      "by_spec": {}, "kinds": {"streamed": 11}},
                "B": {"overall": {"count": 0, "mape": None,
                                  "window": {"count": 0, "mape": None},
                                  "last_abs_pct": None},
                      "by_spec": {}, "kinds": {}},
            },
        },
    }
    status.update(overrides)
    return status


def test_scoreboard_shows_every_section():
    out = render_scoreboard(_status())
    assert "links=2" in out
    assert "cache  hit=75.0% (9/12)" in out
    assert "streaming  hit=83.3%" in out
    assert "accuracy  scored=11  pending=1  dropped=0  mape=42.5%" in out
    assert "mape[32]=40.0%" in out
    assert "C-AVG15" in out
    # Links with worse rolling error sort first; unscored ones render
    # dashes rather than crashing on None.
    body = out[out.index("link  "):]
    assert body.index("A ") < body.index("B ")
    assert "-" in body


def test_scoreboard_with_metrics_shows_protocol_split():
    metrics = {
        "server_requests": {"type": "counter", "value": 7.0, "series": [
            {"labels": {"protocol": "json"}, "type": "counter", "value": 5.0},
            {"labels": {"protocol": "binary"}, "type": "counter",
             "value": 2.0},
        ]},
        "server_bad_requests": {"type": "counter", "value": 1.0},
    }
    out = render_scoreboard(_status(), metrics)
    assert "server  requests=7 (json=5, binary=2)  bad=1" in out


def test_scoreboard_with_metrics_shows_checkpoint_line():
    metrics = {
        "store_checkpoint_write_seconds": {
            "type": "histogram", "count": 12, "p50": 0.00061},
        "store_checkpoint_read_seconds": {
            "type": "histogram", "count": 3, "p50": 0.00032},
        "store_checkpoint_bytes": {"type": "counter", "value": 25_700.0},
    }
    out = render_scoreboard(_status(), metrics)
    assert ("checkpoints  written=12 p50=610us  read=3 p50=320us"
            "  stored=0.03MB") in out
    # A server that has checkpointed nothing shows no line.
    idle = {name: dict(data, count=0, value=0.0)
            for name, data in metrics.items()}
    assert "checkpoints" not in render_scoreboard(_status(), idle)


def test_scoreboard_when_tracker_disabled():
    out = render_scoreboard(_status(accuracy={"enabled": False}))
    assert "accuracy  disabled" in out


def test_scoreboard_shows_store_residency():
    out = render_scoreboard(_status(store={
        "root": "/tmp/state", "resident_links": 1, "evicted_links": 1,
        "stored_links": 2, "bytes_on_disk": 2_500_000, "evictions": 3.0,
        "revivals": 2.0, "max_resident": 1,
    }))
    assert "store  resident=1  evicted=1  stored=2" in out
    assert "disk=2.5MB" in out


def test_scoreboard_shows_fleet_health():
    out = render_scoreboard(_status(fleet={
        "workers": 2,
        "fallback": True,
        "last_good_entries": 12,
        "shards": [
            {"shard": 0, "up": True, "pending": 3, "restarts": 0,
             "pid": 4242, "breaker": {"state": "closed"}},
            {"shard": 1, "up": False, "pending": 0, "restarts": 2,
             "pid": None, "breaker": {"state": "open"}},
        ],
    }))
    assert "fleet  workers=1/2 up  fallback=on  last-good=12" in out
    assert "shard" in out and "breaker" in out
    assert "closed" in out and "open" in out
    assert "NO" in out        # the down shard is visually loud
    assert "4242" in out


def test_scoreboard_without_fleet_section_is_unchanged():
    assert "fleet" not in render_scoreboard(_status())
