"""Unit conventions and conversion helpers.

Internal conventions, used everywhere unless a name says otherwise:

* sizes in **bytes** (``int``),
* time in **seconds** (``float``; absolute times are Unix epoch seconds),
* bandwidth in **bytes/second** (``float``).

The paper's logs report bandwidth in KB/s with KB = 1000 bytes (e.g.
10 240 000 bytes / 4 s -> 2560 KB/s in Figure 3), so the decimal prefixes
here follow that convention.  Binary prefixes are not used.
"""

from __future__ import annotations

__all__ = [
    "KB", "MB", "GB",
    "MINUTE", "HOUR", "DAY",
    "bytes_per_sec_to_kbps",
    "mbps_network_to_bytes_per_sec",
    "fmt_size", "fmt_bandwidth",
]

KB = 1_000
MB = 1_000_000
GB = 1_000_000_000

MINUTE = 60.0
HOUR = 3_600.0
DAY = 86_400.0


def bytes_per_sec_to_kbps(rate: float) -> float:
    """Bytes/s -> KB/s (decimal), the unit of the paper's log `Bandwidth` field."""
    return rate / KB


def mbps_network_to_bytes_per_sec(megabits: float) -> float:
    """Network Mb/s (megabits) -> bytes/s.  Link capacities are quoted in Mb/s."""
    return megabits * 1e6 / 8.0


_SUFFIXES = [(GB, "G"), (MB, "M"), (KB, "K")]


def fmt_size(size: int) -> str:
    """Render a byte count the way the paper names files: ``10M``, ``1G``."""
    for unit, suffix in _SUFFIXES:
        if size >= unit:
            if size % unit == 0:
                return f"{size // unit}{suffix}"
            return f"{size / unit:.1f}{suffix}"
    return str(size)


def fmt_bandwidth(rate: float) -> str:
    """Human-readable bytes/s, e.g. ``'6.06 MB/s'``."""
    if rate >= MB:
        return f"{rate / MB:.2f} MB/s"
    if rate >= KB:
        return f"{rate / KB:.1f} KB/s"
    return f"{rate:.0f} B/s"
