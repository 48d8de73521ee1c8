"""Analytic TCP throughput model.

We model a transfer as three phases per stream:

1. **Connection setup** — a fixed number of RTTs (control handshake).
2. **Slow start** — the congestion window doubles each RTT from the
   initial window until it reaches the effective window cap.
3. **Steady state** — window-limited transfer at ``W_eff / RTT``.

The effective per-stream window is ``min(socket buffer, fair-share
bandwidth-delay product)``: a stream can never outrun its buffer
(``W/RTT``) nor its share of the bottleneck's spare capacity.  Parallel
streams split the data and aggregate their rates, so ``n`` streams with
buffer ``W`` achieve ``min(n * W/RTT, available)`` in steady state —
GridFTP's motivation for parallelism on long fat pipes.

Why this reproduces the paper's phenomena:

* **Bandwidth grows with file size** (Section 4.3): setup and slow start
  are a fixed tax, so small transfers see a fraction of steady-state rate.
  This is the entire basis for file-size classification.
* **NWS probes underestimate GridFTP** (Figures 1–2): a 64 KB probe on one
  stream with a default (64 KB) buffer finishes inside slow start, while a
  GridFTP transfer with 1 MB buffers and 8 streams runs at the bottleneck.

The model is deliberately loss-free; variability enters through the
time-varying *available* bandwidth supplied by :mod:`repro.net.load`, plus
a multiplicative efficiency jitter applied by the transfer engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["TcpConfig", "TransferTiming", "TcpModel"]


@dataclass(frozen=True)
class TcpConfig:
    """Protocol constants.

    Attributes
    ----------
    mss:
        Maximum segment size in bytes.
    initial_window_segments:
        Initial congestion window, in segments (RFC 2581-era default of 2).
    handshake_rtts:
        Round trips charged for connection + transfer setup.
    default_buffer:
        The untuned socket buffer ("standard TCP buffer sizes") used by
        NWS probes; contemporary OS default was 64 KB or less.
    """

    mss: int = 1460
    initial_window_segments: int = 2
    handshake_rtts: float = 1.5
    default_buffer: int = 64_000

    def __post_init__(self) -> None:
        if self.mss <= 0 or self.initial_window_segments <= 0:
            raise ValueError("mss and initial window must be positive")
        if self.handshake_rtts < 0 or self.default_buffer <= 0:
            raise ValueError("handshake_rtts must be >= 0 and buffer > 0")

    @property
    def initial_window(self) -> int:
        """Initial congestion window in bytes."""
        return self.mss * self.initial_window_segments


@dataclass(frozen=True)
class TransferTiming:
    """Breakdown of one modeled transfer."""

    size: int
    streams: int
    rtt: float
    duration: float
    setup_time: float
    slow_start_time: float
    steady_time: float
    steady_rate: float          # aggregate bytes/s once windows are open
    effective_window: float     # per-stream window cap in bytes

    @property
    def bandwidth(self) -> float:
        """End-to-end achieved bandwidth (bytes/s), the paper's headline metric."""
        if self.duration <= 0:
            return 0.0
        return self.size / self.duration


class TcpModel:
    """Compute transfer timings under the analytic model."""

    def __init__(self, config: TcpConfig | None = None):
        self.config = config or TcpConfig()

    # ------------------------------------------------------------------
    # steady-state helpers
    # ------------------------------------------------------------------
    def effective_window(
        self, rtt: float, available_bw: float, buffer: int, streams: int
    ) -> float:
        """Per-stream window cap in bytes: min(buffer, fair-share BDP)."""
        self._check_args(rtt, available_bw, buffer, streams)
        share_bdp = (available_bw / streams) * rtt
        return max(float(self.config.mss), min(float(buffer), share_bdp))

    def steady_rate(
        self, rtt: float, available_bw: float, buffer: int, streams: int
    ) -> float:
        """Aggregate steady-state rate: min(n * W/RTT, available)."""
        w_eff = self.effective_window(rtt, available_bw, buffer, streams)
        return min(streams * w_eff / rtt, available_bw)

    # ------------------------------------------------------------------
    # full timing
    # ------------------------------------------------------------------
    def timing(
        self,
        size: int,
        rtt: float,
        available_bw: float,
        buffer: int,
        streams: int = 1,
    ) -> TransferTiming:
        """Time a transfer of ``size`` bytes.

        Parameters
        ----------
        size:
            Payload bytes (must be positive).
        rtt:
            Path round-trip time in seconds.
        available_bw:
            Bottleneck capacity left for this transfer, bytes/s.
        buffer:
            Per-stream socket buffer in bytes (the paper tunes this to 1 MB).
        streams:
            Number of parallel TCP streams (the paper uses 8).
        """
        self._check_args(rtt, available_bw, buffer, streams)
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")

        cfg = self.config
        w_eff = self.effective_window(rtt, available_bw, buffer, streams)
        per_stream_rate = w_eff / rtt
        data_per_stream = size / streams

        iw = float(cfg.initial_window)
        # Continuous slow-start accounting: the window doubles per RTT from
        # iw to w_eff over log2(w_eff/iw) rounds, sending iw*(2^r - 1) =
        # w_eff - iw bytes along the way.  Continuous rounds keep the model
        # smooth in size, buffer, and bandwidth (no staircase artifacts).
        if w_eff <= iw:
            rounds_to_cap = 0.0
        else:
            rounds_to_cap = math.log2(w_eff / iw)
        ss_capacity = iw * (2.0**rounds_to_cap - 1.0)

        if data_per_stream <= ss_capacity:
            # Finishes inside slow start.  Invert bytes(k) = iw*(2^k - 1)
            # continuously to avoid a staircase in k.
            k = math.log2(data_per_stream / iw + 1.0)
            slow_start_time = k * rtt
            steady_time = 0.0
        else:
            slow_start_time = rounds_to_cap * rtt
            steady_time = (data_per_stream - ss_capacity) / per_stream_rate

        # Physical floor: no phase accounting can move bytes faster than
        # the available capacity (matters only for sub-MSS transfers where
        # the window floor would otherwise overshoot a very thin pipe).
        data_time_floor = size / available_bw
        data_time = slow_start_time + steady_time
        if data_time < data_time_floor:
            steady_time += data_time_floor - data_time

        setup_time = cfg.handshake_rtts * rtt
        duration = setup_time + slow_start_time + steady_time
        return TransferTiming(
            size=size,
            streams=streams,
            rtt=rtt,
            duration=duration,
            setup_time=setup_time,
            slow_start_time=slow_start_time,
            steady_time=steady_time,
            steady_rate=min(streams * per_stream_rate, available_bw),
            effective_window=w_eff,
        )

    def bandwidth(
        self,
        size: int,
        rtt: float,
        available_bw: float,
        buffer: int,
        streams: int = 1,
    ) -> float:
        """Convenience: achieved end-to-end bandwidth in bytes/s."""
        return self.timing(size, rtt, available_bw, buffer, streams).bandwidth

    @staticmethod
    def _check_args(rtt: float, available_bw: float, buffer: int, streams: int) -> None:
        if rtt <= 0:
            raise ValueError(f"rtt must be positive, got {rtt}")
        if available_bw <= 0:
            raise ValueError(f"available_bw must be positive, got {available_bw}")
        if buffer <= 0:
            raise ValueError(f"buffer must be positive, got {buffer}")
        if streams <= 0:
            raise ValueError(f"streams must be positive, got {streams}")
