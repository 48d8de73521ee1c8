"""Background (cross-traffic) utilization processes for links.

A load model maps absolute time ``t`` (epoch seconds) to the fraction of a
link's capacity consumed by other traffic.  The composite used for the
testbed links stacks three components, each motivated by a property of the
paper's measurements:

* :class:`DiurnalLoad` — a 24-hour sinusoid.  Wide-area paths between
  national labs load up during the working day; the paper's controlled
  campaigns ran 6 pm–8 am partly to straddle this cycle.
* :class:`Ar1Load` — first-order autoregressive noise on a fixed grid.
  This provides the short-range correlation that makes recent history
  (sliding windows, last value) informative at all.
* :class:`BurstLoad` — Poisson-arriving load spikes with Pareto-distributed
  durations.  These create the *asymmetric outliers* (sudden low-bandwidth
  transfers) that median-based predictors reject better than means.

All models are **deterministic functions of time** once constructed:
stochastic state is generated lazily but strictly forward from a dedicated
RNG stream and cached, so utilization queries are reproducible regardless
of query pattern (as long as queries never go backwards past the start
time, which the simulation clock guarantees).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Protocol, Tuple

import numpy as np

from repro.units import DAY, HOUR

__all__ = [
    "LoadModel",
    "ConstantLoad",
    "DiurnalLoad",
    "Ar1Load",
    "BurstLoad",
    "CompositeLoad",
    "standard_link_load",
]


class LoadModel(Protocol):
    """Anything mapping epoch time to a utilization fraction."""

    def utilization(self, t: float) -> float:
        """Fraction of link capacity in use at time ``t`` (may exceed [0,1];
        callers clamp)."""
        ...


@dataclass(frozen=True)
class ConstantLoad:
    """Fixed utilization; useful for tests and idle links."""

    level: float = 0.0

    def utilization(self, t: float) -> float:
        return self.level


@dataclass(frozen=True)
class DiurnalLoad:
    """A 24-hour sinusoid peaking at ``peak_hour`` (UTC).

    ``utilization = mean + amplitude * cos(2*pi*(hour - peak_hour)/24)``
    """

    mean: float = 0.45
    amplitude: float = 0.25
    peak_hour: float = 14.0

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")

    def utilization(self, t: float) -> float:
        hour = (t % DAY) / HOUR
        phase = 2.0 * math.pi * (hour - self.peak_hour) / 24.0
        return self.mean + self.amplitude * math.cos(phase)


class Ar1Load:
    """AR(1) noise sampled on a regular grid and linearly interpolated.

    ``x[i] = phi * x[i-1] + eps``, ``eps ~ N(0, sigma)``.  The grid extends
    lazily forward from ``t0``; values are cached so repeated queries are
    consistent.  Queries before ``t0`` return the stationary mean (0).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        t0: float,
        phi: float = 0.97,
        sigma: float = 0.02,
        dt: float = 60.0,
    ):
        if not (0.0 <= phi < 1.0):
            raise ValueError(f"phi must be in [0, 1), got {phi}")
        if sigma < 0 or dt <= 0:
            raise ValueError("sigma must be >= 0 and dt > 0")
        self._rng = rng
        self._t0 = float(t0)
        self._phi = phi
        self._sigma = sigma
        self._dt = dt
        # Start at a draw from the stationary distribution rather than 0 so
        # the first hours of a campaign are not artificially calm.
        stationary_std = sigma / math.sqrt(1.0 - phi * phi)
        self._values: List[float] = [float(rng.normal(0.0, stationary_std))]

    def _extend_to(self, index: int) -> None:
        while len(self._values) <= index:
            prev = self._values[-1]
            self._values.append(self._phi * prev + float(self._rng.normal(0.0, self._sigma)))

    def utilization(self, t: float) -> float:
        if t < self._t0:
            return 0.0
        pos = (t - self._t0) / self._dt
        lo = int(pos)
        frac = pos - lo
        self._extend_to(lo + 1)
        return self._values[lo] * (1.0 - frac) + self._values[lo + 1] * frac


class BurstLoad:
    """Poisson-arriving utilization spikes with Pareto durations.

    Bursts arrive with mean inter-arrival ``mean_interarrival`` seconds;
    each adds ``magnitude ~ U(min_magnitude, max_magnitude)`` utilization
    for a duration drawn from a Pareto(1.5) with a scale of 120 s.
    Overlapping bursts stack.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        t0: float,
        mean_interarrival: float = 4 * HOUR,
        min_magnitude: float = 0.12,
        max_magnitude: float = 0.35,
    ):
        if mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if not (0 <= min_magnitude <= max_magnitude):
            raise ValueError("need 0 <= min_magnitude <= max_magnitude")
        self._rng = rng
        self._mean_interarrival = mean_interarrival
        self._min_mag = min_magnitude
        self._max_mag = max_magnitude
        self._horizon = float(t0)
        # (start, end, magnitude) triples, ordered by start.
        self._bursts: List[Tuple[float, float, float]] = []

    def _extend_to(self, t: float) -> None:
        while self._horizon <= t:
            gap = float(self._rng.exponential(self._mean_interarrival))
            start = self._horizon + gap
            duration = float(120.0 * self._rng.pareto(1.5) + 120.0)
            magnitude = float(self._rng.uniform(self._min_mag, self._max_mag))
            self._bursts.append((start, start + duration, magnitude))
            self._horizon = start

    def utilization(self, t: float) -> float:
        self._extend_to(t)
        total = 0.0
        for start, end, magnitude in self._bursts:
            if start > t:
                break
            if start <= t < end:
                total += magnitude
        return total


class CompositeLoad:
    """Sum of component models, clamped to ``[floor, ceiling]``."""

    def __init__(self, *components: LoadModel, floor: float = 0.02, ceiling: float = 0.97):
        if not components:
            raise ValueError("CompositeLoad needs at least one component")
        if not (0.0 <= floor <= ceiling <= 1.0):
            raise ValueError("need 0 <= floor <= ceiling <= 1")
        self._components = components
        self._floor = floor
        self._ceiling = ceiling

    def utilization(self, t: float) -> float:
        total = sum(c.utilization(t) for c in self._components)
        return min(max(total, self._floor), self._ceiling)


def standard_link_load(
    rng: np.random.Generator,
    t0: float,
    mean: float = 0.45,
    diurnal_amplitude: float = 0.22,
) -> CompositeLoad:
    """The default testbed link load: diurnal + AR(1) + bursts.

    Parameters are chosen so a 155 Mb/s (OC-3 class) path swings over
    roughly a 4–7x bandwidth range with occasional deep outliers, matching
    the 1.5–10.2 MB/s GridFTP spread the paper reports.
    """
    return CompositeLoad(
        DiurnalLoad(mean=mean, amplitude=diurnal_amplitude),
        Ar1Load(rng, t0=t0, sigma=0.025),
        BurstLoad(rng, t0=t0, mean_interarrival=5 * HOUR),
    )
