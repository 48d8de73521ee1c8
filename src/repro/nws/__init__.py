"""Network Weather Service (NWS) substrate.

The paper contrasts its GridFTP-log approach with the NWS (Wolski, 1998):
a lightweight monitoring system that probes each path with *small* (64 KB,
default TCP buffer) transfers at *regular* intervals (every 5 minutes in
Figures 1–2) and forecasts the series with a battery of simple predictors,
dynamically selecting whichever has the lowest accumulated error.

We need the NWS for three reproduction targets:

* **Figures 1–2** — probe bandwidth vs GridFTP end-to-end bandwidth on the
  same simulated links over two weeks.
* **The dynamic-selection technique** (Section 7 future work) — ported to
  the GridFTP predictors as :class:`repro.core.predictors.dynamic`.
* **The hybrid predictor** (Section 7) — regressing sporadic GridFTP
  observations onto the regular NWS series.

Components: :mod:`repro.nws.series` (timestamped measurement series),
:mod:`repro.nws.sensor` (the periodic probe process), and
:mod:`repro.nws.forecaster` (the forecaster battery with MSE-driven
dynamic selection).
"""

from repro._lazy import lazy_exports

# Resolved on first access: ``repro.nws.series`` is a plain value type
# the hybrid predictor reads; only the sensor needs the simulation kernel.
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.nws.series": ("TimeSeries",),
    "repro.nws.sensor": ("NwsSensor", "ProbeConfig"),
    "repro.nws.forecaster": (
        "Forecaster",
        "RunningMean",
        "SlidingMean",
        "SlidingMedian",
        "LastValue",
        "ExponentialSmoothing",
        "DynamicForecaster",
        "standard_battery",
    ),
})
