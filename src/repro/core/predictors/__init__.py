"""The predictor battery (Section 4, Figure 4).

Fifteen context-insensitive predictors in three mathematical families:

* **mean-based** — ``AVG`` (all data), ``AVG5/15/25`` (last n values),
  ``AVG5hr/15hr/25hr`` (temporal windows), ``LV`` (degenerate last value);
* **median-based** — ``MED``, ``MED5/15/25``;
* **auto-regressive** — ``AR`` (all data), ``AR5d/AR10d`` (temporal
  windows), fitting ``Y_t = a + b*Y_{t-1}``.

Each also exists in a *classified* variant that first filters history to
the file-size class of the transfer being predicted (Section 4.3), giving
the paper's 30 predictors.  Extensions beyond the paper's evaluation:
:class:`~repro.core.predictors.dynamic.DynamicSelector` (NWS-style on-line
best-of-battery) and :class:`~repro.core.predictors.hybrid.HybridPredictor`
(GridFTP history regressed onto the regular NWS probe series), both named
in the paper's future work.
"""

from repro._lazy import lazy_exports

# Resolved on first access: the Figure 4 battery the service resolves
# does not load the NWS hybrid or the extrapolation model beside it.
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.predictors.base": ("Predictor", "PredictorError"),
    "repro.core.predictors.mean": (
        "TotalAverage",
        "WindowedAverage",
        "TemporalAverage",
    ),
    "repro.core.predictors.median": ("TotalMedian", "WindowedMedian"),
    "repro.core.predictors.last_value": ("LastValue",),
    "repro.core.predictors.arima": ("ArModel",),
    "repro.core.predictors.classified": ("ClassifiedPredictor",),
    "repro.core.predictors.dynamic": ("DynamicSelector",),
    "repro.core.predictors.hybrid": ("HybridPredictor",),
    "repro.core.predictors.size_model": ("SizeScaledPredictor",),
    "repro.core.predictors.extrapolation": ("SiteFactorModel",),
    "repro.core.predictors.registry": (
        "PAPER_PREDICTOR_NAMES",
        "CLASSIFIED_PREDICTOR_NAMES",
        "ALL_PREDICTOR_NAMES",
        "KERNEL_SPECS",
        "paper_predictors",
        "classified_predictors",
        "resolve",
        "resolve_battery",
    ),
})
