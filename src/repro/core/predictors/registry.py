"""The named predictor battery of Figure 4, behind one spec-string API.

The paper evaluates exactly fifteen context-insensitive predictors::

                    Average   Median    ARIMA
    All data        AVG       MED       AR
    Last 1 value    LV
    Last 5 values   AVG5      MED5
    Last 15 values  AVG15     MED15
    Last 25 values  AVG25     MED25
    Last 5 hours    AVG5hr
    Last 15 hours   AVG15hr
    Last 25 hours   AVG25hr
    Last 5 days                         AR5d
    Last 10 days                        AR10d

plus the same fifteen with file-size classification (Section 4.3), for 30
in total.

:func:`resolve` is the single entry point every layer (CLI, MDS provider,
prediction service, benchmarks) uses to turn a spec string into a
predictor.  A spec is a Figure 4 name (window parameters are free:
``"AVG7"``, ``"MED9"``, ``"AVG3hr"``, ``"AR2d"`` all work), optionally
``C-`` prefixed for the classified variant, or the ``SIZE`` extension
(the continuous size-scaling model).  :func:`resolve_battery` maps a
sequence of specs to a name -> predictor dict; :func:`paper_predictors`
and :func:`classified_predictors` build the paper's two 15-predictor
batteries on top of it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.core.classification import Classification, paper_classification
from repro.core.predictors.arima import ArModel
from repro.core.predictors.base import Predictor
from repro.core.predictors.classified import ClassifiedPredictor
from repro.core.predictors.last_value import LastValue
from repro.core.predictors.mean import TemporalAverage, TotalAverage, WindowedAverage
from repro.core.predictors.median import TotalMedian, WindowedMedian

__all__ = [
    "PAPER_PREDICTOR_NAMES",
    "CLASSIFIED_PREDICTOR_NAMES",
    "ALL_PREDICTOR_NAMES",
    "KERNEL_SPECS",
    "resolve",
    "resolve_battery",
    "paper_predictors",
    "classified_predictors",
]

#: Figure-order names of the 15 context-insensitive predictors.
PAPER_PREDICTOR_NAMES: Tuple[str, ...] = (
    "AVG",
    "LV",
    "AVG5",
    "AVG15",
    "AVG25",
    "MED",
    "MED5",
    "MED15",
    "MED25",
    "AVG5hr",
    "AVG15hr",
    "AVG25hr",
    "AR",
    "AR5d",
    "AR10d",
)

#: The 15 classified variants, in the same order.
CLASSIFIED_PREDICTOR_NAMES: Tuple[str, ...] = tuple(
    f"C-{name}" for name in PAPER_PREDICTOR_NAMES
)

#: All 30 paper predictors (Figure 4's full battery).
ALL_PREDICTOR_NAMES: Tuple[str, ...] = PAPER_PREDICTOR_NAMES + CLASSIFIED_PREDICTOR_NAMES

#: Specs with a vectorized kernel in :mod:`repro.core.fast`.  The fast
#: evaluator computes exactly the 30-predictor battery, so these — and
#: only these — are eligible for the vectorized engine.
KERNEL_SPECS: frozenset = frozenset(ALL_PREDICTOR_NAMES)


def _build(name: str) -> Predictor:
    if name == "AVG":
        return TotalAverage()
    if name == "LV":
        return LastValue()
    if name.startswith("AVG") and name.endswith("hr"):
        return TemporalAverage(hours=float(name[3:-2]))
    if name.startswith("AVG"):
        return WindowedAverage(window=int(name[3:]))
    if name == "MED":
        return TotalMedian()
    if name.startswith("MED"):
        return WindowedMedian(window=int(name[3:]))
    if name == "AR":
        return ArModel()
    if name.startswith("AR") and name.endswith("d"):
        return ArModel(window_days=float(name[2:-1]))
    if name == "SIZE":
        # Imported here to avoid a cycle (size_model imports base only,
        # but keeping the registry's top-level imports to Figure 4 keeps
        # the module graph flat).
        from repro.core.predictors.size_model import SizeScaledPredictor

        return SizeScaledPredictor()
    raise KeyError(f"unknown predictor spec {name!r}")


def resolve(
    spec: str,
    classification: Optional[Classification] = None,
    fallback: bool = False,
) -> Predictor:
    """Resolve one predictor spec string to a fresh predictor instance.

    Parameters
    ----------
    spec:
        A Figure 4 name (``"AVG15"``, ``"MED"``, ``"AR5d"``...; window
        parameters are free, so ``"AVG7"`` works), the ``SIZE``
        extension, or any of these with a ``C-`` prefix for the
        classified variant.
    classification:
        Size classes used by ``C-`` specs (default: the paper's).
    fallback:
        ``C-`` specs only: fall back to the unclassified prediction when
        the target's class has no history (what a deployed provider does)
        instead of abstaining.

    Raises
    ------
    KeyError
        If the spec names no known predictor.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise KeyError(f"predictor spec must be a non-empty string, got {spec!r}")
    spec = spec.strip()
    if spec.startswith("C-"):
        cls = classification or paper_classification()
        return ClassifiedPredictor(_build(spec[2:]), cls, fallback=fallback)
    return _build(spec)


def resolve_battery(
    specs: Iterable[str],
    classification: Optional[Classification] = None,
    fallback: bool = False,
) -> Dict[str, Predictor]:
    """Resolve many specs at once: spec -> predictor, in given order."""
    return {
        spec.strip(): resolve(spec, classification=classification, fallback=fallback)
        for spec in specs
    }


def paper_predictors() -> Dict[str, Predictor]:
    """The 15 context-insensitive predictors, in figure order."""
    return resolve_battery(PAPER_PREDICTOR_NAMES)


def classified_predictors(fallback: bool = False) -> Dict[str, Predictor]:
    """The 15 classified variants, named ``C-<base>``, over the paper's
    size classes."""
    return resolve_battery(CLASSIFIED_PREDICTOR_NAMES, fallback=fallback)
