"""repro — a reproduction of *Predicting the Performance of Wide Area Data
Transfers* (Vazhkudai, Schopf, Foster; IPPS 2002).

The package rebuilds the paper's full stack over a simulated wide-area
testbed:

* ``repro.sim`` / ``repro.net`` / ``repro.storage`` — discrete-event
  kernel, network (load + TCP) model, disk model.
* ``repro.gridftp`` / ``repro.logs`` — the instrumented GridFTP service
  and its ULM transfer logs (Section 3).
* ``repro.core`` — the 30-predictor battery, walk-forward evaluation,
  relative performance, and replica selection (Sections 4 and 6).
* ``repro.nws`` — the Network Weather Service contrast (Figures 1–2) and
  its dynamic-selection forecasters.
* ``repro.mds`` — the GRIS/GIIS information service and the GridFTP
  information provider (Section 5).
* ``repro.workload`` / ``repro.analysis`` — campaign generation and the
  recomputation of every table and figure.

Quick start::

    from repro.workload import run_month
    from repro.core import evaluate, paper_classification
    from repro.core.predictors import classified_predictors

    logs = run_month(seed=1)                       # the August datasets
    records = logs["LBL-ANL"].log.records()
    result = evaluate(records, classified_predictors())
    print(result.mape_table(paper_classification(), "1GB"))
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Resolved on first access: a serving or client process that never reads
# ``repro.run_month`` never imports the simulator behind it.
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.classification": ("Classification", "paper_classification"),
    "repro.core.evaluation": ("EvaluationResult",),
    "repro.core.history": ("History", "Observation"),
    "repro.core.selection": ("ReplicaBroker",),
    "repro.core.engine": ("evaluate",),
    "repro.core.predictors.registry": (
        "PAPER_PREDICTOR_NAMES",
        "classified_predictors",
        "paper_predictors",
        "resolve",
    ),
    "repro.logs.logfile": ("TransferLog",),
    "repro.logs.record": ("TransferRecord", "Operation"),
    "repro.workload.scenarios": ("AUG_2001", "DEC_2001", "build_testbed"),
    "repro.workload.campaigns": ("run_month",),
})
__all__.append("__version__")
