"""Recomputation of every table and figure in the paper's evaluation.

Each module computes one artifact's data (a plain dataclass) and renders
it as an aligned-text table, so benchmarks and the CLI print the same rows
the paper's figures plot:

* :mod:`repro.analysis.nws_compare` — Figures 1–2 (NWS probe vs GridFTP
  bandwidth per link).
* :mod:`repro.analysis.census` — Figure 7 (transfer counts per file-size
  class per link per month).
* :mod:`repro.analysis.errors` — Figures 8–11 (per-class percent error of
  the 15 predictors, classified and unclassified).
* :mod:`repro.analysis.classification_impact` — Figures 12–13 (error
  reduction from file-size classification).
* :mod:`repro.analysis.relative_perf` — Figures 14–21 (best/worst
  percentages per predictor).
* :mod:`repro.analysis.summary` — the Section 6.2 textual claims, checked
  numerically.
* :mod:`repro.analysis.report` — table rendering helpers.
"""

from repro._lazy import lazy_exports

# Resolved on first access: ``repro evaluate`` renders one table with
# :mod:`repro.analysis.report` and must not start the campaign simulator
# that the census, comparison, export and sweep modules import.
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.analysis.report": ("render_table",),
    "repro.analysis.nws_compare": (
        "NwsComparison",
        "compare_probe_vs_gridftp",
        "render_nws_comparison",
    ),
    "repro.analysis.census": ("Census", "compute_census", "render_census"),
    "repro.analysis.errors": (
        "ClassErrors",
        "compute_class_errors",
        "compute_class_errors_dataset",
        "render_class_errors",
    ),
    "repro.analysis.classification_impact": (
        "ClassificationImpact",
        "compute_classification_impact",
        "render_classification_impact",
    ),
    "repro.analysis.relative_perf": (
        "RelativeTable",
        "compute_relative_table",
        "render_relative_table",
    ),
    "repro.analysis.summary": (
        "SummaryClaims",
        "check_summary_claims",
        "render_summary",
    ),
    "repro.analysis.export": ("export_all",),
    "repro.analysis.sweep": ("SweepResult", "render_sweep", "sweep_claims"),
})
