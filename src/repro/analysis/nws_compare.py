"""Figures 1–2: NWS probe bandwidth vs GridFTP end-to-end bandwidth.

The paper plots ~1,500 five-minute NWS probes against ~400 GridFTP
transfers per link over two weeks and draws two conclusions we verify
numerically:

1. probes report *much lower* bandwidth than tuned parallel GridFTP
   transfers achieve (under 0.3 MB/s vs 1.5–10.2 MB/s), and
2. GridFTP bandwidth is far *more variable*, so no simple scaling of the
   probe series predicts it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.logs.stats import BandwidthSummary, summarize_values
from repro.workload.campaigns import CampaignOutput

from repro.analysis.report import render_table

__all__ = ["NwsComparison", "compare_probe_vs_gridftp", "render_nws_comparison"]


@dataclass(frozen=True)
class NwsComparison:
    """Per-link contrast of the two measurement styles."""

    link: str
    gridftp: BandwidthSummary
    probes: BandwidthSummary

    @property
    def mean_ratio(self) -> float:
        """GridFTP mean over probe mean — how much the probes underestimate."""
        if self.probes.mean <= 0:
            return float("inf")
        return self.gridftp.mean / self.probes.mean

    @property
    def variability_ratio(self) -> float:
        """GridFTP CV over probe CV — the qualitative mismatch."""
        probe_cv = self.probes.coefficient_of_variation
        if probe_cv <= 0:
            return float("inf")
        return self.gridftp.coefficient_of_variation / probe_cv


def compare_probe_vs_gridftp(output: CampaignOutput) -> NwsComparison:
    """Build the Figure 1/2 contrast from one campaign's output."""
    if output.probes is None:
        raise ValueError(
            f"campaign {output.link} ran without NWS probes; "
            "use run_month_with_nws"
        )
    return NwsComparison(
        link=output.link,
        gridftp=summarize_values(output.log.to_frame().bandwidths),
        probes=summarize_values(output.probes.values),
    )


def render_nws_comparison(comparison: NwsComparison) -> str:
    """The Figure 1/2 table for one link (bandwidths in MB/s)."""
    rows = []
    for name, s in (("GridFTP", comparison.gridftp), ("NWS probe", comparison.probes)):
        rows.append(
            [
                name,
                s.count,
                s.minimum / 1e6,
                s.maximum / 1e6,
                s.mean / 1e6,
                s.median / 1e6,
                s.coefficient_of_variation,
            ]
        )
    table = render_table(
        ["series", "n", "min", "max", "mean", "median", "CV"],
        rows,
        title=f"Figure 1/2 analogue — {comparison.link} (MB/s)",
    )
    footer = (
        f"GridFTP/probe mean ratio: {comparison.mean_ratio:.1f}x; "
        f"variability (CV) ratio: {comparison.variability_ratio:.1f}x"
    )
    return f"{table}\n{footer}"
