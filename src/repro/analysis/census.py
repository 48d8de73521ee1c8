"""Figure 7: transfer counts per file-size class, per link, per month.

The paper's census table::

                    August   December
    All      LBL    450      365
             ISI    432      334
    10 MB    LBL    168      134
    ...

We compute the same rows from regenerated campaign logs.  The class rows
use the classification labels; "All" is the unfiltered count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.core.classification import paper_classification
from repro.workload.campaigns import CampaignOutput

from repro.analysis.report import render_table

__all__ = ["Census", "compute_census", "render_census"]


@dataclass(frozen=True)
class Census:
    """counts[month][link][label] with label "All" for totals."""

    counts: Dict[str, Dict[str, Dict[str, int]]]
    class_labels: tuple

    def count(self, month: str, link: str, label: str = "All") -> int:
        return self.counts[month][link][label]

    def months(self) -> List[str]:
        return list(self.counts)

    def links(self) -> List[str]:
        first = next(iter(self.counts.values()))
        return list(first)


def compute_census(
    months: Mapping[str, Mapping[str, CampaignOutput]],
) -> Census:
    """Count transfers per class of the paper's classification from
    campaign outputs.

    Parameters
    ----------
    months:
        month name -> (link -> campaign output), e.g.
        ``{"August": run_month(AUG_2001), "December": run_month(DEC_2001)}``.
    """
    cls = paper_classification()
    counts: Dict[str, Dict[str, Dict[str, int]]] = {}
    for month, links in months.items():
        counts[month] = {}
        for link, output in links.items():
            records = output.log.records()
            per: Dict[str, int] = {"All": len(records)}
            for label in cls.labels:
                per[label] = 0
            for record in records:
                per[cls.classify(record.file_size)] += 1
            counts[month][link] = per
    return Census(counts=counts, class_labels=cls.labels)


def render_census(census: Census) -> str:
    """Render in the paper's row layout (class x link rows, month columns)."""
    months = census.months()
    links = census.links()
    rows = []
    for label in ("All", *census.class_labels):
        for link in links:
            rows.append(
                [label, link] + [census.count(month, link, label) for month in months]
            )
    return render_table(
        ["class", "link", *months],
        rows,
        title="Figure 7 analogue — transfer census",
    )
