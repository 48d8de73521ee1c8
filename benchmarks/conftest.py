"""Shared claim-bench fixtures.

``bench_claim_ar_cost.py`` times predictions over the regenerated August
datasets (seed 1, the reference seed of EXPERIMENTS.md) and reads the
AR-versus-simple error from their 30-predictor tables.  Campaigns run
once per session.  The paper's figures are asserted in tier-1
(``tests/``), not here.
"""

from __future__ import annotations

import pytest

from repro.analysis import compute_class_errors_dataset
from repro.data import Dataset
from repro.workload import AUG_2001, run_month

REFERENCE_SEED = 1


@pytest.fixture(scope="session")
def august():
    """The August datasets (both links), reference seed."""
    return run_month(start_epoch=AUG_2001, seed=REFERENCE_SEED)


@pytest.fixture(scope="session")
def august_errors(august):
    """Per-link 30-predictor walk-forward error tables.

    Goes through the columnar dataset path: campaign logs convert to
    frames once and every link evaluates in one
    :func:`~repro.analysis.compute_class_errors_dataset` call.
    """
    dataset = Dataset.from_logs({link: output.log for link, output in august.items()})
    return compute_class_errors_dataset(dataset)
