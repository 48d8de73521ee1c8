"""The shipped sample traces stay loadable, regenerable, and evaluable."""

from pathlib import Path

import pytest

from repro.core import fast_evaluate
from repro.logs import TransferLog

DATA_DIR = Path(__file__).resolve().parents[2] / "data"
FILES = ["aug-LBL-ANL.ulm", "aug-ISI-ANL.ulm", "dec-LBL-ANL.ulm", "dec-ISI-ANL.ulm"]


@pytest.mark.parametrize("name", FILES)
def test_sample_traces_load(name):
    log = TransferLog.load(DATA_DIR / name)
    assert 330 <= len(log) <= 560


def test_sample_traces_evaluate(classification):
    log = TransferLog.load(DATA_DIR / "aug-LBL-ANL.ulm")
    result = fast_evaluate(log.records())
    mape = result.mape_table(classification, "1GB")["C-AVG"]
    assert 5.0 < mape < 55.0


def test_sample_matches_regeneration(tmp_path):
    """The committed August traces are seed 1's output, byte for byte."""
    from repro.workload import run_month

    for link, output in run_month(seed=1).items():
        fresh = tmp_path / f"{link}.ulm"
        output.log.save(fresh)
        assert fresh.read_bytes() == (DATA_DIR / f"aug-{link}.ulm").read_bytes()
