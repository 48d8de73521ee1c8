"""The columnar substrate changes *nothing* observable.

Three parity claims over the shipped campaign logs:

* evaluating a :class:`TransferFrame` from the vectorized ingest yields
  trace-identical predictions to evaluating the per-record parse (also
  end to end: file load + vectorized battery, all 30 predictors);
* the MDS information provider publishes byte-identical LDIF from a
  frame and from a record-list log;
* service state built by bulk frame ingest equals state built by
  per-record observes — same arrays, same version, same predictions.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import evaluate_dataset
from repro.core.evaluation import evaluate as generic_evaluate
from repro.core.fast import fast_evaluate
from repro.core.predictors import ALL_PREDICTOR_NAMES, resolve_battery
from repro.data import Dataset, load_ulm
from repro.logs import TransferLog
from repro.logs.ulm import parse_lines
from repro.mds.ldif import format_entries
from repro.mds.provider import GridFTPInfoProvider
from repro.net.topology import Site
from repro.service import PredictionService

DATA_DIR = Path(__file__).resolve().parents[2] / "data"
LOGS = sorted(DATA_DIR.glob("*.ulm"))

SITE = Site(name="LBL", domain="lbl.gov", hostname="ftp.lbl.gov",
            address="131.243.2.12")


def _records(path):
    return list(parse_lines(path.read_text().splitlines()))


#: The two evaluators, called directly: the facade would pick by spec.
EVALUATORS = {
    "fast": lambda data, specs: fast_evaluate(data),
    "generic": lambda data, specs: generic_evaluate(data, resolve_battery(specs)),
}


@pytest.mark.parametrize("path", LOGS, ids=lambda p: p.name)
@pytest.mark.parametrize("engine", ["fast", "generic"])
def test_frame_evaluation_trace_identical(path, engine):
    records = _records(path)
    frame = load_ulm(path)
    specs = ["C-AVG15", "AVG", "MED5", "AR", "AVG5hr"]
    if engine == "generic":
        specs = specs[:2]  # the generic walk is slow; two specs suffice
    from_records = EVALUATORS[engine](records, specs)
    from_frame = EVALUATORS[engine](frame, specs)
    for spec in specs:
        a, b = from_records[spec], from_frame[spec]
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.predicted, b.predicted)
        assert np.array_equal(a.actual, b.actual)
        assert np.array_equal(a.times, b.times)
        assert a.abstentions == b.abstentions


@pytest.mark.parametrize("path", LOGS, ids=lambda p: p.name)
def test_seed_path_equals_the_columnar_path(path):
    """The whole pipeline both ways, all 30 predictors: the per-record
    parse and the generic walk against the columnar file load and the
    facade's vectorized battery."""
    columnar = evaluate_dataset(Dataset.from_ulm([path]))[path.stem]
    seed = generic_evaluate(_records(path), resolve_battery(ALL_PREDICTOR_NAMES))
    assert seed.names() == columnar.names()
    for name in seed.names():
        a, b = seed[name], columnar[name]
        assert np.array_equal(a.indices, b.indices), name
        assert np.allclose(a.predicted, b.predicted, rtol=1e-9), name
        assert a.abstentions == b.abstentions, name


@pytest.mark.parametrize("path", LOGS, ids=lambda p: p.name)
def test_provider_attributes_identical_on_both_paths(path):
    records = _records(path)
    log = TransferLog()
    log.extend(records)
    frame = load_ulm(path)

    now = float(frame.end_times[-1]) + 60.0
    from_log = GridFTPInfoProvider(log=log, site=SITE, url="gsiftp://x")
    from_frame = GridFTPInfoProvider(log=frame, site=SITE, url="gsiftp://x")
    entry_log, _ = from_log.report(now)
    entry_frame, _ = from_frame.report(now)
    assert entry_log is not None and entry_frame is not None
    assert format_entries([entry_log]) == format_entries([entry_frame])


@pytest.mark.parametrize("path", LOGS[:2], ids=lambda p: p.name)
def test_service_bulk_ingest_equals_per_record(path):
    records = _records(path)
    frame = load_ulm(path)

    bulk = PredictionService()
    bulk.ingest_frame("link", frame)
    incremental = PredictionService()
    incremental.ingest_records("link", records)

    assert bulk.version("link") == incremental.version("link")
    b_times, b_values, b_sizes, b_ops, b_version = \
        bulk.link_state("link").snapshot()
    i_times, i_values, i_sizes, i_ops, i_version = \
        incremental.link_state("link").snapshot()
    assert b_version == i_version == len(records)
    assert np.array_equal(b_times, i_times)
    assert np.array_equal(b_values, i_values)
    assert np.array_equal(b_sizes, i_sizes)
    assert np.array_equal(b_ops, i_ops)

    now = float(frame.end_times[-1]) + 60.0
    for spec in ("C-AVG15", "AVG", "LV"):
        a = bulk.predict("link", 100_000_000, spec=spec, now=now)
        b = incremental.predict("link", 100_000_000, spec=spec, now=now)
        assert a.value == b.value
