"""A ULM log is input only.

Reading one — through the library or any command that takes log files —
leaves its directory as it was, and a malformed one ends a command with
one line naming the file and the line, never a traceback.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.data import Dataset, load_ulm
from repro.logs import TransferLog
from repro.service import PredictionService

DATA_DIR = Path(__file__).resolve().parents[2] / "data"


@pytest.fixture
def log(tmp_path):
    """The first 40 transfers of a shipped log, alone in a directory."""
    lines = (DATA_DIR / "aug-LBL-ANL.ulm").read_bytes().splitlines(keepends=True)
    path = tmp_path / "logs" / "link.ulm"
    path.parent.mkdir()
    path.write_bytes(b"".join(lines[:40]))
    return path


def _commands(path):
    """Every command that reads log files, over ``path``."""
    return {
        "evaluate": ["evaluate", str(path)],
        "serve": ["serve", str(path), "--oneshot"],
        "query": ["query", "predict", "--logs", str(path), "--link", path.stem,
                  "--size", "100MB"],
        "status": ["status", "--logs", str(path), "--json"],
    }


READERS = {
    "load_ulm": load_ulm,
    "Dataset.from_ulm": Dataset.from_ulm,
    "TransferLog.load": TransferLog.load,
    "ingest_ulm": lambda path: PredictionService().ingest_ulm(path),
    "ingest_ulm-cache-False":
        lambda path: PredictionService().ingest_ulm(path, cache=False),
    **{f"cli-{name}": lambda path, name=name: main(_commands(path)[name])
       for name in ("evaluate", "query", "serve", "status")},
}


@pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
def test_reading_a_log_writes_nothing_beside_it(read, log, capsys):
    before = sorted(log.parent.iterdir())
    read(log)
    read(log)  # a second read finds what the first left, if anything
    capsys.readouterr()
    assert sorted(log.parent.iterdir()) == before


#: Line 3 of the log, spoiled two ways.
SPOILERS = {
    "bad-byte": lambda line: b"\xff" + line,
    "no-equals": lambda line: b"garbage\n",
}


@pytest.mark.parametrize("spoil", SPOILERS.values(), ids=SPOILERS.keys())
@pytest.mark.parametrize("command", ["evaluate", "serve", "query", "status"])
def test_a_malformed_log_is_one_line_naming_file_and_line(command, spoil, log):
    lines = log.read_bytes().splitlines(keepends=True)
    lines[2] = spoil(lines[2])
    log.write_bytes(b"".join(lines))
    with pytest.raises(SystemExit) as exit_:
        main(_commands(log)[command])
    message = str(exit_.value.code)
    assert message.startswith(f"{log}: line 3: "), message
    assert "\n" not in message
