"""How a serving process stops: a stop asked for before the accept loop
has bound still ends it, and a second SIGINT kills at once."""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.service import PredictionService, ServiceServer

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="unix domain sockets unavailable"
)

#: A ``repro serve`` process in miniature: ``serve_until_signalled`` with
#: a background loop that never looks at ``stopping``, so shutdown waits
#: out its join timeout.
_STUBBORN = textwrap.dedent("""
    import argparse, sys, time
    from repro import serving
    from repro.service import PredictionService

    def stubborn(stopping):
        while True:
            time.sleep(0.05)

    serving.serve_until_signalled(
        PredictionService(), argparse.Namespace(socket=sys.argv[1]),
        [("stubborn", stubborn)])
""")


def _wait_for(path: Path, timeout: float = 20.0) -> None:
    deadline = time.monotonic() + timeout
    while not path.exists():
        assert time.monotonic() < deadline, f"{path} never appeared"
        time.sleep(0.01)


def test_a_stop_requested_before_the_bind_ends_the_loop_once_bound(tmp_path):
    path = tmp_path / "repro.sock"
    server = ServiceServer(PredictionService(), path)
    server.request_stop()  # what a signal landing mid-bind does
    loop = threading.Thread(target=server.serve_forever, daemon=True)
    loop.start()
    loop.join(timeout=1.0)
    stopped = not loop.is_alive()
    if not stopped:  # let the loop go before failing
        server.request_stop()
        loop.join(timeout=5.0)
    assert stopped
    assert not path.exists()


def test_a_second_sigint_kills_at_once(tmp_path):
    path = tmp_path / "repro.sock"
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    child = subprocess.Popen([sys.executable, "-c", _STUBBORN, str(path)],
                             env=env, stderr=subprocess.DEVNULL)
    try:
        _wait_for(path)
        child.send_signal(signal.SIGINT)
        time.sleep(0.5)
        child.send_signal(signal.SIGINT)
        second = time.monotonic()
        try:
            code = child.wait(timeout=1.0)
        except subprocess.TimeoutExpired:
            code = None
        waited = time.monotonic() - second
    finally:
        child.kill()
        child.wait()
    assert code == -signal.SIGINT, (code, waited)
    assert waited < 1.0
