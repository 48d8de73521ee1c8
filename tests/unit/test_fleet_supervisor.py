"""WorkerSupervisor readiness polling: the schedule, with no process."""

from __future__ import annotations

import time

import pytest

import repro.client
from repro.fleet.supervisor import WorkerSpec, WorkerSupervisor


class _Exited:
    returncode = 7

    def poll(self):
        return self.returncode


@pytest.fixture
def supervisor(tmp_path):
    # Never started: the socket path does not exist, so every ping fails.
    return WorkerSupervisor([WorkerSpec(shard=0, socket_path=tmp_path / "w0.sock")])


def test_ready_poll_doubles_from_5ms_to_the_50ms_cap(supervisor, monkeypatch):
    clients = []

    class CountedClient(repro.client.ServiceClient):
        def __init__(self, *args, **kwargs):
            clients.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(repro.client, "ServiceClient", CountedClient)
    handle = supervisor._handles[0]
    pauses = []

    def sleep(seconds):
        pauses.append(seconds)
        if len(pauses) == 8:
            handle.proc = _Exited()      # the worker dies while we wait

    with pytest.raises(RuntimeError, match="shard 0 exited with code 7"):
        supervisor._wait_ready(handle, time.monotonic() + 60.0, sleep=sleep)
    assert pauses == [0.005, 0.01, 0.02, 0.04, 0.05, 0.05, 0.05, 0.05]
    assert len(clients) == 1 and not clients[0].connected


def test_ready_poll_gives_up_at_the_deadline_without_sleeping(supervisor):
    pauses = []
    with pytest.raises(TimeoutError, match="shard 0 not ready"):
        supervisor._wait_ready(
            supervisor._handles[0], time.monotonic() - 1.0, sleep=pauses.append)
    assert pauses == []
