"""The two servers a raw-socket protocol case can be pointed at.

Protocol behaviour is defined once (:mod:`repro.endpoint`), so every
raw-socket case in ``test_wire_protocol.py`` and
``test_service_server.py`` takes a :class:`Target` and runs twice: as
itself against the worker, and again — through
``test_the_front_answers_like_the_worker`` — against a fleet front on
TCP over that same worker.  Both fixtures build on the requesting
module's own ``server`` fixture.
"""

from __future__ import annotations

import socket
import time
from contextlib import contextmanager

import pytest

from repro.fleet.front import FleetFront
from repro.obs import get_registry


class Target:
    """One listening server, as a raw-socket test sees it."""

    def __init__(self, name, address, service):
        self.name = name
        self.address = address      # a Unix socket path, or (host, port)
        self.service = service      # the PredictionService that answers

    def connect(self):
        """``(sock, rfile)`` on a fresh connection, 5 s timeouts."""
        if isinstance(self.address, tuple):
            sock = socket.create_connection(self.address, timeout=5.0)
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(5.0)
            sock.connect(str(self.address))
        return sock, sock.makefile("rb")

    @contextmanager
    def counting(self, protocol):
        """How far ``server_requests`` / ``server_bad_requests`` of one
        ``protocol`` moved across the block: ``{"requests", "bad"}``.

        The series are process-wide and the worker behind an in-process
        front counts into them too, over its binary pool connections —
        so the binary cases count good requests with ``ping``, which a
        front answers itself.
        """
        registry = get_registry()
        series = {
            key: registry.counter(name).labels(protocol=protocol)
            for key, name in (("requests", "server_requests"),
                              ("bad", "server_bad_requests"))
        }
        before = {key: child.value for key, child in series.items()}
        moved = {}
        yield moved
        moved.update(
            {key: child.value - before[key] for key, child in series.items()})


@pytest.fixture
def endpoint(server):
    """The worker: the module's own ``ServiceServer`` on its Unix socket."""
    return Target("worker", server.socket_path, server.service)


@pytest.fixture
def front_endpoint(server):
    """A fleet front on TCP over the module's ``server`` as its one worker.

    Heartbeats are parked (one ping at start, then none) and the first
    is waited out, so nothing but the test moves the worker's counters.
    """
    front = FleetFront([server.socket_path], heartbeat_interval=3600.0).start()
    try:
        deadline = time.monotonic() + 5.0
        while not front._links[0]._idle:
            assert time.monotonic() < deadline, "first heartbeat never answered"
            time.sleep(0.005)
        yield Target("front", front.address, server.service)
    finally:
        front.stop()
