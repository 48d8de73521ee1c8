"""Server connection limits (FTP 421 behaviour)."""

import pytest

from repro.gridftp import Credential, ServerBusyError
from tests.unit.test_gridftp_server import make_server


def make_limited(max_sessions):
    server, remote, disk, engine = make_server()
    server.max_sessions = max_sessions
    return server, remote, disk


class TestSessionLimits:
    def test_unlimited_by_default(self):
        server, remote, disk = make_limited(None)
        sessions = [
            server.open_session(Credential("/CN=u"), remote, disk)
            for _ in range(50)
        ]
        for s in sessions:
            s.close()
        server.max_sessions = 50  # every slot was freed
        for _ in range(50):
            server.open_session(Credential("/CN=u"), remote, disk)
        with pytest.raises(ServerBusyError, match="50/50"):
            server.open_session(Credential("/CN=u"), remote, disk)

    def test_limit_enforced(self):
        server, remote, disk = make_limited(2)
        server.open_session(Credential("/CN=a"), remote, disk)
        server.open_session(Credential("/CN=b"), remote, disk)
        with pytest.raises(ServerBusyError, match="2/2"):
            server.open_session(Credential("/CN=c"), remote, disk)

    def test_slot_freed_on_close(self):
        server, remote, disk = make_limited(1)
        session = server.open_session(Credential("/CN=a"), remote, disk)
        session.close()
        server.open_session(Credential("/CN=b"), remote, disk)  # no raise

    def test_double_close_frees_once(self):
        server, remote, disk = make_limited(2)
        session = server.open_session(Credential("/CN=a"), remote, disk)
        session.close()
        session.close()
        server.open_session(Credential("/CN=b"), remote, disk)
        server.open_session(Credential("/CN=c"), remote, disk)
        with pytest.raises(ServerBusyError, match="2/2"):
            server.open_session(Credential("/CN=d"), remote, disk)

    def test_busy_check_precedes_auth(self):
        """A full server refuses connections before looking at credentials."""
        server, remote, disk = make_limited(1)
        server.open_session(Credential("/CN=a"), remote, disk)
        with pytest.raises(ServerBusyError):
            server.open_session(Credential("/CN=bad", valid=False), remote, disk)

    def test_client_sessions_close_after_operations(self):
        """The client's get/put/partial always release their session."""
        from repro.workload import build_testbed, AUG_2001
        from repro.units import MB

        bed = build_testbed(seed=5, start_time=AUG_2001)
        server = bed.servers["LBL"]
        server.max_sessions = 1
        client = bed.clients["ANL"]
        for _ in range(3):  # the second would be refused if one leaked
            client.get(server, bed.data_path(10 * MB))
        # The third get's slot was freed too.
        server.open_session(client.credential, client.site, client.disk)
