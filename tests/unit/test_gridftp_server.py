"""GridFTP server: sessions, auth, volumes, transfer accounting."""

import pytest

from repro.gridftp import (
    AuthenticationError,
    Credential,
    FileNotFoundOnServer,
    GridFTPServer,
    TransferError,
    TransferEngine,
)
from repro.logs import Operation
from repro.net import ConstantLoad, Link, Site, Topology
from repro.sim import Engine
from repro.storage import Disk, LogicalVolume
from repro.units import MB


def make_server(grid_map=None):
    engine = Engine(start_time=0.0)
    topo = Topology()
    a = Site(name="A", address="10.0.0.1")
    b = Site(name="B", address="10.0.0.2")
    topo.add_site(a)
    topo.add_site(b)
    topo.add_link(Link(a="A", b="B", capacity=20e6, rtt=0.05,
                       load=ConstantLoad(0.3)))
    disk = Disk("server-disk")
    volume = LogicalVolume(root="/home/ftp", disk=disk)
    volume.add_file("data/100M", 100 * MB)
    server = GridFTPServer(
        site=a, engine=engine, topology=topo, volumes=[volume],
        transfer_engine=TransferEngine(rng=None),
    )
    server.grid_map = grid_map
    return server, b, Disk("client-disk"), engine


class TestAuth:
    def test_valid_credential_accepted(self):
        server, remote, disk, _ = make_server()
        session = server.open_session(Credential("/CN=u"), remote, disk)
        assert not session.closed

    def test_invalid_credential_rejected(self):
        server, remote, disk, _ = make_server()
        with pytest.raises(AuthenticationError):
            server.open_session(Credential("/CN=u", valid=False), remote, disk)

    def test_grid_map_enforced(self):
        server, remote, disk, _ = make_server(grid_map={"/CN=alice"})
        server.open_session(Credential("/CN=alice"), remote, disk)
        with pytest.raises(AuthenticationError):
            server.open_session(Credential("/CN=mallory"), remote, disk)


class TestRetrieve:
    def test_retrieve_logs_a_read(self):
        server, remote, disk, _ = make_server()
        session = server.open_session(Credential("/CN=u"), remote, disk)
        outcome = session.retrieve("data/100M", streams=8, buffer=1 * MB)
        assert outcome.request.size == 100 * MB
        records = server.monitor.log.records()
        assert len(records) == 1
        assert records[0].operation is Operation.READ
        assert records[0].source_ip == "10.0.0.2"
        assert records[0].file_name == "/home/ftp/data/100M"
        assert records[0].volume == "/home/ftp"
        assert server.transfers_served == 1

    def test_missing_file(self):
        server, remote, disk, _ = make_server()
        session = server.open_session(Credential("/CN=u"), remote, disk)
        with pytest.raises(FileNotFoundOnServer):
            session.retrieve("data/nope")

    def test_closed_session_rejected(self):
        server, remote, disk, _ = make_server()
        session = server.open_session(Credential("/CN=u"), remote, disk)
        session.close()
        with pytest.raises(TransferError):
            session.retrieve("data/100M")

    def test_disks_held_for_transfer_duration(self):
        server, remote, disk, engine = make_server()
        session = server.open_session(Credential("/CN=u"), remote, disk)
        outcome = session.retrieve("data/100M")
        server_disk = server.volumes[0].disk
        assert server_disk.active == 1 and disk.active == 1
        engine.run(until=outcome.end_time + 1.0)
        assert server_disk.active == 0 and disk.active == 0


class TestPartialRetrieve:
    def test_partial_transfers_only_requested_bytes(self):
        server, remote, disk, _ = make_server()
        session = server.open_session(Credential("/CN=u"), remote, disk)
        outcome = session.partial_retrieve("data/100M", offset=0, length=10 * MB)
        assert outcome.request.size == 10 * MB
        assert server.monitor.log.records()[0].file_size == 10 * MB

    @pytest.mark.parametrize("offset,length", [(-1, 10), (0, 0), (95 * MB, 10 * MB)])
    def test_bad_ranges(self, offset, length):
        server, remote, disk, _ = make_server()
        session = server.open_session(Credential("/CN=u"), remote, disk)
        with pytest.raises(TransferError):
            session.partial_retrieve("data/100M", offset=offset, length=length)


class TestStore:
    def test_store_logs_a_write_and_creates_file(self):
        server, remote, disk, _ = make_server()
        session = server.open_session(Credential("/CN=u"), remote, disk)
        session.store("/home/ftp/incoming/new", 50 * MB)
        record = server.monitor.log.records()[0]
        assert record.operation is Operation.WRITE
        assert record.file_size == 50 * MB
        assert server.volumes[0].has("/home/ftp/incoming/new")

    def test_store_outside_volumes_rejected(self):
        server, remote, disk, _ = make_server()
        session = server.open_session(Credential("/CN=u"), remote, disk)
        with pytest.raises(TransferError):
            session.store("/etc/evil", 10)


class TestServerMisc:
    def test_url_format(self):
        server, *_ = make_server()
        assert server.url == f"gsiftp://{server.site.hostname}:2811"

    def test_needs_volumes(self):
        server, remote, disk, engine = make_server()
        with pytest.raises(ValueError):
            GridFTPServer(
                site=server.site, engine=engine, topology=server.topology,
                volumes=[], transfer_engine=server.transfer_engine,
            )
