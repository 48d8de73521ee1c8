"""The GridFTP server (control) module.

Mirrors the decomposition in Section 3 of the paper: the server module
"manages connection, authentication, creation of control and data channels
(separate control and data channels facilitate parallel transfers), and
reading and writing data".  Concretely:

* :class:`Credential` + a grid-map check stand in for GSI authentication;
* :class:`Session` is an authenticated control connection from one remote
  endpoint; its ``retrieve``/``store``/``partial_retrieve`` calls open
  ``streams`` parallel data channels (a :class:`TransferRequest`) and
  drive the :class:`~repro.gridftp.transfer.TransferEngine`;
* every completed transfer is logged by the attached
  :class:`~repro.gridftp.instrumentation.Monitor`.

The server holds its disks for the duration of each transfer via the
simulation engine (acquire now, release scheduled at completion), so
concurrent transfers see each other through disk contention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from repro.gridftp.errors import (
    AuthenticationError,
    FileNotFoundOnServer,
    ServerBusyError,
    TransferError,
)
from repro.gridftp.instrumentation import Monitor
from repro.gridftp.transfer import TransferEngine, TransferOutcome, TransferRequest
from repro.logs.record import Operation
from repro.net.topology import Path, Site, Topology
from repro.sim.engine import Engine
from repro.storage.disk import Disk
from repro.storage.filesystem import LogicalVolume

__all__ = ["Credential", "Session", "GridFTPServer"]


@dataclass(frozen=True)
class Credential:
    """A stub GSI credential: a subject name and a validity flag."""

    subject: str
    valid: bool = True


@dataclass(frozen=True)
class _RemoteEndpoint:
    """Who is on the other side of a session."""

    site: Site
    disk: Disk


class Session:
    """An authenticated control connection to a server.

    All transfer calls compute their timing at the server's current
    simulation time and log synchronously (the record carries the true
    start/end timestamps; the log keeps end-time order).
    """

    def __init__(self, server: "GridFTPServer", remote: _RemoteEndpoint):
        self._server = server
        self._remote = remote
        self.closed = False

    def _check_open(self) -> None:
        if self.closed:
            raise TransferError("session is closed")

    def retrieve(
        self, path: str, streams: int = 1, buffer: int = 64_000
    ) -> TransferOutcome:
        """Server reads ``path`` from disk and sends it to the remote (a get)."""
        self._check_open()
        server = self._server
        volume = server.find_volume(path)
        size = volume.size_of(path)
        return server._perform(
            size=size,
            file_name=volume.abspath(path),
            volume=volume.root,
            operation=Operation.READ,
            remote=self._remote,
            streams=streams,
            buffer=buffer,
        )

    def partial_retrieve(
        self,
        path: str,
        offset: int,
        length: int,
        streams: int = 1,
        buffer: int = 64_000,
    ) -> TransferOutcome:
        """GridFTP partial file transfer: send ``length`` bytes from ``offset``."""
        self._check_open()
        server = self._server
        volume = server.find_volume(path)
        size = volume.size_of(path)
        if offset < 0 or length <= 0 or offset + length > size:
            raise TransferError(
                f"partial transfer [{offset}, {offset + length}) outside file of {size} bytes"
            )
        return server._perform(
            size=length,
            file_name=volume.abspath(path),
            volume=volume.root,
            operation=Operation.READ,
            remote=self._remote,
            streams=streams,
            buffer=buffer,
        )

    def store(
        self, path: str, size: int, streams: int = 1, buffer: int = 64_000
    ) -> TransferOutcome:
        """Remote sends a file which the server writes to disk (a put)."""
        self._check_open()
        server = self._server
        volume = server.volume_for_new_file(path)
        outcome = server._perform(
            size=size,
            file_name=volume.abspath(path),
            volume=volume.root,
            operation=Operation.WRITE,
            remote=self._remote,
            streams=streams,
            buffer=buffer,
        )
        volume.add_file(path, size)
        return outcome

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._server._session_closed()


class GridFTPServer:
    """A GridFTP endpoint at one testbed site."""

    def __init__(
        self,
        site: Site,
        engine: Engine,
        topology: Topology,
        volumes: Sequence[LogicalVolume],
        transfer_engine: TransferEngine,
        port: int = 2811,
    ):
        if not volumes:
            raise ValueError("server needs at least one volume")
        self.site = site
        self.engine = engine
        self.topology = topology
        self.volumes: List[LogicalVolume] = list(volumes)
        self.transfer_engine = transfer_engine
        self.monitor = Monitor(host=site.hostname)
        self.grid_map: Optional[Set[str]] = None  # None => any valid credential
        self.port = port
        self.max_sessions: Optional[int] = None  # None => unlimited
        self.transfers_served = 0
        self._open_sessions = 0

    # ------------------------------------------------------------------
    # control connections
    # ------------------------------------------------------------------
    def open_session(
        self, credential: Credential, remote_site: Site, remote_disk: Disk
    ) -> Session:
        """Authenticate and open a control connection.

        Raises :class:`ServerBusyError` when the concurrent-session limit
        is reached — the connection-refused (FTP 421) behaviour of a
        loaded server, checked *before* authentication as a real server
        would refuse the TCP connection outright.
        """
        if self.max_sessions is not None and self._open_sessions >= self.max_sessions:
            raise ServerBusyError(
                f"{self.site.name}: {self._open_sessions}/{self.max_sessions} "
                f"sessions in use"
            )
        if not credential.valid:
            raise AuthenticationError(f"invalid credential for {credential.subject!r}")
        if self.grid_map is not None and credential.subject not in self.grid_map:
            raise AuthenticationError(
                f"subject {credential.subject!r} not in grid-map of {self.site.name}"
            )
        self._open_sessions += 1
        return Session(self, _RemoteEndpoint(site=remote_site, disk=remote_disk))

    def _session_closed(self) -> None:
        if self._open_sessions > 0:
            self._open_sessions -= 1

    @property
    def url(self) -> str:
        """The gsiftp URL advertised by the information provider (Figure 6)."""
        return f"gsiftp://{self.site.hostname}:{self.port}"

    # ------------------------------------------------------------------
    # volumes
    # ------------------------------------------------------------------
    def find_volume(self, path: str) -> LogicalVolume:
        """Volume holding an existing file ``path``."""
        for volume in self.volumes:
            try:
                if volume.has(path):
                    return volume
            except ValueError:
                continue  # absolute path outside this volume's root
        raise FileNotFoundOnServer(f"{path!r} not found on {self.site.name}")

    def volume_for_new_file(self, path: str) -> LogicalVolume:
        """Volume that would hold a new file ``path`` (longest matching root)."""
        if not path.startswith("/"):
            return self.volumes[0]
        candidates = [v for v in self.volumes if path.startswith(v.root)]
        if not candidates:
            raise TransferError(f"{path!r} matches no served volume on {self.site.name}")
        return max(candidates, key=lambda v: len(v.root))

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def _perform(
        self,
        *,
        size: int,
        file_name: str,
        volume: str,
        operation: Operation,
        remote: _RemoteEndpoint,
        streams: int,
        buffer: int,
    ) -> TransferOutcome:
        path = self._route_to(remote.site)
        request = TransferRequest(
            size=size, streams=streams, buffer=buffer, start_time=self.engine.now
        )
        server_disk = self.volumes[0].disk if operation is Operation.WRITE else None
        # Reading: data flows server disk -> network -> remote disk.
        # Writing: remote disk -> network -> server disk.
        if operation is Operation.READ:
            src_disk, dst_disk = self._disk_for(file_name), remote.disk
        else:
            src_disk, dst_disk = remote.disk, server_disk or self.volumes[0].disk
        outcome = self.transfer_engine.execute(path, request, src_disk, dst_disk)
        self._hold_disks(src_disk, dst_disk, outcome)
        self.monitor.record(
            outcome,
            source_ip=remote.site.address,
            file_name=file_name,
            volume=volume,
            operation=operation,
        )
        self.transfers_served += 1
        return outcome

    def _disk_for(self, file_name: str) -> Disk:
        for volume in self.volumes:
            try:
                if volume.has(file_name):
                    return volume.disk
            except ValueError:
                continue
        return self.volumes[0].disk

    def _route_to(self, remote_site: Site) -> Path:
        if remote_site.name == self.site.name:
            raise TransferError("loopback transfers are not modeled")
        return self.topology.path(self.site.name, remote_site.name)

    def _hold_disks(self, src: Disk, dst: Disk, outcome: TransferOutcome) -> None:
        """Mark both disks busy for the transfer's duration."""
        for disk in {id(src): src, id(dst): dst}.values():
            disk.acquire()
            self.engine.schedule_at(outcome.end_time, disk.release)

    # ------------------------------------------------------------------
    # third-party receive
    # ------------------------------------------------------------------
    def record_incoming(
        self, outcome: TransferOutcome, source_site: Site, path: str
    ) -> None:
        """Store and log a file that arrived via a third-party transfer.

        The sending server computed (and logged) the transfer as a Read;
        this side files the data into a volume and logs the matching
        Write, so both ends' logs see the transfer — as the paper's
        per-server instrumentation would.
        """
        volume = self.volume_for_new_file(path)
        volume.add_file(path, outcome.request.size)
        self.monitor.record(
            outcome,
            source_ip=source_site.address,
            file_name=volume.abspath(path),
            volume=volume.root,
            operation=Operation.WRITE,
        )
        self.transfers_served += 1
