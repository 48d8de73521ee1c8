"""The GridFTP client module.

Per Section 3 of the paper, the client module "is responsible for
higher-level operations such as file get and put operations or partial
transfers", plus third-party transfers (one client steering a transfer
between two servers).  Each call opens a session (authentication included)
and returns the :class:`~repro.gridftp.transfer.TransferOutcome`; campaign
drivers then sleep for ``outcome.duration`` of simulated time.
"""

from __future__ import annotations

from typing import Optional

from repro.gridftp.server import Credential, GridFTPServer
from repro.gridftp.transfer import TransferOutcome
from repro.net.topology import Site
from repro.sim.engine import Engine
from repro.storage.disk import Disk

__all__ = ["GridFTPClient"]

DEFAULT_STREAMS = 1
DEFAULT_BUFFER = 64_000


class GridFTPClient:
    """A client host at one site, with a local disk and a credential."""

    def __init__(
        self,
        site: Site,
        disk: Disk,
        engine: Engine,
    ):
        self.site = site
        self.disk = disk
        self.engine = engine
        self.credential = Credential(subject=f"/O=Grid/CN={site.name}")

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def get(
        self,
        server: GridFTPServer,
        path: str,
        streams: int = DEFAULT_STREAMS,
        buffer: int = DEFAULT_BUFFER,
    ) -> TransferOutcome:
        """Fetch ``path`` from ``server`` (logged as a server Read)."""
        session = server.open_session(self.credential, self.site, self.disk)
        try:
            return session.retrieve(path, streams=streams, buffer=buffer)
        finally:
            session.close()

    def partial_get(
        self,
        server: GridFTPServer,
        path: str,
        offset: int,
        length: int,
        streams: int = DEFAULT_STREAMS,
        buffer: int = DEFAULT_BUFFER,
    ) -> TransferOutcome:
        """GridFTP partial file transfer: ``length`` bytes starting at ``offset``."""
        session = server.open_session(self.credential, self.site, self.disk)
        try:
            return session.partial_retrieve(
                path, offset, length, streams=streams, buffer=buffer
            )
        finally:
            session.close()

    def put(
        self,
        server: GridFTPServer,
        path: str,
        size: int,
        streams: int = DEFAULT_STREAMS,
        buffer: int = DEFAULT_BUFFER,
    ) -> TransferOutcome:
        """Store a local file of ``size`` bytes at ``server`` (a server Write)."""
        session = server.open_session(self.credential, self.site, self.disk)
        try:
            return session.store(path, size, streams=streams, buffer=buffer)
        finally:
            session.close()

    def third_party_transfer(
        self,
        source: GridFTPServer,
        destination: GridFTPServer,
        path: str,
        dest_path: Optional[str] = None,
        streams: int = DEFAULT_STREAMS,
        buffer: int = DEFAULT_BUFFER,
    ) -> TransferOutcome:
        """Steer a server-to-server transfer (GridFTP third-party mode).

        The data flows directly between the two servers' sites; this client
        only drives the control channels.  The transfer is logged at *both*
        ends, as each server's instrumentation would: a Read at the source,
        a Write at the destination.
        """
        source.find_volume(path)  # fail fast on a missing source file
        session = source.open_session(
            self.credential, destination.site, destination.volumes[0].disk
        )
        try:
            outcome = session.retrieve(path, streams=streams, buffer=buffer)
        finally:
            session.close()
        destination.record_incoming(
            outcome, source.site, dest_path or path.rsplit("/", 1)[-1]
        )
        return outcome
