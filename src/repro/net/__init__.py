"""Wide-area network substrate.

Models the end-to-end network half of a GridFTP transfer:

* :mod:`repro.net.topology` — sites, links, and routed paths (networkx).
* :mod:`repro.net.load` — background (cross-traffic) utilization processes:
  a diurnal cycle, AR(1) noise, and heavy-tailed bursts.  These are what
  give the synthetic GridFTP series the variability and asymmetric
  outliers the paper observes (1.5–10.2 MB/s swings on the same link).
* :mod:`repro.net.tcp` — an analytic TCP throughput model with connection
  setup, slow start, window-limited steady state, and parallel-stream
  aggregation.  Slow start is what couples achieved bandwidth to file
  size (Section 4.3 of the paper), and the small-window single-stream
  case is what makes the simulated NWS probes slow (Figures 1–2).
"""

from repro._lazy import lazy_exports

# Resolved on first access: the information providers read
# ``repro.net.topology.Site`` and never load the TCP model beside it.
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.net.topology": ("Site", "Link", "Path", "Topology"),
    "repro.net.load": (
        "LoadModel",
        "ConstantLoad",
        "DiurnalLoad",
        "Ar1Load",
        "BurstLoad",
        "CompositeLoad",
        "standard_link_load",
    ),
    "repro.net.tcp": ("TcpConfig", "TcpModel", "TransferTiming"),
})
