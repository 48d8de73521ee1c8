"""The columnar history substrate.

One in-memory representation of transfer history for every layer:
:class:`TransferFrame` (columnar records), the vectorized ULM ingest
path (:func:`load_ulm`), and the multi-link :class:`Dataset`.  A live
link's growable rows are its
:class:`~repro.core.streaming.StreamingBank`'s.

Sits between ``repro.logs`` (record/ULM definitions) and ``repro.core``
(predictors and evaluation) in the layer DAG.
"""

from repro.data.dataset import Dataset
from repro.data.frame import OP_READ, OP_WRITE, TransferFrame
from repro.data.ingest import load_ulm, parse_ulm_lines, parse_ulm_text

__all__ = [
    "Dataset",
    "OP_READ",
    "OP_WRITE",
    "TransferFrame",
    "load_ulm",
    "parse_ulm_lines",
    "parse_ulm_text",
]
