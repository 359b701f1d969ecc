"""The paper's contribution: flexible two-phase collective I/O.

Public surface:

* :class:`~repro.core.file_view.FileView` — MPI_File_set_view analogue;
* :class:`~repro.core.file_handle.CollectiveFile` — open/set_view/
  write_all/read_all/sync/close, dispatching to either implementation;
* :mod:`~repro.core.realms` — datatype-described file realms and the
  assignment strategies (even / aligned / balanced / persistent);
* :mod:`~repro.core.two_phase_new` — the new flexible implementation
  (flattened-filetype exchange, per-aggregator cursors with tile
  skipping, pluggable flush method, alltoallw or nonblocking exchange);
* :mod:`~repro.core.two_phase_old` — the ROMIO-style baseline
  (flatten-everything offset/length exchange, integrated data sieving);
* :mod:`~repro.core.rounds` — the one round executor both
  implementations (and plan-cache replays) run their rounds through.
"""

from repro.core.aggregation import select_aggregators
from repro.core.file_handle import CollectiveFile
from repro.core.file_view import FileView
from repro.core.realms import (
    AlignedPartition,
    BalancedPartition,
    EvenPartition,
    FileRealm,
    RealmStrategy,
    resolve_strategy,
)

__all__ = [
    "CollectiveFile",
    "FileView",
    "FileRealm",
    "RealmStrategy",
    "EvenPartition",
    "AlignedPartition",
    "BalancedPartition",
    "resolve_strategy",
    "select_aggregators",
]
