"""Shared state handed to the two-phase drivers for one collective call."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.config import CostModel
from repro.core.file_view import FileView
from repro.core.pfr import PFRState
from repro.io.adio import AdioFile
from repro.mpi.comm import Communicator
from repro.mpi.hints import Hints
from repro.obs.metrics import MetricsView
from repro.sim.engine import RankContext

if TYPE_CHECKING:  # pragma: no cover - plancache imports env types
    from repro.core.plancache import PlanCache

__all__ = ["CollEnv"]


@dataclass
class CollEnv:
    """Everything a two-phase driver needs for one collective call.

    ``metrics`` is the rank-keyed registry view the drivers write their
    ``coll.*`` / ``exchange.*`` series through (the numbers MPE logging
    surfaced for the paper's analysis: where the datatype-processing
    time went, how much data and metadata moved, which flush methods
    ran)."""

    ctx: RankContext
    comm: Communicator
    cost: CostModel
    hints: Hints
    adio: AdioFile
    view: FileView
    metrics: MetricsView
    pfr: Optional[PFRState] = None
    # Persistent plan cache (docs/plan_cache.md); None = plan every call.
    plancache: Optional["PlanCache"] = None
    #: Per-aggregator assigned realm bytes of the most recent call
    #: (pre-clip; identical on every rank), updated in place — the
    #: handle owns the list, so tests can observe balanced-strategy
    #: boundary movement between calls.
    last_realm_bytes: List[int] = field(default_factory=list)
