"""Property-based differential harness across exchange backends.

One seeded random access pattern → four complete collective round
trips (write, then read back):

* ``new`` + ``two_layer`` exchange (the topology-aware path, with a
  drawn ``procs_per_node`` grouping),
* ``new`` + ``alltoallw``,
* ``new`` + ``nonblocking``,
* ``two_phase_old`` (the ROMIO-style baseline, which hardwires its own
  nonblocking exchange).

Every run must produce the byte-identical file image — equal to the
direct-scatter reference — and every rank must read its own payload
back byte-perfectly.  Filetype geometry, realm strategy, aggregator
count, collective-buffer size, flush method, and the node grouping are
all drawn per case; ``derandomize=True`` keeps the draw seeded and
reproducible in CI.

The 200-case sweep is marked ``slow`` (run by a dedicated CI job); a
small unmarked draw keeps the property in the tier-1 suite.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import CostModel
from repro.core import CollectiveFile
from repro.datatypes.base import RawFlatType
from repro.datatypes.flatten import FlatType
from repro.datatypes.packing import scatter_segments
from repro.datatypes.segments import FlatCursor
from repro.fs import SimFileSystem
from repro.mpi import Communicator, Hints
from repro.sim import Simulator

COST = CostModel(page_size=64, stripe_size=256, num_osts=2)
PATH = "/diff"

#: (label, coll_impl, exchange hint) — two_phase_old ignores the
#: exchange hint entirely, which is what makes it a true baseline.
MODES = (
    ("new+two_layer", "new", "two_layer"),
    ("new+alltoallw", "new", "alltoallw"),
    ("new+nonblocking", "new", "nonblocking"),
    ("old", "old", None),
)

_SETTINGS = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def cases(draw):
    nprocs = draw(st.integers(min_value=2, max_value=5))
    slot = draw(st.integers(min_value=8, max_value=24))
    seg_lo = draw(st.integers(min_value=0, max_value=slot - 1))
    seg_len = draw(st.integers(min_value=1, max_value=slot - seg_lo))
    tiles = draw(st.integers(min_value=1, max_value=6))
    strategy = draw(st.sampled_from(("even", "aligned", "balanced")))
    return dict(
        nprocs=nprocs,
        slot=slot,
        seg_lo=seg_lo,
        seg_len=seg_len,
        tiles=tiles,
        # Node grouping for the two_layer run: 1 (flat, degenerate
        # leaders) through "everyone on one node".
        ppn=draw(st.integers(min_value=1, max_value=nprocs)),
        cb=draw(st.sampled_from((96, 160, 256))),
        cb_nodes=draw(st.integers(min_value=0, max_value=3)),
        strategy=strategy,
        alignment=draw(st.sampled_from((32, 64))) if strategy == "aligned" else 0,
        io_method=draw(st.sampled_from(("datasieve", "naive"))),
        # One rank may carry no data at all: empty-send/empty-recv legs
        # must complete in every backend.
        empty_last=draw(st.booleans()),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
    )


def _build_view(rank, case):
    flat = FlatType(
        np.array([case["seg_lo"]], dtype=np.int64),
        np.array([case["seg_len"]], dtype=np.int64),
        case["slot"] * case["nprocs"],
    )
    return rank * case["slot"], RawFlatType(flat, name=f"r{rank}")


def _totals(case):
    total = case["seg_len"] * case["tiles"]
    totals = [total] * case["nprocs"]
    if case["empty_last"] and case["nprocs"] > 2:
        totals[-1] = 0
    return totals


def _payloads(case):
    rng = np.random.default_rng(case["seed"])
    return [
        rng.integers(1, 255, size=n, dtype=np.uint8) for n in _totals(case)
    ]


def _reference(case, payloads):
    size = case["slot"] * case["nprocs"] * (case["tiles"] + 2)
    out = np.zeros(size, dtype=np.uint8)
    for rank, payload in enumerate(payloads):
        if payload.size == 0:
            continue
        disp, ft = _build_view(rank, case)
        batch = FlatCursor(ft.flatten(), disp, payload.size).all_segments()
        scatter_segments(out, batch, payload)
    return out


def _hints(case, impl, exchange):
    values = dict(
        coll_impl=impl,
        cb_nodes=case["cb_nodes"],
        cb_buffer_size=case["cb"],
        realm_strategy=case["strategy"],
        realm_alignment=case["alignment"],
        io_method=case["io_method"],
    )
    if exchange is not None:
        values["exchange"] = exchange
    if exchange == "two_layer":
        values["procs_per_node"] = case["ppn"]
    if "cache_mode" in case:
        values["cache_mode"] = case["cache_mode"]
    return Hints(values)


def _roundtrip(case, impl, exchange, payloads, image_size, *, plan=None, replication=1):
    fs = SimFileSystem(COST)
    hints = _hints(case, impl, exchange)
    if replication > 1:
        hints = hints.replace(replication_factor=replication)

    def main(ctx):
        comm = Communicator(ctx, COST)
        f = CollectiveFile(ctx, comm, fs, PATH, hints=hints, cost=COST)
        disp, ft = _build_view(comm.rank, case)
        f.set_view(disp=disp, filetype=ft)
        payload = payloads[comm.rank]
        f.write_all(payload.copy())
        f.seek(0)
        out = np.zeros(payload.size, dtype=np.uint8)
        f.read_all(out)
        f.close()
        return out

    sim = Simulator(case["nprocs"])
    if plan is not None:
        plan.install(sim)
    readbacks = sim.run(main)
    return fs.raw_bytes(PATH, 0, image_size), readbacks


def _check_case(case):
    payloads = _payloads(case)
    ref = _reference(case, payloads)
    images = {}
    for label, impl, exchange in MODES:
        image, readbacks = _roundtrip(case, impl, exchange, payloads, ref.size)
        images[label] = image
        assert np.array_equal(image, ref), (label, case)
        for rank, out in enumerate(readbacks):
            assert np.array_equal(out, payloads[rank]), (label, rank, case)
    base = images[MODES[0][0]]
    for label in images:
        assert np.array_equal(images[label], base), (label, case)


@given(case=cases())
@settings(max_examples=20, **_SETTINGS)
def test_exchange_modes_byte_identical_quick(case):
    """Tier-1 slice of the differential property."""
    _check_case(case)


@pytest.mark.slow
@given(case=cases())
@settings(max_examples=200, **_SETTINGS)
def test_exchange_modes_byte_identical_sweep(case):
    """The full ≥200-case drawn sweep (dedicated CI job)."""
    _check_case(case)


#: Cases the sweep falsified against the page-cache coherence protocol:
#: the balanced strategy's service-time feedback makes the READ phase's
#: realms differ from the WRITE phase's, forcing a cross-aggregator
#: read-after-write.  Both exposed yield windows in which a conflicting
#: access could revoke extent locks without the stale bytes ever being
#: repaired — (a) between lock acquisition and dirtying in
#: ``PageCache.write``, and (b) between the server read and the page
#: install in ``PageCache._fetch_pages`` (now poisoned mid-fetch, with
#: the read path re-checking coverage, not just presence, afterwards).
#: The 5-rank cases hit (c) the window between a lock transfer and the
#: revoked holder's flush, in which a third client read the store
#: without the holder's dirty bytes (now overlaid on every server read
#: until they land), and (d) write-through caches, which kept pages
#: across revocations (now dropped like a coherent cache's).
_COHERENCE_REGRESSIONS = tuple(
    {
        "nprocs": 3, "slot": 17, "seg_lo": seg_lo, "seg_len": 1, "tiles": 6,
        "ppn": 1, "cb": 96, "cb_nodes": 0, "strategy": "balanced",
        "alignment": 0, "io_method": "datasieve", "empty_last": False,
        "seed": 0,
    }
    for seg_lo in (0, 13)
) + tuple(
    {
        "nprocs": 5, "slot": 14, "seg_lo": 1, "seg_len": 2, "tiles": 3,
        "ppn": 1, "cb": 96, "cb_nodes": 0, "strategy": "balanced",
        "alignment": 0, "io_method": "datasieve", "empty_last": False,
        "seed": 0, "cache_mode": mode,
    }
    for mode in ("coherent", "writethrough")
)


@pytest.mark.parametrize("case", _COHERENCE_REGRESSIONS)
def test_cache_coherence_regressions(case):
    """Pinned falsifying examples: stale reads under mid-yield lock
    revocation, visible only when read realms differ from write realms."""
    _check_case(case)


#: A fixed differential case for the storage-fault domain (ISSUE 7):
#: big enough to span both of COST's OSTs, drawn from the same space
#: as the property sweep.
_REPLICATION_CASE = {
    "nprocs": 4, "slot": 20, "seg_lo": 3, "seg_len": 9, "tiles": 5,
    "ppn": 2, "cb": 160, "cb_nodes": 2, "strategy": "even",
    "alignment": 0, "io_method": "datasieve", "empty_last": False,
    "seed": 11,
}


@pytest.mark.parametrize("label,impl,exchange", MODES)
def test_replicated_ost_crash_byte_identical(label, impl, exchange):
    """Replication differential: every exchange backend, run with
    ``replication_factor=2`` under a mid-run OST crash, must still
    produce the byte-identical image and read-backs of the fault-free
    reference — the storage fault domain is invisible to the data
    plane."""
    from repro.faults import FaultPlan

    case = dict(_REPLICATION_CASE)
    payloads = _payloads(case)
    ref = _reference(case, payloads)
    plan = FaultPlan(3).ost_crash([0], start=1e-3, end=8e-3)
    image, readbacks = _roundtrip(
        case, impl, exchange, payloads, ref.size, plan=plan, replication=2
    )
    assert np.array_equal(image, ref), label
    for rank, out in enumerate(readbacks):
        assert np.array_equal(out, payloads[rank]), (label, rank)
