"""Differential property for double-buffered (pipelined) rounds.

``pipeline_depth`` only overlaps round *timing* — flush/fill coroutines
run concurrently with the next round's exchange — so at depth 1, for all
four exchange backends and both implementations, the file image and
every read-back must be byte-identical to the serialized (depth 0) run
of the same program.  A second block re-runs a fixed case
with composed faults: an ``ost_flap`` (data-path — the pipeline stays
live and the coroutines retry through it) plus a ``rank_crash``
(realm-mutating — the pipeline stands down, exactly like the plan
cache) with ``plan_cache=True``, proving the three features compose
without changing a byte.

A third block pins the payoff: at depth 1 a multi-round workload
must report nonzero ``coll.pipeline.overlap_seconds`` and a makespan no
worse than serialized.
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
from repro.faults import FaultPlan
from repro.fs import SimFileSystem
from repro.mpi import Communicator, Hints
from repro.obs.session import Session
from repro.sim import Simulator

COST = CostModel(page_size=64, stripe_size=256, num_osts=2)
PATH = "/pipeline"
STEPS = 2
#: Every pipelined depth the ``pipeline_depth`` hint accepts.
DEPTHS = (1,)

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
    return dict(
        nprocs=nprocs,
        slot=slot,
        seg_lo=seg_lo,
        seg_len=seg_len,
        tiles=draw(st.integers(min_value=1, max_value=6)),
        ppn=draw(st.integers(min_value=1, max_value=nprocs)),
        cb=draw(st.sampled_from((96, 160, 256))),
        cb_nodes=draw(st.integers(min_value=0, max_value=3)),
        strategy=draw(st.sampled_from(("even", "aligned"))),
        io_method=draw(st.sampled_from(("datasieve", "naive"))),
        depth=draw(st.sampled_from(DEPTHS)),
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


def _payloads(case):
    rng = np.random.default_rng(case["seed"])
    total = case["seg_len"] * case["tiles"]
    totals = [total] * case["nprocs"]
    if case["empty_last"] and case["nprocs"] > 2:
        totals[-1] = 0
    return [
        [rng.integers(1, 255, size=n, dtype=np.uint8) for n in totals]
        for _ in range(STEPS)
    ]


def _reference(case, payloads):
    size = case["slot"] * case["nprocs"] * (case["tiles"] + 2)
    out = np.zeros(size, dtype=np.uint8)
    for step in range(STEPS):
        for rank, payload in enumerate(payloads[step]):
            if payload.size == 0:
                continue
            disp, ft = _build_view(rank, case)
            batch = FlatCursor(ft.flatten(), disp, payload.size).all_segments()
            scatter_segments(out, batch, payload)
    return out


def _hints(case, impl, exchange, depth, **extra):
    values = dict(
        coll_impl=impl,
        cb_nodes=case["cb_nodes"],
        cb_buffer_size=case["cb"],
        realm_strategy=case["strategy"],
        realm_alignment=64 if case["strategy"] == "aligned" else 0,
        io_method=case["io_method"],
        pipeline_depth=depth,
    )
    if exchange is not None:
        values["exchange"] = exchange
    if exchange == "two_layer":
        values["procs_per_node"] = case["ppn"]
    values.update(extra)
    return Hints(values)


def _checkpoint_loop(case, impl, exchange, payloads, image_size, depth, *,
                     plan=None, hint_extra=None):
    """STEPS× (write_at_all(0), read_at_all(0)); returns the file image,
    per-rank last read-backs, and the crashed-rank set."""
    fs = SimFileSystem(COST)
    hints = _hints(case, impl, exchange, depth, **(hint_extra or {}))

    def main(ctx):
        comm = Communicator(ctx, COST)
        f = CollectiveFile(ctx, comm, fs, PATH, hints=hints, cost=COST)
        disp, ft = _build_view(comm.rank, case)
        f.set_view(disp=disp, filetype=ft)
        out = None
        for step in range(STEPS):
            payload = payloads[step][comm.rank]
            f.write_at_all(0, payload.copy())
            out = np.zeros(payload.size, dtype=np.uint8)
            f.read_at_all(0, out)
        f.close()
        return out

    sim = Simulator(case["nprocs"])
    if plan is not None:
        plan.install(sim)
    readbacks = sim.run(main)
    return fs.raw_bytes(PATH, 0, image_size), readbacks, frozenset(sim.crashed)


def _check_case(case, *, plan_factory=None, hint_extra=None):
    payloads = _payloads(case)
    ref = _reference(case, payloads)
    for label, impl, exchange in MODES:
        plan = plan_factory() if plan_factory is not None else None
        piped, piped_back, piped_dead = _checkpoint_loop(
            case, impl, exchange, payloads, ref.size, case["depth"],
            plan=plan, hint_extra=hint_extra,
        )
        plan = plan_factory() if plan_factory is not None else None
        serial, serial_back, serial_dead = _checkpoint_loop(
            case, impl, exchange, payloads, ref.size, 0,
            plan=plan, hint_extra=hint_extra,
        )
        assert piped_dead == serial_dead, (label, case)
        assert np.array_equal(piped, serial), (label, case)
        for rank in range(case["nprocs"]):
            if rank in piped_dead:
                continue
            assert np.array_equal(piped_back[rank], serial_back[rank]), (
                label, rank, case,
            )
        if not piped_dead:
            assert np.array_equal(piped, ref), (label, case)
            for rank in range(case["nprocs"]):
                assert np.array_equal(
                    piped_back[rank], payloads[-1][rank]
                ), (label, rank, case)


@given(case=cases())
@settings(max_examples=20, **_SETTINGS)
def test_pipelined_vs_serialized_byte_identical_quick(case):
    """Tier-1 slice of the pipelined-vs-serialized property."""
    _check_case(case)


@pytest.mark.slow
@given(case=cases())
@settings(max_examples=200, **_SETTINGS)
def test_pipelined_vs_serialized_byte_identical_sweep(case):
    """The full drawn sweep (dedicated CI job)."""
    _check_case(case)


#: Fixed multi-round case for the composed-fault differentials.
_FAULT_CASE = {
    "nprocs": 4, "slot": 20, "seg_lo": 3, "seg_len": 9, "tiles": 5,
    "ppn": 2, "cb": 160, "cb_nodes": 2, "strategy": "even",
    "io_method": "datasieve", "empty_last": False, "seed": 11,
}


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("label,impl,exchange", MODES)
def test_pipelined_under_ost_flap(label, impl, exchange, depth):
    """OST flaps are data-path faults: the pipeline stays live and its
    flush/fill coroutines must retry through the outages to the same
    bytes the serialized run produces."""
    case = dict(_FAULT_CASE, depth=depth)
    _check_case(
        case,
        plan_factory=lambda: FaultPlan(seed=7).ost_flap(
            [0], period=2e-3, start=0.0, end=2e-2
        ),
        hint_extra=dict(io_retries=8),
    )


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("label,impl,exchange", MODES)
def test_pipelined_under_composed_crash_flap_cached(label, impl, exchange, depth):
    """The kitchen sink: rank crash (stands the pipeline down) + OST
    flap (data-path) + cached plans.  Survivor bytes must match the
    serialized run's exactly, dead sets must agree."""
    case = dict(_FAULT_CASE, depth=depth)
    _check_case(
        case,
        plan_factory=lambda: (
            FaultPlan(seed=7)
            .rank_crash(1, call_index=0, round_index=1, site="exchange")
            .ost_flap([0], period=2e-3, start=0.0, end=2e-2)
        ),
        hint_extra=dict(io_retries=8, plan_cache=True),
    )


# -- the payoff: overlap exists and costs nothing ---------------------------


@pytest.mark.parametrize("impl", ("new", "old"))
def test_depth1_overlaps_and_is_no_slower(impl):
    def run(depth):
        s = Session(
            PATH,
            nprocs=4,
            hints=dict(
                coll_impl=impl, cb_nodes=2, cb_buffer_size=256,
                pipeline_depth=depth,
            ),
            cost=COST,
        )

        def body(ctx, comm, f):
            from repro.datatypes import BYTE, contiguous, resized

            region = 256
            tile = resized(contiguous(region, BYTE), 0, region * comm.size)
            f.set_view(disp=comm.rank * region, filetype=tile)
            f.write_all(np.full(region * 16, comm.rank + 1, dtype=np.uint8))

        s.run(body)
        return s

    serial = run(0)
    piped = run(1)
    overlap = sum(
        piped.registry.value("coll.pipeline.overlap_seconds", r) or 0.0
        for r in range(4)
    )
    assert overlap > 0.0
    assert piped.makespan <= serial.makespan
    assert piped.registry.value("coll.pipeline.depth", 0) == 1
