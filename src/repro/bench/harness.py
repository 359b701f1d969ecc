"""Generic timed collective-I/O runs.

Each run builds a fresh simulated cluster (file system + ranks),
executes a workload through :class:`~repro.core.CollectiveFile`, and
reports **simulated** bandwidth: aggregate data bytes divided by the
virtual time from the post-open barrier to the slowest rank's close.
Wall-clock time is irrelevant to the reported numbers (pytest-benchmark
separately times the simulator itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.config import CostModel, DEFAULT_COST_MODEL
from repro.errors import CollectiveIOError
from repro.fs import SimFileSystem
from repro.hpio.patterns import HPIOPattern
from repro.hpio.timeseries import TimeSeriesPattern
from repro.hpio.verify import fill_pattern, verify_write
from repro.mpi import Hints
from repro.obs.hooks import PhaseAccumulator
from repro.obs.session import Session

__all__ = ["BenchResult", "run_collective", "run_hpio_write", "run_timeseries"]

_PATH = "/bench"


@dataclass
class BenchResult:
    """Outcome of one timed run."""

    label: str
    nprocs: int
    total_bytes: int
    sim_seconds: float
    params: Dict[str, object] = field(default_factory=dict)
    counters: Dict[str, object] = field(default_factory=dict)
    verified: Optional[bool] = None

    @property
    def bandwidth_mbs(self) -> float:
        if self.sim_seconds <= 0:
            return float("inf")
        return self.total_bytes / (1024.0 * 1024.0) / self.sim_seconds

    def __str__(self) -> str:
        v = "" if self.verified is None else (" OK" if self.verified else " **BAD DATA**")
        return (
            f"{self.label}: {self.bandwidth_mbs:8.2f} MB/s "
            f"({self.total_bytes / 1e6:.2f} MB in {self.sim_seconds * 1e3:.2f} ms){v}"
        )


def run_collective(
    nprocs: int,
    body: Callable,
    *,
    hints: Hints,
    cost: CostModel = DEFAULT_COST_MODEL,
    lock_granularity: Optional[int] = None,
    label: str = "run",
    params: Optional[Dict[str, object]] = None,
    trace: bool = False,
) -> tuple[BenchResult, SimFileSystem]:
    """Run ``body(ctx, comm, f) -> bytes_written`` on every rank.

    Runs through a :class:`~repro.obs.session.Session`, so every
    counter below is read from the session's metrics registry under its
    stable dotted name.  Timing covers everything between the post-open
    barrier and the completion of the collective close (so deferred
    cache flushes are charged to the run that deferred them).  With
    ``trace=True`` the result's counters include ``time_by_state`` —
    the MPE-style decomposition of where simulated time went
    (``tp:route`` / ``tp:exchange`` / ``tp:io``), metered live by a
    phase-boundary hook (no event log is stored), which is how the
    paper attributed the new implementation's overheads."""
    session = Session(
        _PATH,
        nprocs=nprocs,
        hints=hints,
        cost=cost,
        lock_granularity=lock_granularity,
    )
    phases = session.tracer.add_hook(PhaseAccumulator()) if trace else None
    written = session.run(body)
    total = sum(written)
    reg = session.registry
    counters: Dict[str, object] = {
        "fs": reg.view(_PATH).snapshot(),
        "rounds": reg.value("coll.rounds", 0),
        "client_pairs_total": reg.total("coll.client.pairs"),
        "client_tiles_skipped_total": reg.total("coll.client.tiles_skipped"),
        "agg_pairs_total": reg.total("coll.agg.pairs"),
        "meta_bytes_total": reg.total("coll.meta.bytes"),
        "bytes_exchanged_total": reg.total("exchange.bytes"),
        # Per-tier wire traffic and two_layer coalescing (empty on a
        # flat cluster): ``net.*`` and ``exchange.coalesce.*`` series.
        "topology": {**reg.snapshot("net."), **reg.snapshot("exchange.coalesce.")},
    }
    if phases is not None:
        counters["time_by_state"] = phases.time_by_state()
    result = BenchResult(
        label=label,
        nprocs=nprocs,
        total_bytes=total,
        sim_seconds=session.makespan,
        params=dict(params or {}),
        counters=counters,
    )
    return result, session.fs


def run_hpio_write(
    pattern: HPIOPattern,
    *,
    impl: str,
    representation: str = "succinct",
    hints: Optional[Hints] = None,
    cost: CostModel = DEFAULT_COST_MODEL,
    label: Optional[str] = None,
    verify: bool = True,
    trace: bool = False,
) -> BenchResult:
    """One HPIO collective write across all ranks (a Figure 4/5 cell)."""
    base = hints if hints is not None else Hints()
    base = base.replace(coll_impl=impl)
    if impl == "old" and representation != "succinct":
        # The old code flattens everything anyway; representation is moot.
        representation = "succinct"

    def body(ctx, comm, f):
        rank = comm.rank
        f.set_view(
            disp=pattern.file_disp(rank),
            filetype=pattern.filetype(rank, representation),
        )
        buf = fill_pattern(pattern, rank)
        memtype = pattern.memtype()
        if memtype is None:
            f.write_all(buf)
        else:
            f.write_all(buf, memtype=memtype, count=1)
        return pattern.bytes_per_client

    result, fs = run_collective(
        pattern.nprocs,
        body,
        hints=base,
        cost=cost,
        trace=trace,
        label=label or f"{impl}+{representation} {pattern.describe()}",
        params={
            "impl": impl,
            "representation": representation,
            "region_size": pattern.region_size,
            "region_count": pattern.region_count,
            "cb_nodes": base["cb_nodes"],
            "io_method": base["io_method"],
        },
    )
    if verify:
        result.verified = verify_write(fs, _PATH, pattern)
        if not result.verified:
            raise CollectiveIOError(f"benchmark wrote corrupt data: {result.label}")
    return result


def run_hpio_read(
    pattern: HPIOPattern,
    *,
    impl: str,
    representation: str = "succinct",
    hints: Optional[Hints] = None,
    cost: CostModel = DEFAULT_COST_MODEL,
    label: Optional[str] = None,
) -> BenchResult:
    """One HPIO collective *read* across all ranks.

    The file is pre-populated with the pattern's oracle image; every
    rank's read-back is verified against a direct gather."""
    from repro.datatypes.packing import gather_segments
    from repro.datatypes.segments import FlatCursor
    from repro.hpio.verify import expected_file_bytes

    base = hints if hints is not None else Hints()
    base = base.replace(coll_impl=impl)
    if impl == "old" and representation != "succinct":
        representation = "succinct"
    image = expected_file_bytes(pattern)

    def body(ctx, comm, f):
        rank = comm.rank
        f.set_view(
            disp=pattern.file_disp(rank),
            filetype=pattern.filetype(rank, representation),
        )
        out = np.zeros(pattern.bytes_per_client, dtype=np.uint8)
        f.read_all(out)
        flat = pattern.filetype(rank, "succinct").flatten()
        batch = FlatCursor(flat, pattern.file_disp(rank), out.size).all_segments()
        expect = gather_segments(image, batch)
        if not np.array_equal(out, expect):
            raise CollectiveIOError(f"rank {rank} read corrupt data")
        return out.size

    # The session owns the file system, so install the oracle image
    # before the ranks start.
    session = Session(_PATH, nprocs=pattern.nprocs, hints=base, cost=cost)
    session.fs.raw_write(_PATH, 0, image)
    read = session.run(body)
    result = BenchResult(
        label=label or f"read {impl}+{representation} {pattern.describe()}",
        nprocs=pattern.nprocs,
        total_bytes=sum(read),
        sim_seconds=session.makespan,
        params={
            "impl": impl,
            "representation": representation,
            "region_size": pattern.region_size,
            "cb_nodes": base["cb_nodes"],
            "io_method": base["io_method"],
        },
        counters={"fs": session.registry.view(_PATH).snapshot()},
        verified=True,
    )
    return result


def run_timeseries(
    ts: TimeSeriesPattern,
    *,
    hints: Hints,
    cost: CostModel = DEFAULT_COST_MODEL,
    lock_granularity: Optional[int] = None,
    label: str = "timeseries",
    verify: bool = True,
) -> BenchResult:
    """The Figure 7 run: one collective write per time step, then close."""

    def body(ctx, comm, f):
        rank = comm.rank
        written = 0
        for step in range(ts.timesteps):
            f.set_view(disp=0, filetype=ts.filetype(rank, step))
            buf = ts.step_buffer(rank, step)
            f.write_all(buf)
            written += buf.size
        return written

    result, fs = run_collective(
        ts.nprocs,
        body,
        hints=hints,
        cost=cost,
        lock_granularity=lock_granularity,
        label=label,
        params={
            "nprocs": ts.nprocs,
            "pfr": hints["persistent_file_realms"],
            "alignment": hints["realm_alignment"],
            "cb_nodes": hints["cb_nodes"],
        },
    )
    if verify:
        result.verified = _verify_timeseries(fs, ts)
        if not result.verified:
            raise CollectiveIOError(f"benchmark wrote corrupt data: {label}")
    return result


def _verify_timeseries(fs: SimFileSystem, ts: TimeSeriesPattern) -> bool:
    """Rebuild the expected file image step by step and compare."""
    from repro.datatypes.segments import FlatCursor
    from repro.datatypes.packing import scatter_segments

    expect = np.zeros(ts.file_bytes, dtype=np.uint8)
    for step in range(ts.timesteps):
        for rank in range(ts.nprocs):
            flat = ts.filetype(rank, step).flatten()
            total = ts.bytes_per_rank_per_step(rank) * ts.points
            if total == 0:
                continue
            batch = FlatCursor(flat, 0, total).all_segments()
            scatter_segments(expect, batch, ts.step_buffer(rank, step))
    got = fs.raw_bytes(_PATH, 0, ts.file_bytes)
    return bool(np.array_equal(got, expect))
