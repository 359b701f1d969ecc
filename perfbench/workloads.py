"""The benchmark's workloads: seeded inputs, numpy oracles, one timed pass.

A *pass* is one fresh :class:`repro.Session` running a fixed loop of
collective calls from one process, closed loop: the whole job issues
its next collective only after the previous one returned.  Everything
a pass needs (payloads, filetypes, the oracle, the ``hpio-read-8p``
pre-write) is built by :meth:`Workload.prepare`, outside the timed
window.  The timed window is ``Session.run``: file open, view, the
loop, and the collective close that flushes the write-back caches --
the same window ``Session.makespan`` measures on the simulated clock.
Checks that must run inside it (``hpio-read-8p`` poisons and compares
every buffer) are timed with :func:`excluded` and taken out of the
host figures.

Every pass of a workload with the same seed does identical simulated
work, so its simulated fields and registry counters must repeat
exactly; :func:`sim_signature` is what the benchmark compares.
"""

from __future__ import annotations

import contextlib
import gc
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

import numpy as np

from repro import Session
from repro.hpio.patterns import HPIOPattern
from repro.hpio.timeseries import TimeSeriesPattern

__all__ = ["WORKLOADS", "PassResult", "Prepared", "Workload", "fold_registry", "run_pass"]

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def steal_s() -> float:
    """Seconds the hypervisor has taken from this machine's CPUs since
    boot (``steal`` in ``/proc/stat``, summed over CPUs); 0.0 where the
    kernel does not report it."""
    try:
        with open("/proc/stat", "rb") as fh:
            return int(fh.readline().split()[8]) / _CLK_TCK
    except (OSError, IndexError, ValueError):
        return 0.0


@dataclass
class PassResult:
    """What one timed pass measured."""

    #: Process CPU seconds of the set-up.
    setup_s: float
    #: Elapsed seconds and process CPU seconds of the timed window,
    #: minus the benchmark's own checks inside it.
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Hypervisor steal inside the timed window (all CPUs).
    steal_s: float = 0.0
    #: Mean process CPU of the calibration kernel run just before and
    #: just after the pass (set by ``run.run_passes`` without tracing).
    cal_s: float = 0.0
    #: Elapsed seconds of each collective call on rank 0.
    call_wall: List[float] = field(default_factory=list)
    #: Virtual seconds per collective call, per rank.
    call_sim: List[List[float]] = field(default_factory=list)
    #: ``[cpu, wall]`` seconds of each rank's checks (see :func:`excluded`).
    checks: List[List[float]] = field(default_factory=list)
    makespan_s: float = 0.0
    payload_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    #: Registry changes made by the timed run (``MetricsRegistry.diff``).
    registry: Dict[str, Any] = field(default_factory=dict)
    #: ``Session.time_by_state()`` (empty unless traced).
    time_by_state: Dict[str, float] = field(default_factory=dict)
    error: str = ""


class Prepared:
    """A set-up pass: the session plus the per-rank loop body."""

    def __init__(self, session: Session, calls: int, payload_bytes: int,
                 body: Callable, verify: Callable[[Session], bool]) -> None:
        self.session = session
        self.calls = calls
        self.payload_bytes = payload_bytes
        self.body = body
        self.verify = verify


@dataclass(frozen=True)
class Workload:
    name: str
    nprocs: int
    hints: Dict[str, Any]

    def prepare(self, seed: int, trace: bool) -> Prepared:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class Checkpoint(Workload):
    """Figure-7 time-series checkpoint: every step rewrites the same slot
    of every data point (``timesteps=1``) with fresh seeded bytes; the
    final file image must equal the last step's payload."""

    element_size: int = 32
    elems_per_point: int = 64
    points: int = 192
    steps: int = 6

    def pattern(self) -> TimeSeriesPattern:
        return TimeSeriesPattern(
            nprocs=self.nprocs, element_size=self.element_size,
            elems_per_point=self.elems_per_point, points=self.points, timesteps=1,
        )

    def payloads(self, seed: int) -> List[List[np.ndarray]]:
        """``[rank][step]`` uint8 buffers, drawn from ``seed``."""
        ts = self.pattern()
        rng = np.random.default_rng([seed, self.nprocs, self.element_size])
        return [
            [
                rng.integers(0, 256, ts.bytes_per_rank_per_step(r) * ts.points, dtype=np.uint8)
                for _ in range(self.steps)
            ]
            for r in range(self.nprocs)
        ]

    def oracle(self, last: List[np.ndarray]) -> np.ndarray:
        """File image after the last step, built with numpy alone: within
        every point, element ``e`` is rank ``e % nprocs``'s."""
        image = np.zeros((self.points, self.elems_per_point, self.element_size), np.uint8)
        for r, buf in enumerate(last):
            image[:, r :: self.nprocs, :] = buf.reshape(self.points, -1, self.element_size)
        return image.reshape(-1)

    def prepare(self, seed: int, trace: bool) -> Prepared:
        ts = self.pattern()
        filetypes = [ts.filetype(r, 0) for r in range(self.nprocs)]
        bufs = self.payloads(seed)
        expect = self.oracle([b[-1] for b in bufs])
        session = Session("/ckpt", nprocs=self.nprocs, hints=dict(self.hints), trace=trace)
        steps = self.steps

        def body(ctx, comm, f, wall, sim, check):
            r = comm.rank
            f.set_view(disp=0, filetype=filetypes[r])
            mine = bufs[r]
            for step in range(steps):
                timed_call(ctx, lambda: f.write_at_all(0, mine[step]), wall, sim)
            return []

        def verify(s: Session) -> bool:
            if s.fs.file_size(s.path) != expect.size:
                return False
            return bool(np.array_equal(s.fs.raw_bytes(s.path, 0, expect.size), expect))

        return Prepared(session, steps, steps * ts.bytes_per_step, body, verify)


@dataclass(frozen=True)
class HpioRead(Workload):
    """HPIO memory-contiguous / file-noncontiguous collective reads of a
    file written once in set-up; every buffer is checked."""

    region_size: int = 65536
    region_count: int = 32
    region_spacing: int = 128
    reads: int = 40

    def pattern(self) -> HPIOPattern:
        return HPIOPattern(
            nprocs=self.nprocs, region_size=self.region_size,
            region_count=self.region_count, region_spacing=self.region_spacing,
            mem_contig=True, file_contig=False,
        )

    def payloads(self, seed: int) -> List[np.ndarray]:
        p = self.pattern()
        rng = np.random.default_rng([seed, self.nprocs, self.region_size])
        return [rng.integers(0, 256, p.bytes_per_client, dtype=np.uint8) for _ in range(self.nprocs)]

    def oracle(self, data: List[np.ndarray]) -> np.ndarray:
        """File image: slot ``k`` holds region ``k // nprocs`` of rank
        ``k % nprocs``, followed by ``region_spacing`` zero bytes."""
        p = self.pattern()
        slots = np.zeros((self.region_count, self.nprocs, p.slot), np.uint8)
        for r, buf in enumerate(data):
            slots[:, r, : self.region_size] = buf.reshape(self.region_count, self.region_size)
        return slots.reshape(-1)[: p.file_extent - self.region_spacing]

    def prepare(self, seed: int, trace: bool) -> Prepared:
        p = self.pattern()
        filetypes = [p.filetype(r, "succinct") for r in range(self.nprocs)]
        data = self.payloads(seed)
        image = self.oracle(data)
        session = Session("/hpio", nprocs=self.nprocs, hints=dict(self.hints), trace=trace)

        def prewrite(ctx, comm, f):
            f.set_view(disp=p.file_disp(comm.rank), filetype=filetypes[comm.rank])
            f.write_at_all(0, data[comm.rank])

        session.run(prewrite)
        got = session.fs.raw_bytes(session.path, 0, image.size)
        if session.fs.file_size(session.path) != image.size or not np.array_equal(got, image):
            raise RuntimeError(f"{self.name}: set-up write does not match the oracle image")
        if trace:
            # Spans and time_by_state() cover the timed reads only.
            session.tracer.clear()
        reads = self.reads

        def body(ctx, comm, f, wall, sim, check):
            r = comm.rank
            f.set_view(disp=p.file_disp(r), filetype=filetypes[r])
            expect = data[r]
            out = np.empty_like(expect)
            bad = []
            for i in range(reads):
                with excluded(check):
                    out.fill(0xEE)
                timed_call(ctx, lambda: f.read_at_all(0, out), wall, sim)
                with excluded(check):
                    if not np.array_equal(out, expect):
                        bad.append(i)
            return bad

        return Prepared(session, reads, reads * p.total_bytes, body, lambda s: True)


@contextlib.contextmanager
def excluded(acc: List[float]):
    """Add the thread CPU and elapsed time of the block to ``acc``
    (``[cpu, wall]``); :func:`run_pass` subtracts them from the pass's
    host figures.  The engine runs one rank thread at a time, so the
    block's elapsed time is the process's too."""
    c0, w0 = time.thread_time(), time.perf_counter()
    try:
        yield
    finally:
        acc[0] += time.thread_time() - c0
        acc[1] += time.perf_counter() - w0


def timed_call(ctx, call: Callable[[], None], wall: List[float], sim: List[float]) -> None:
    """Run one collective; append its virtual latency to ``sim`` and, on
    rank 0, its host latency to ``wall``."""
    v0 = ctx.now
    t0 = time.perf_counter()
    call()
    if ctx.rank == 0:
        wall.append(time.perf_counter() - t0)
    sim.append(ctx.now - v0)


def run_pass(workload: Workload, seed: int, *, trace: bool = False, probe=None) -> PassResult:
    """Set up and run one pass; ``probe`` (a :class:`layers.Probe`) is
    entered around the timed window only."""
    gc.collect()
    c0 = time.process_time()
    try:
        prep = workload.prepare(seed, trace)
    except Exception:
        res = PassResult(setup_s=time.process_time() - c0, error=traceback.format_exc())
        res.attempted = res.failed = 1
        return res
    res = PassResult(setup_s=time.process_time() - c0)
    res.call_sim = [[] for _ in range(workload.nprocs)]
    res.checks = [[0.0, 0.0] for _ in range(workload.nprocs)]
    res.attempted = prep.calls
    res.payload_bytes = prep.payload_bytes
    session = prep.session
    before = session.registry.snapshot()

    def body(ctx, comm, f):
        r = comm.rank
        return prep.body(ctx, comm, f, res.call_wall, res.call_sim[r], res.checks[r])

    gc.collect()
    with probe if probe is not None else contextlib.nullcontext():
        c0 = time.process_time()
        s0 = steal_s()
        w0 = time.perf_counter()
        try:
            bad = session.run(body)
        except Exception:
            bad = None
            res.error = traceback.format_exc()
        res.wall_s = time.perf_counter() - w0 - sum(w for _, w in res.checks)
        res.cpu_s = time.process_time() - c0 - sum(c for c, _ in res.checks)
        res.steal_s = steal_s() - s0
    if bad is None:
        res.failed = prep.calls
        return res
    bad_calls = set().union(*bad)
    if not prep.verify(session):
        res.error = f"{workload.name}: final file image does not match the oracle"
        bad_calls = set(range(prep.calls))
    res.failed = len(bad_calls)
    res.makespan_s = session.makespan
    res.registry = session.registry.diff(before)
    if trace:
        res.time_by_state = session.time_by_state()
    return res


def fold_registry(diff: Dict[str, Any]) -> Dict[str, float]:
    """Sum a registry diff over keys: ``{name: total}``; a histogram
    folds to the sum of its samples."""
    out: Dict[str, float] = {}
    for label, value in diff.items():
        name = label.split("[", 1)[0]
        v = value["total"] if isinstance(value, dict) else value
        out[name] = out.get(name, 0) + v
    return out


def sim_signature(res: PassResult) -> tuple:
    """Every simulated-clock output of a pass; must repeat exactly."""
    return (
        res.makespan_s,
        res.payload_bytes,
        tuple(tuple(x) for x in res.call_sim),
        tuple(sorted((k, repr(v)) for k, v in res.registry.items())),
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Checkpoint(
            name="ckpt-fine-32p",
            nprocs=32,
            hints={"coll_impl": "new", "cb_nodes": 16, "plan_cache": False, "pipeline_depth": 0},
            element_size=32, elems_per_point=64, points=192, steps=6,
        ),
        HpioRead(
            name="hpio-read-8p",
            nprocs=8,
            hints={"coll_impl": "old", "cb_nodes": 4},
            region_size=65536, region_count=32, region_spacing=128, reads=40,
        ),
        Checkpoint(
            name="ckpt-replay-8p",
            nprocs=8,
            hints={"coll_impl": "new", "cb_nodes": 4, "cb_buffer_size": 32768,
                   "plan_cache": True, "pipeline_depth": 1},
            element_size=256, elems_per_point=8, points=96, steps=60,
        ),
    )
}
