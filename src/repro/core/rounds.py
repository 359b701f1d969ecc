"""The round executor: every collective call's rounds run through one loop.

A two-phase collective is a *planner* plus this executor.  The planner
(``_Plan`` in :mod:`repro.core.two_phase_new`, ``_OldPlan`` in
:mod:`repro.core.two_phase_old`, or :class:`Replay` over a cached
:class:`~repro.core.plancache.PlanEntry`) decides what each round
moves.  It yields the round indices in execution order, running its
phase-boundary check (failover, suspects, fail-stop re-plan) before
each one, and routes a round into a :class:`RoundPlan` when asked.  A
cached plan hands back its recorded rounds instead of routing.  The
impl's :class:`RoundIO` callbacks say how a round's collective buffer
meets the file.  :func:`execute` owns everything else, once:

* liveness (``begin_call`` / ``set_phase`` / ``end_call``);
* the ``tp:route`` / ``tp:io`` / ``tp:exchange`` spans, or, pipelined,
  ``round:exchange`` plus the coroutines' ``round:flush`` /
  ``round:fill`` spans;
* pipelining (:mod:`repro.core.pipeline`): flush submission, read
  prefetch, joins, and the drain on unwind;
* fail-stop crash sites and the planner's per-round hook;
* the journaled write's shadow transaction;
* ``coll.rounds``, ``exchange.bytes``, ``coll.writes`` / ``coll.reads``
  and the aggregator service seconds.

A write round runs route → prepare → exchange → flush → hook; a read
round runs route → fill → exchange.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.env import CollEnv
from repro.core.exchange import exchange_data
from repro.core.pipeline import maybe_pipeline, task_env
from repro.datatypes.flatten import FlatType
from repro.datatypes.segments import SegmentBatch
from repro.errors import RankCrashed
from repro.faults.plan import FAULTS_KEY
from repro.liveness import LIVENESS_KEY

__all__ = ["RoundPlan", "RoundIO", "Planner", "Replay", "execute", "run_collective"]


@dataclass
class RoundPlan:
    """One round of the exchange schedule (this rank's view).

    ``send`` are the client-side memory batches (per peer), ``recv``
    the aggregator-side collective-buffer batches (per client), always
    in the write orientation: a read swaps the two.  ``window`` is a
    :class:`~repro.core.realms.Window` for the new implementation or a
    ``(lo, hi)`` span tuple for the old one (``None`` when this rank
    aggregates nothing this round); ``merged`` is the
    ``(offsets, lengths)`` flush extent pair."""

    send: List[Optional[SegmentBatch]]
    window: object
    recv: List[Optional[SegmentBatch]]
    merged: Tuple


class RoundIO:
    """How one implementation's collective buffer meets the file.

    ``ft_extent`` is the conditional-sieving metric (the largest
    filetype extent in play) the layered flush-method choice reads."""

    #: Run :meth:`prepare` under its own ``tp:io`` span before the
    #: exchange (the integrated sieve's hole pre-read).
    pre_read = False

    def __init__(self, ft_extent: int = 0) -> None:
        self.ft_extent = ft_extent

    def active(self, rp: RoundPlan) -> bool:
        """Whether my aggregator role touches the file this round."""
        return rp.window is not None

    def prepare(self, env: CollEnv, rp: RoundPlan) -> Optional[np.ndarray]:
        """Write path: the collective buffer the exchange lands in."""
        raise NotImplementedError

    def flush(self, env: CollEnv, rp: RoundPlan, cbuf: np.ndarray) -> None:
        """Write path: push the filled collective buffer to the file."""
        raise NotImplementedError

    def fill(self, env: CollEnv, rp: RoundPlan) -> np.ndarray:
        """Read path: the collective buffer, read from the file."""
        raise NotImplementedError


class Planner:
    """One collective call's schedule, as :func:`execute` consumes it.

    The class attributes are the defaults of a fault-free call; the
    cold planners overwrite them as their boundary checks fire."""

    #: Exchange backend and node topology of every round.
    mode = "nonblocking"
    topology = None
    #: Ranks the exchange leaves out (suspects, fail-stop corpses).
    skip: frozenset = frozenset()
    #: The conditional-sieving metric (see :class:`RoundIO`).
    ft_extent = 0
    #: Collective-call ordinal: the journal transaction's id.
    call_index = 0
    #: Survivor group for the journal commit's barriers (None = comm).
    group = None
    #: Pre-clip per-aggregator realm bytes, for impls that report them.
    realm_bytes: Optional[List[int]] = None
    #: A cached plan's recorded rounds; None = route every round live.
    recorded: Optional[List[RoundPlan]] = None
    #: Site of this rank's pending fail-stop death (None = none).
    crash_site: Optional[str] = None
    #: True once the executed schedule left the plan (failover,
    #: suspects, re-plan): such a call is never cached.
    replanned = False

    env: CollEnv
    aggs: List[int]

    def rounds(self, buf: np.ndarray, *, write: bool) -> Iterable[int]:
        """Round indices in execution order; the boundary check runs
        before each one."""
        raise NotImplementedError

    def client_plan(self, r: int) -> List[Optional[SegmentBatch]]:
        """Memory batches my data contributes to each peer in round r."""
        raise NotImplementedError

    def agg_layout(self, r: int) -> tuple:
        """(window, per-client buffer batches, merged extents) of my
        aggregator role in round r."""
        raise NotImplementedError

    def after_round(self, r: int, rp: RoundPlan) -> None:
        """Hook after each write round's flush (durability points)."""

    @property
    def excluded(self) -> frozenset:
        """Ranks out of the call: they never commit a journal."""
        return frozenset()

    @property
    def dying(self) -> bool:
        """True once this rank's fail-stop death is pending: it keeps
        walking the round structure, its exchange legs and fills
        skipped, until its designated site raises."""
        return self.crash_site is not None

    def crash_point(self, site: str) -> None:
        """Raise the pending death when its site (``exchange`` |
        ``flush``) is reached."""
        if self.crash_site == site:
            raise RankCrashed(self.env.comm.rank, site)


class Replay(Planner):
    """A cached plan as a planner: the recorded rounds, with the
    planning phase elided entirely — no flattening, no AAR allreduce,
    no metadata exchange, no window intersection.

    A replay only runs for a plan the cache agreed on collectively, and
    never while a realm-mutating fault kind is armed (PlanCache bypasses
    those), so it has no boundary check and the recorded schedule is
    exact."""

    def __init__(self, env: CollEnv, entry) -> None:
        self.env = env
        # Data-path fault kinds (delays, flips, OST outages) key their
        # event windows on the collective-call ordinal; keep it
        # advancing even though no planning happens.
        inj = env.ctx.shared.get(FAULTS_KEY)
        if inj is not None:
            self.call_index = inj.begin_collective(env.comm.rank)
        self.recorded = entry.rounds
        self.aggs = entry.aggs
        self.mode = entry.mode
        self.topology = entry.topology
        self.ft_extent = entry.ft_extent
        if entry.realm_bytes is not None:
            env.last_realm_bytes[:] = entry.realm_bytes

    def rounds(self, buf: np.ndarray, *, write: bool) -> Iterable[int]:
        return range(len(self.recorded))


def run_collective(
    env: CollEnv,
    impl: str,
    plan_cls: Callable[..., Planner],
    io_cls: Callable[[int], RoundIO],
    buf: np.ndarray,
    memflat: FlatType,
    total_bytes: int,
    data_lo: int,
    *,
    write: bool,
) -> None:
    """One collective call of implementation ``impl``: replay a cached
    plan, or plan cold and record the rounds for the plan cache."""
    cache = env.plancache
    if cache is not None:
        entry = cache.begin(env, memflat, total_bytes, data_lo, impl)
        if entry is not None:
            with env.ctx.trace("plan:replay", key=entry.key_id, impl=impl):
                planner = Replay(env, entry)
                execute(env, planner, io_cls(planner.ft_extent), buf, write=write)
            return
    key_id = cache.pending_key_id if cache is not None else None
    with env.ctx.trace("tp:plan"):
        planner = plan_cls(env, memflat, total_bytes, data_lo)
    record: Optional[List[RoundPlan]] = [] if key_id is not None else None
    execute(env, planner, io_cls(planner.ft_extent), buf, write=write, record=record)
    if record is not None and not planner.replanned:
        with env.ctx.trace("plan:store", key=key_id, impl=impl):
            cache.commit(impl, record, planner)


def execute(
    env: CollEnv,
    planner: Planner,
    io: RoundIO,
    buf: np.ndarray,
    *,
    write: bool,
    record: Optional[List[RoundPlan]] = None,
) -> None:
    """Run every round of one collective call (see the module doc).

    ``record``, when given, receives each :class:`RoundPlan` the planner
    routes: a plan-cache miss stores exactly what ran."""
    ctx, comm, metrics = env.ctx, env.comm, env.metrics
    rank = comm.rank
    liv = ctx.shared.get(LIVENESS_KEY)
    # Round pipelining (docs/async_io.md): when armed, flushes and fills
    # run as engine coroutines so they overlap neighbouring exchanges.
    # The pipeline stands down (None) whenever a realm-mutating fault
    # kind is armed, so boundary checks that re-carve the schedule only
    # ever run on the serialized path.
    pipe = maybe_pipeline(env)
    exchange_span = "tp:exchange" if pipe is None else "round:exchange"
    # Virtual seconds this rank spent servicing its aggregator role this
    # call (routing, file I/O, per-round durability); it feeds the
    # balanced strategy's straggler-aware weights on the *next* call.
    service = 0.0
    svc: List[float] = []  # service seconds of pipelined coroutines

    def phase(name: str, r: int) -> None:
        if liv is not None:
            liv.set_phase(rank, f"{name}[{r}]")

    def task(r: int, stage: str, fn, *args):
        """Coroutine body running ``fn`` for round r on the task's own
        clock, through a context-rebound env."""

        def run(tctx):
            with tctx.trace(stage, round=r):
                t0 = tctx.now
                out = fn(task_env(env, tctx), *args)
                svc.append(tctx.now - t0)
                return out

        return run

    def routed() -> Iterator[Tuple[int, RoundPlan]]:
        nonlocal service
        for r in planner.rounds(buf, write=write):
            metrics.counter("coll.rounds").inc()
            if planner.recorded is not None:
                yield r, planner.recorded[r]
                continue
            phase("route", r)
            with ctx.trace("tp:route", round=r):
                send = planner.client_plan(r)
                t0 = ctx.now
                layout = planner.agg_layout(r)
                service += ctx.now - t0
            rp = RoundPlan(send, *layout)
            if record is not None:
                record.append(rp)
            yield r, rp

    def prepared() -> Iterator[Tuple[int, RoundPlan, Optional[np.ndarray]]]:
        nonlocal service
        for r, rp in routed():
            t0 = ctx.now
            if io.pre_read:
                with ctx.trace("tp:io", round=r):
                    cbuf = io.prepare(env, rp)
            else:
                cbuf = io.prepare(env, rp)
            service += ctx.now - t0
            yield r, rp, cbuf

    def filled() -> Iterator[Tuple[int, RoundPlan, Optional[np.ndarray]]]:
        nonlocal service
        rounds = routed()
        if pipe is None:
            for r, rp in rounds:
                phase("io", r)
                with ctx.trace("tp:io", round=r):
                    planner.crash_point("flush")
                    cbuf = None
                    if io.active(rp) and not planner.dying:
                        t0 = ctx.now
                        cbuf = io.fill(env, rp)
                        service += ctx.now - t0
                yield r, rp, cbuf
            return
        # Pipelined: route rounds ahead and launch their fills as
        # coroutines, so the fill of round r+1 prefetches from the file
        # while round r's exchange distributes data.
        ahead: deque = deque()

        def prefetch() -> None:
            while not ahead or (not pipe.busy and len(ahead) <= 1):
                nxt = next(rounds, None)
                if nxt is None:
                    return
                r, rp = nxt
                handle = None
                if io.active(rp):
                    handle = pipe.submit(
                        task(r, "round:fill", io.fill, rp),
                        round_no=r,
                        stage="round:fill",
                    )
                ahead.append((r, rp, handle))

        prefetch()
        while ahead:
            r, rp, handle = ahead.popleft()
            cbuf = pipe.join(handle) if handle is not None else None
            # A slot just freed: launch the next fill before the
            # exchange blocks on remote ranks.
            prefetch()
            yield r, rp, cbuf

    def flushed(r: int, rp: RoundPlan, cbuf: Optional[np.ndarray]) -> None:
        nonlocal service
        if pipe is not None:
            if cbuf is not None:
                pipe.submit(
                    task(r, "round:flush", io.flush, rp, cbuf),
                    round_no=r,
                    stage="round:flush",
                )
        else:
            phase("io", r)
            with ctx.trace("tp:io", round=r):
                planner.crash_point("flush")
                if cbuf is not None:
                    t0 = ctx.now
                    io.flush(env, rp, cbuf)
                    service += ctx.now - t0
        t0 = ctx.now
        planner.after_round(r, rp)
        service += ctx.now - t0

    def run_rounds() -> None:
        nonlocal service
        try:
            for r, rp, cbuf in prepared() if write else filled():
                phase("exchange", r)
                with ctx.trace(exchange_span, round=r):
                    planner.crash_point("exchange")
                    if not planner.dying:
                        legs = (
                            (buf, rp.send, cbuf, rp.recv)
                            if write
                            else (cbuf, rp.recv, buf, rp.send)
                        )
                        sent = exchange_data(
                            comm, env.cost, planner.mode, *legs,
                            skip=planner.skip, topology=planner.topology,
                        )
                        metrics.counter("exchange.bytes").inc(sent)
                if write:
                    flushed(r, rp, cbuf)
            if pipe is not None:
                pipe.drain()
        except BaseException:
            if pipe is not None:
                # Never leave a coroutine running past its call; its own
                # error must not mask the primary exception.
                pipe.drain(suppress=True)
            raise
        finally:
            service += sum(svc)

    if liv is not None:
        liv.begin_call(rank, ctx.now)
    try:
        if write and env.hints["journal_writes"]:
            # Crash-consistent path: aggregator flushes land in a shadow
            # transaction keyed by the collective-call ordinal (identical
            # on every rank without communication; a leftover transaction
            # under a *different* ordinal is a crashed call's journal and
            # is discarded by txn_begin).
            local = env.adio.local
            local.fs.txn_begin(local.path, planner.call_index)
            with env.adio.journaled():
                run_rounds()
            _journal_commit(env, planner)
        else:
            run_rounds()
    finally:
        if liv is not None:
            liv.end_call(rank)
    metrics.counter("coll.writes" if write else "coll.reads").inc()
    metrics.counter("coll.agg.service_seconds").inc(service)
    metrics.gauge("coll.agg.last_service_seconds").set(service)


def _journal_commit(env: CollEnv, planner: Planner) -> None:
    """Commit the collective call's shadow transaction.

    Barrier — one committer publishes — barrier: the first barrier
    guarantees every aggregator's journal writes have landed, the
    second that no rank returns from the collective before the commit
    is visible.  The committer is the first *surviving* aggregator, so
    a crash-with-failover still commits; a crash with failover off
    raises :class:`~repro.errors.AggregatorLost` before reaching here
    and the transaction is simply never committed — the file stays at
    its pre-collective image (the crash-consistency contract)."""
    comm = env.comm
    local = env.adio.local
    # Teardown barriers run over the survivors: a corpse would deadlock
    # the full-membership barrier forever.
    sync = planner.group if planner.group is not None else comm
    sync.barrier()
    alive = [a for a in planner.aggs if a not in planner.excluded]
    committer = alive[0] if alive else planner.aggs[0]
    if comm.rank == committer:
        env.adio.retry.run(
            env.ctx,
            lambda: local.fs.txn_commit(env.ctx, local.client.client_id, local.path),
        )
    sync.barrier()
