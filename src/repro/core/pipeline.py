"""Round-level pipelining: double-buffered collective rounds.

Serialized two-phase rounds pay ``exchange + flush`` per round; the
paper conceded exactly this serialization (plus a copy) to layered
I/O.  :class:`RoundPipeline` recovers it: with the ``pipeline_depth``
hint set to 1, the flush of round *k* runs as an engine coroutine (see
:meth:`repro.sim.engine.RankContext.spawn`) while the rank immediately
starts the exchange of round *k+1* — on the read path, the *fill* of
round *k+1* prefetches while round *k*'s exchange distributes.  One
second collective buffer is all that buys: at most one coroutine is in
flight, and a submit while it runs back-pressures by joining it first
(counted in ``coll.pipeline.stalls``).  Deeper pools measured no
faster (identical makespans at depths 1, 2 and 4), so the hint takes
only 0 or 1.

``pipeline_depth = 0`` (the default) never constructs a pipeline —
the drivers run their seed-identical serialized loop.  The pipeline
also *stands down* (returns ``None`` from :func:`maybe_pipeline`)
while any realm-mutating fault kind is armed: ``agg_crash`` /
``rank_stall`` / ``rank_crash`` restructure the round schedule at
phase boundaries (failover, suspects, epoch commits), which requires
the strictly-ordered serialized walk.  Data-path faults — transient
I/O errors, OST flaps, bit flips — stay live inside the coroutines;
their typed errors are captured by the task handle and re-raised at
the join, so the caller's handling is identical to the inline path.

Metrics: ``coll.pipeline.depth`` (gauge, configured depth),
``coll.pipeline.stalls`` (back-pressure joins), and
``coll.pipeline.overlap_seconds`` — virtual seconds of coroutine work
that ran concurrently with the spawning rank's own progress.

Trace: coroutines record ``round:flush`` / ``round:fill`` spans on
the rank's own pipeline lane (:meth:`repro.sim.engine.Simulator.lane_for`),
so the Chrome export shows them overlapping the rank's
``round:exchange`` spans instead of corrupting the rank's span stack.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Optional

from repro.core.env import CollEnv
from repro.core.plancache import PLAN_MUTATING_KINDS
from repro.faults.plan import FAULTS_KEY
from repro.sim.engine import RankContext, TaskHandle

__all__ = ["RoundPipeline", "maybe_pipeline", "task_env"]


def maybe_pipeline(env: CollEnv) -> Optional["RoundPipeline"]:
    """A :class:`RoundPipeline` for this call, or ``None``.

    ``None`` when the ``pipeline_depth`` hint is unset (seed-identical
    serialized rounds) or while a realm-mutating fault kind is armed —
    the same stand-down set the plan cache bypasses on, because both
    features assume the round schedule is fixed for the whole call."""
    if not env.hints["pipeline_depth"]:
        return None
    inj = env.ctx.shared.get(FAULTS_KEY)
    if inj is not None and any(inj.enabled(kind) for kind in PLAN_MUTATING_KINDS):
        return None
    return RoundPipeline(env)


def task_env(env: CollEnv, tctx: RankContext) -> CollEnv:
    """``env`` rebound to a coroutine's context: the I/O stack charges
    the task's clock (via :meth:`repro.io.adio.AdioFile.rebound`) while
    hints, view, metrics, and the plan cache stay shared."""
    return replace(env, ctx=tctx, adio=env.adio.rebound(tctx))


class RoundPipeline:
    """The one in-flight round coroutine of one collective call.

    Every coroutine of rank *r* records on the same interned lane; a
    new one is only spawned after the previous one is joined, so the
    tracer's per-lane span stack stays well nested."""

    def __init__(self, env: CollEnv) -> None:
        self.ctx = env.ctx
        self._rank = env.comm.rank
        metrics = env.metrics
        self._stalls = metrics.counter("coll.pipeline.stalls")
        self._overlap = metrics.counter("coll.pipeline.overlap_seconds")
        metrics.gauge("coll.pipeline.depth").set(1)
        self._inflight: Optional[TaskHandle] = None

    @property
    def busy(self) -> bool:
        return self._inflight is not None

    def submit(
        self,
        fn: Callable[[RankContext], Any],
        *,
        round_no: int,
        stage: str,
    ) -> TaskHandle:
        """Launch ``fn``; back-pressure on the task still in flight."""
        if self._inflight is not None:
            self._stalls.inc()
            self.join(self._inflight)
        lane = self.ctx._sim.lane_for(
            ("pipe", id(self.ctx.shared), self._rank, 0),
            f"rank {self._rank} pipeline[0]",
        )
        self._inflight = self.ctx.spawn(
            fn, label=f"{stage}[{round_no}]@r{self._rank}", lane=lane
        )
        return self._inflight

    def join(self, handle: TaskHandle) -> Any:
        """Join one task: account realized overlap and return its value
        (or re-raise its captured error).  Joining a handle already
        reclaimed by back-pressure is safe — the engine's join is
        idempotent."""
        if handle is not self._inflight:
            return self.ctx.join(handle)
        t_before = self.ctx.now
        try:
            return self.ctx.join(handle)
        finally:
            self._inflight = None
            # Overlap = the part of the task's virtual-time span the
            # parent covered with its own work before joining.
            self._overlap.value += max(
                0.0, min(t_before, handle.t_end) - handle.t_start
            )

    def drain(self, *, suppress: bool = False) -> None:
        """Join the task still in flight, if any.

        ``suppress=True`` swallows its error instead of re-raising —
        used on the unwind path so a flush error never masks the
        primary exception."""
        if self._inflight is None:
            return
        try:
            self.join(self._inflight)
        except Exception:  # noqa: BLE001 - deferred to caller
            if not suppress:
                raise
