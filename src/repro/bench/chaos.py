"""Chaos harness: completion-time degradation versus fault intensity.

A :class:`ChaosHarness` runs one fixed collective-write workload (the
selfcheck's interleaved tile pattern) repeatedly: once fault-free for
the baseline, then once per requested intensity with the scenario's
probabilistic rates scaled by that intensity.  Every run is verified
byte-for-byte against a direct numpy oracle — a chaos run that degrades
*correctness* instead of completion time is a failed run, whatever its
timing says.

Corruption scenarios refine "verified" into *no silent corruption*:
with the integrity hints armed (``integrity=True``), a run whose bytes
mismatch the oracle still passes if every mismatching page fails its
checksum sidecar (the corruption was caught — an fsck would find and
repair it), and a run killed by a typed
:class:`~repro.errors.IntegrityError` (or by exhausting frame
re-requests) also counts as detected.  A mismatch nobody flagged is a
silent wrong answer: the one outcome integrity must make impossible.

Stall scenarios refine "terminates" into *bounded*: with the liveness
hints armed (``liveness=True``), every run must end within the
collective deadline budget — either completing with verified bytes
(suspects failed over) or dying with a typed liveness error
(:class:`~repro.errors.DeadlineExceeded`,
:class:`~repro.errors.LockDeadlock`,
:class:`~repro.errors.AggregatorLost`).  A hang is the one outcome the
liveness layer must make impossible.

Storage scenarios (``ost-crash`` / ``ost-slow`` / ``ost-flap``) apply
the same bounded-completion contract to the OST fault domain: a run
must either complete with verified bytes (retries rode the outage out,
or replicas served around it — pass ``replication=2``) or die with a
typed storage error (:class:`~repro.errors.OSTUnavailable`,
:class:`~repro.errors.OSTOverloaded`, or a retry/budget exhaustion
chained from one).  Never a hang, never silent corruption.

Each point rebuilds the whole simulated cluster from scratch (fresh
file system, fresh injector), so points are independent and the whole
sweep is deterministic for a given (scenario, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import CostModel, DEFAULT_COST_MODEL
from repro.core import CollectiveFile
from repro.datatypes import BYTE, contiguous, resized
from repro.datatypes.segments import FlatCursor
from repro.datatypes.packing import scatter_segments
from repro.errors import (
    AggregatorLost,
    CollectiveAborted,
    DeadlineExceeded,
    IntegrityError,
    LockDeadlock,
    OSTOverloaded,
    OSTUnavailable,
    ReproError,
    RetryBudgetExhausted,
    RetryExhausted,
)
from repro.faults import FaultPlan, OST_KINDS, load_scenario
from repro.mpi import Communicator, Hints
from repro.obs.session import Session

__all__ = ["ChaosPoint", "ChaosReport", "ChaosHarness"]

_PATH = "/chaos"


def _chain(exc: Optional[BaseException]):
    """Walk an exception's cause/context chain (cycle-safe)."""
    seen = set()
    while exc is not None and id(exc) not in seen:
        seen.add(id(exc))
        yield exc
        exc = exc.__cause__ or exc.__context__


def _detection_in_chain(exc: Optional[BaseException]) -> bool:
    """True when a failure chain shows corruption was *caught*: a typed
    IntegrityError anywhere, or frame re-requests exhausting at the
    ``net-frame`` site."""
    for e in _chain(exc):
        if isinstance(e, IntegrityError):
            return True
        if isinstance(e, RetryExhausted) and e.site == "net-frame":
            return True
    return False


def _liveness_in_chain(exc: Optional[BaseException]) -> bool:
    """True when a failure chain ends in a typed liveness error — the
    loud, bounded alternative to a hang."""
    return any(
        isinstance(e, (DeadlineExceeded, LockDeadlock, AggregatorLost))
        for e in _chain(exc)
    )


def _storage_in_chain(exc: Optional[BaseException]) -> bool:
    """True when a failure chain carries a typed storage error: an
    :class:`OSTUnavailable` / :class:`OSTOverloaded` anywhere (a retry
    or budget exhaustion raised *from* one keeps it in the chain), or
    a :class:`RetryBudgetExhausted` — the admission layer refusing to
    keep hammering a sick OST."""
    return any(
        isinstance(e, (OSTUnavailable, OSTOverloaded, RetryBudgetExhausted))
        for e in _chain(exc)
    )


@dataclass
class ChaosPoint:
    """One intensity step of a chaos sweep."""

    rate_scale: float
    sim_seconds: float
    slowdown: float
    verified: bool
    #: Corruption was injected and caught (checksum mismatch flagged,
    #: frame re-requested, or the run killed loudly) — never silent.
    detected: bool = False
    #: The point's full metrics-registry snapshot (stable dotted names:
    #: ``cache.*``, ``fs.*``, ``net.*``, ``faults.*``, ...), so fault
    #: and cache behaviour is visible per intensity step.
    counters: Dict[str, object] = field(default_factory=dict)


@dataclass
class ChaosReport:
    """A full sweep: baseline plus one point per intensity."""

    scenario: str
    seed: int
    nprocs: int
    total_bytes: int
    baseline_seconds: float
    points: List[ChaosPoint] = field(default_factory=list)

    @property
    def all_verified(self) -> bool:
        return all(p.verified for p in self.points)

    def format(self) -> str:
        lines = [
            f"chaos sweep: scenario={self.scenario!r} seed={self.seed} "
            f"nprocs={self.nprocs} bytes={self.total_bytes}",
            f"  baseline (fault-free): {self.baseline_seconds * 1e3:9.3f} ms",
            f"  {'scale':>6} {'sim ms':>10} {'slowdown':>9} {'ok':>3}  faults",
        ]
        for p in self.points:
            fired = ", ".join(
                f"{k[len('faults.'):]}={v:g}"
                for k, v in p.counters.items()
                if k.startswith("faults.") and v
            ) or "-"
            flag = "BAD" if not p.verified else ("det" if p.detected else "ok")
            lines.append(
                f"  {p.rate_scale:6.2f} {p.sim_seconds * 1e3:10.3f} "
                f"{p.slowdown:8.2f}x {flag:>3}  {fired}"
            )
        return "\n".join(lines)


class ChaosHarness:
    """Sweep a fault scenario's intensity over a fixed collective write.

    ``scenario`` is a ``name[:seed]`` spec or an explicit
    :class:`FaultPlan`.  The workload is ``count`` interleaved
    ``region``-byte tiles per rank, written with one ``write_all``."""

    def __init__(
        self,
        scenario: str | FaultPlan,
        *,
        nprocs: int = 4,
        region: int = 64,
        count: int = 16,
        hints: Optional[Hints] = None,
        cost: CostModel = DEFAULT_COST_MODEL,
        integrity: bool = False,
        liveness: bool = False,
        deadline: float = 0.25,
        replication: int = 1,
        queue_limit: Optional[float] = None,
        breaker: object = True,
        async_io: bool = False,
    ) -> None:
        if isinstance(scenario, FaultPlan):
            self.plan = scenario
            self.scenario_name = "<custom>"
        else:
            self.plan = load_scenario(scenario)
            self.scenario_name = scenario.partition(":")[0]
        self.nprocs = nprocs
        self.region = region
        self.count = count
        # Default geometry: two aggregators, a collective buffer small
        # enough for several rounds per call — phase-boundary scenarios
        # (agg-crash) need boundaries to exist.
        self.hints = (
            hints if hints is not None else Hints(cb_nodes=2, cb_buffer_size=512)
        )
        self.integrity = integrity
        if integrity:
            self.hints = self.hints.replace(
                integrity_pages=True, integrity_network=True
            )
        self.liveness = liveness
        self.deadline = deadline
        if liveness:
            self.hints = self.hints.replace(coll_deadline=deadline, liveness=True)
        #: The plan carries OST fault events — typed storage errors are
        #: then bounded outcomes, not harness bugs.
        self.storage = any(e.kind in OST_KINDS for e in self.plan.events)
        #: The plan carries fail-stop rank crashes — survivors must
        #: still terminate, the crashed ranks are rejoined and resumed,
        #: and after resume the *full* oracle must match
        #: (docs/crash_recovery.md).  A quorum-loss
        #: :class:`~repro.errors.CollectiveAborted` is a bounded typed
        #: outcome, same contract as the liveness and storage domains.
        self.crash = any(e.kind == "rank_crash" for e in self.plan.events)
        self.replication = replication
        if replication > 1:
            self.hints = self.hints.replace(replication_factor=replication)
        self.queue_limit = queue_limit
        self.breaker = breaker
        #: Issue the workload through the nonblocking surface
        #: (``iwrite_all`` + ``Request.wait()``) instead of the blocking
        #: ``write_all``.  The bounded-completion contract is identical:
        #: ``wait()`` re-raises the operation's *original* typed
        #: exception object, so the cause/context chain the classifier
        #: whitelists is the same one the inline path produces.
        self.async_io = async_io
        self.cost = cost
        self.total_bytes = nprocs * region * count

    # -- workload -----------------------------------------------------------
    def _rank_buffer(self, rank: int) -> np.ndarray:
        n = self.region * self.count
        return ((np.arange(n, dtype=np.int64) * (rank + 1) + rank) % 251).astype(
            np.uint8
        )

    def _oracle(self) -> np.ndarray:
        """The expected file image, built without the simulator."""
        out = np.zeros(self.total_bytes, dtype=np.uint8)
        period = self.region * self.nprocs
        tile = resized(contiguous(self.region, BYTE), 0, period).flatten()
        for rank in range(self.nprocs):
            total = self.region * self.count
            batch = FlatCursor(tile, rank * self.region, total).all_segments()
            scatter_segments(out, batch, self._rank_buffer(rank))
        return out

    def run_once(
        self, plan: Optional[FaultPlan]
    ) -> tuple[float, bool, bool, Dict[str, object]]:
        """One full run (open, write_all, close) under ``plan``.

        Returns (virtual completion seconds, no-silent-corruption,
        corruption-detected, registry snapshot).  Fault activity is in
        the snapshot's ``faults.*`` entries.
        ``plan=None`` runs fault-free.  Failures unrelated to
        corruption detection propagate (they are harness bugs, not
        chaos outcomes).

        Each run builds a fresh :class:`~repro.obs.session.Session`, so
        the returned registry snapshot is the per-run counter set —
        including the page caches' ``cache.hits`` / ``cache.misses``,
        which the old harness never saw."""
        session = Session(
            _PATH,
            nprocs=self.nprocs,
            hints=self.hints,
            cost=self.cost,
            faults=plan,
            queue_limit=self.queue_limit,
            breaker=self.breaker,
        )
        fs = session.fs
        region, nprocs = self.region, self.nprocs
        hints = self.hints

        def main(ctx):
            comm = Communicator(ctx, self.cost)
            f = CollectiveFile(ctx, comm, fs, _PATH, hints=hints, cost=self.cost)
            tile = resized(contiguous(region, BYTE), 0, region * nprocs)
            f.set_view(disp=comm.rank * region, filetype=tile)
            if self.async_io:
                # Split collective: any typed failure is captured by the
                # coroutine's handle and re-raised here — same object,
                # same chain, same classifier outcome as the inline path.
                f.iwrite_all(self._rank_buffer(comm.rank)).wait()
            else:
                f.write_all(self._rank_buffer(comm.rank))
            f.close()
            return ctx.now

        try:
            times = session.launch(main)
        except ReproError as exc:
            counters = session.registry.snapshot()
            if self.crash and any(
                isinstance(e, CollectiveAborted) for e in _chain(exc)
            ):
                # Quorum lost: the collective died loudly with the typed
                # abort instead of hanging on the corpses.  Bounded.
                return 0.0, True, True, counters
            if self.liveness and _liveness_in_chain(exc):
                # Killed loudly by a typed liveness error — the bounded
                # (and reported) alternative to a hang.  The raising
                # rank's clock was at most one deadline past the call's
                # start, so boundedness holds by construction.
                return 0.0, True, True, counters
            if self.storage and _storage_in_chain(exc):
                # Killed loudly by a typed storage error (the OST stayed
                # down past what retries/replicas could absorb) — the
                # bounded alternative to hammering a dead OST forever.
                return 0.0, True, True, counters
            if not _detection_in_chain(exc):
                raise
            # Killed loudly by detected corruption — the opposite of a
            # silent wrong answer.  No meaningful completion time.
            return 0.0, True, True, counters
        if self.crash and session.sim is not None and session.sim.crashed:
            # Rejoin every corpse and resume: replay the same program,
            # rewriting only what no survivor committed on its behalf.
            # After resume the *full* oracle must match.
            def rejoin_body(rank):
                def run(ctx, comm, f):
                    tile = resized(contiguous(region, BYTE), 0, region * nprocs)
                    f.set_view(disp=rank * region, filetype=tile)
                    f.write_all(self._rank_buffer(rank))

                return run

            for rank in sorted(session.sim.crashed):
                session.rejoin(rank, rejoin_body(rank))
        counters = session.registry.snapshot()
        seconds = max(t for t in times if t is not None)
        got = fs.raw_bytes(_PATH, 0, self.total_bytes)
        diff = np.flatnonzero(got != self._oracle())
        detected = bool(
            counters.get("faults.net.corruptions_detected")
            or counters.get("faults.page.corruptions_detected")
        )
        if diff.size == 0:
            return seconds, True, detected, counters
        # Bytes are wrong.  That is still "caught" when every wrong page
        # fails its sidecar (an fsck scrub flags exactly the damage);
        # anything less is silent corruption.
        store = fs.page_store(_PATH)
        bad = set(store.verify_all())
        wrong_pages = set((diff // store.page_size).tolist())
        caught = bool(bad) and wrong_pages <= bad
        return seconds, caught, caught or detected, counters

    def sweep(
        self, rate_scales: Sequence[float] = (0.25, 0.5, 1.0, 2.0)
    ) -> ChaosReport:
        """Baseline plus one verified run per intensity."""
        baseline, ok, _, _ = self.run_once(None)
        report = ChaosReport(
            scenario=self.scenario_name,
            seed=self.plan.seed,
            nprocs=self.nprocs,
            total_bytes=self.total_bytes,
            baseline_seconds=baseline,
        )
        if not ok:
            raise AssertionError("fault-free chaos baseline wrote corrupt data")
        for scale in rate_scales:
            seconds, verified, detected, counters = self.run_once(
                self.plan.scaled(scale)
            )
            report.points.append(
                ChaosPoint(
                    rate_scale=float(scale),
                    sim_seconds=seconds,
                    slowdown=seconds / baseline if baseline > 0 else float("inf"),
                    verified=verified,
                    detected=detected,
                    counters=counters,
                )
            )
        return report
