"""The original ROMIO-style two-phase implementation (the baseline).

Structural differences from the new code, per the paper:

* the client flattens its **entire access** into M offset/length pairs
  up front, partitions them by realm, and ships each aggregator its
  m_i pairs — O(M) computation, memory, and network;
* realms are always the even partition of the aggregate access region
  (no datatypes, no alignment, no persistence, no load balancing);
* the exchange is always the post-everything-then-wait nonblocking
  pattern (no alltoallw, no overlap);
* data sieving is **integrated**: the collective buffer is the sieve
  buffer.  The aggregator pre-reads the window span when holes exist,
  receives client data straight into that buffer, and writes the span
  back — one less buffer copy than the layered design, but only one
  I/O method, fused into the collective path.

``_OldPlan`` is this implementation's planner and ``_SieveIO`` its
integrated sieve, as the I/O callbacks of the shared round executor
(:func:`repro.core.rounds.execute`).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.aggregation import select_aggregators
from repro.core.env import CollEnv
from repro.core.plan import (
    clip_to_range,
    compute_aar,
    mem_batch_for,
    merge_extents,
    subtract_intervals,
)
from repro.core.realms import EvenPartition
from repro.core.rounds import Planner, RoundIO, run_collective
from repro.datatypes.flatten import FlatType
from repro.datatypes.segments import SegmentBatch
from repro.errors import CollectiveAborted, RankCrashed
from repro.faults.plan import FAULTS_KEY
from repro.liveness import install_crash_state
from repro.mpi.agreement import AliveGroup, agree_dead_set

__all__ = ["write_all_old", "read_all_old"]

_TAG_REQS = (1 << 19) + 2  # library p2p range: below COLLECTIVE_TAG_BASE


class _OldPlan(Planner):
    def __init__(
        self,
        env: CollEnv,
        memflat: FlatType,
        total_bytes: int,
        data_lo: int = 0,
    ) -> None:
        self.env = env
        self.memflat = memflat
        self.total_bytes = total_bytes
        self.data_lo = data_lo
        ctx, comm, hints = env.ctx, env.comm, env.hints

        # Fail-stop crash state (docs/crash_recovery.md), armed only
        # when the plan carries ``rank_crash`` events.  A mid-call
        # re-plan keeps this bookkeeping — call ordinal, boundary
        # counter, agreed dead set, survivor group — and re-runs only
        # :meth:`_plan`.
        self._injector = ctx.shared.get(FAULTS_KEY)
        self.call_index = (
            self._injector.begin_collective(comm.rank)
            if self._injector is not None
            else 0
        )
        self._boundary = 0
        self._crash = None
        self._known_dead: set[int] = set()
        if self._injector is not None and self._injector.enabled("rank_crash"):
            self._crash = install_crash_state(ctx.shared)
            self._known_dead = set(self._crash.dead)
            self.group = AliveGroup(comm, frozenset(self._known_dead), -1)
            quorum = hints["crash_quorum"]
            if self.group.size < quorum:
                raise CollectiveAborted(
                    -1, self.group.size, quorum, tuple(sorted(self._known_dead))
                )
        self._covered: List[tuple] = []
        self._plan()

    def _plan(self) -> None:
        env = self.env
        ctx, comm, cost, hints = env.ctx, env.comm, env.cost, env.hints
        total_bytes, data_lo = self.total_bytes, self.data_lo
        self.skip = frozenset(self._known_dead)
        coll = self.group if self.group is not None else comm

        # Flatten the whole access: M pairs, charged per pair.  A
        # re-plan subtracts the already-written file intervals, so
        # survivors only re-partition the remainder.
        if total_bytes > 0:
            cursor = env.view.cursor(data_lo + total_bytes, data_lo)
            self.my_access = cursor.all_segments()
            ctx.charge(self.my_access.pairs_evaluated * cost.cpu_per_flat_pair)
            env.metrics.counter("coll.client.pairs").inc(self.my_access.pairs_evaluated)
            if self._covered:
                self.my_access = subtract_intervals(self.my_access, self._covered)
        else:
            self.my_access = SegmentBatch.empty_batch()
        if self.my_access.empty:
            lo = hi = 0
        else:
            lo, hi = int(self.my_access.file_offsets[0]), int(
                (self.my_access.file_offsets + self.my_access.lengths).max()
            )
        self.aar_lo, self.aar_hi = compute_aar(
            coll, lo, hi, not self.my_access.empty
        )
        self.aggs = select_aggregators(
            comm.size, hints["cb_nodes"], hints["cb_layout"]
        )
        if self._known_dead:
            # Corpses never aggregate; if every chosen aggregator is
            # dead, re-aggregate over the survivors.
            alive_aggs = [a for a in self.aggs if a not in self._known_dead]
            if alive_aggs:
                self.aggs = alive_aggs
            else:
                live = [x for x in range(comm.size) if x not in self._known_dead]
                self.aggs = live[: max(1, len(self.aggs))]
        self.my_agg_index = self.aggs.index(comm.rank) if comm.rank in self.aggs else -1
        naggs = len(self.aggs)

        realms = EvenPartition().assign(self.aar_lo, self.aar_hi, naggs)
        self.bounds: List[tuple[int, int]] = []
        for realm in realms:
            dom = realm.domain(self.aar_lo, self.aar_hi)
            if dom.starts.size:
                self.bounds.append((int(dom.starts[0]), int(dom.ends[-1])))
            else:
                self.bounds.append((self.aar_hi, self.aar_hi))

        # Partition my M pairs by realm (one more O(M) pass) and ship
        # each aggregator its offset/length lists.
        self.my_parts: List[SegmentBatch] = []
        send_objs: List[Optional[object]] = [None] * comm.size
        for ai, a in enumerate(self.aggs):
            r_lo, r_hi = self.bounds[ai]
            part = clip_to_range(self.my_access, r_lo, r_hi)
            self.my_parts.append(part)
            if part.empty:
                continue
            wire = np.stack([part.file_offsets, part.lengths], axis=1)
            send_objs[a] = wire
            env.metrics.counter("coll.meta.bytes").inc(wire.nbytes if a != comm.rank else 0)
        if total_bytes > 0:
            ctx.charge(self.my_access.num_segments * cost.cpu_per_flat_pair)
            env.metrics.counter("coll.client.pairs").inc(self.my_access.num_segments)

        # The request exchange is an all-to-all of per-aggregator lists
        # (over the survivor group when crashes are armed: a corpse
        # would deadlock the full-membership alltoall, and its slots
        # come back None so its requests drop out of the aggregation).
        received = coll.alltoall(send_objs)
        self.client_reqs: List[Optional[SegmentBatch]] = [None] * comm.size
        if self.my_agg_index >= 0:
            for c, wire in enumerate(received):
                if wire is None:
                    continue
                offs = wire[:, 0].astype(np.int64)
                lens = wire[:, 1].astype(np.int64)
                ctx.charge(offs.size * cost.cpu_per_flat_pair)
                env.metrics.counter("coll.agg.pairs").inc(int(offs.size))
                dp = np.zeros(offs.size, dtype=np.int64)
                np.cumsum(lens[:-1], out=dp[1:])
                self.client_reqs[c] = SegmentBatch(offs, lens, dp)

        # Clip each aggregator's iteration space to its received
        # requests' min/max offsets (ROMIO's st_loc/end_loc), shared via
        # allgather so clients slice windows identically.
        if self.my_agg_index >= 0:
            req_lo: Optional[int] = None
            req_hi: Optional[int] = None
            for reqs in self.client_reqs:
                if reqs is None or reqs.empty:
                    continue
                lo_ = int(reqs.file_offsets[0])
                hi_ = int((reqs.file_offsets + reqs.lengths).max())
                req_lo = lo_ if req_lo is None else min(req_lo, lo_)
                req_hi = hi_ if req_hi is None else max(req_hi, hi_)
            mine = (req_lo, req_hi) if req_lo is not None else None
        else:
            mine = None
        gathered = coll.allgather(mine)
        self.win_bounds: List[tuple[int, int]] = []
        for ai, a in enumerate(self.aggs):
            b = gathered[a]
            self.win_bounds.append((b[0], b[1]) if b is not None else (0, 0))

        cb = hints["cb_buffer_size"]
        self.cb = cb
        # Rounds cover each aggregator's requested *span* (not its data
        # volume) — the original code slices the region, holes and all.
        spans = [max(hi_ - lo_, 0) for lo_, hi_ in self.win_bounds]
        self.nrounds = max((-(-s // cb) for s in spans if s), default=0)

    def my_window(self, ai: int, r: int) -> tuple[int, int]:
        lo, hi = self.win_bounds[ai]
        w_lo = lo + r * self.cb
        w_hi = min(w_lo + self.cb, hi)
        return w_lo, max(w_hi, w_lo)

    # -- the round schedule ----------------------------------------------------
    def rounds(self, buf: np.ndarray, *, write: bool):
        """Round indices in execution order, each after its boundary
        check; a re-plan restarts the count at zero."""
        r = 0
        while r < self.nrounds:
            if self._check_boundary(r):
                self.replanned = True
                r = 0
                continue
            yield r
            r += 1

    @property
    def excluded(self) -> frozenset:
        return frozenset(self._known_dead)

    def client_plan(self, r: int) -> List[Optional[SegmentBatch]]:
        """Memory batches this client contributes to each aggregator."""
        out: List[Optional[SegmentBatch]] = [None] * self.env.comm.size
        if self.total_bytes == 0:
            return out
        for ai, a in enumerate(self.aggs):
            w_lo, w_hi = self.my_window(ai, r)
            if w_hi <= w_lo:
                continue
            part = clip_to_range(self.my_parts[ai], w_lo, w_hi)
            if part.empty:
                continue
            out[a] = mem_batch_for(
                self.memflat, part.data_offsets - self.data_lo, part.lengths
            )
        return out

    def agg_layout(self, r: int):
        """(window span, per-client buffer batches, merged extents)."""
        comm = self.env.comm
        if self.my_agg_index < 0:
            return None, [None] * comm.size, (None, None)
        w_lo, w_hi = self.my_window(self.my_agg_index, r)
        if w_hi <= w_lo:
            return None, [None] * comm.size, (None, None)
        per_client: List[Optional[SegmentBatch]] = [None] * comm.size
        ext_offs, ext_lens = [], []
        for c in range(comm.size):
            reqs = self.client_reqs[c]
            if reqs is None:
                continue
            part = clip_to_range(reqs, w_lo, w_hi)
            if part.empty:
                continue
            bufpos = part.file_offsets - w_lo
            per_client[c] = SegmentBatch(bufpos, part.lengths, part.file_offsets)
            ext_offs.append(part.file_offsets)
            ext_lens.append(part.lengths)
        merged = merge_extents(ext_offs, ext_lens)
        return (w_lo, w_hi), per_client, merged

    def after_round(self, r: int, rp) -> None:
        """Crash-armed runs make each written round durable: a later
        death must not take already-written rounds down with the
        corpse's cache (the re-plan treats them as covered)."""
        if self._crash is not None and _has_data(rp):
            self.env.adio.retry.run(self.env.ctx, self.env.adio.local.sync)

    # -- fail-stop boundary check ----------------------------------------------
    def _check_boundary(self, r: int) -> bool:
        """Fail-stop boundary check before round ``r``.

        Detection mirrors the new implementation: a pure evaluation of
        the fault plan at ``(call, boundary)``, identical on every rank.
        The *victim* records its death and dies at its site; *survivors*
        run one epoch agreement and then **re-plan**: the first ``r``
        rounds of every realm are already written back (the old path
        writes its span each round), so survivors subtract that covered
        region from their access and re-partition the remainder among
        the surviving aggregators — the dead rank's requests drop out
        with it.

        Returns True after a re-plan (the round count restarts at zero)."""
        inj = self._injector
        if self._crash is None:
            return False
        env = self.env
        rank = env.comm.rank
        boundary = self._boundary
        self._boundary += 1
        crashed = inj.crashed_ranks(self.call_index, boundary)
        newly = sorted(c for c in crashed if c not in self._known_dead)
        if newly and rank in newly:
            event = inj.crash_event_for(rank, self.call_index)
            site = event.site if event is not None else "boundary"
            if self._crash.mark_dead(rank, self.call_index, boundary):
                inj.note_crash()
            self._known_dead.add(rank)
            self.skip = frozenset(self.skip | {rank})
            if site == "boundary":
                raise RankCrashed(rank, site)
            self.crash_site = site
            return False
        if self._known_dead and rank == min(
            x for x in range(env.comm.size) if x not in self._known_dead
        ):
            # Count plan events aimed entirely at corpses *before* folding
            # this boundary's fresh deaths in (docs/crash_recovery.md).
            sup = inj.suppressed_for(
                frozenset(self._known_dead), self.call_index, boundary
            )
            if sup:
                inj.note_suppressed(sup)
        if not newly:
            return False
        proposal = frozenset(self._known_dead | set(newly))
        with env.ctx.trace("crash:agree", epoch=boundary):
            group = agree_dead_set(env.comm, proposal, boundary)
        for c in newly:
            if self._crash.mark_dead(c, self.call_index, boundary):
                inj.note_crash()
        self._known_dead.update(newly)
        reporter = group.first_alive()
        if rank == reporter:
            inj.note_agreement()
        quorum = env.hints["crash_quorum"]
        if group.size < quorum:
            if rank == reporter:
                inj.note_aborted()
            raise CollectiveAborted(
                boundary, group.size, quorum, tuple(sorted(self._known_dead))
            )
        covered: List[tuple] = list(self._covered)
        for ai, a in enumerate(self.aggs):
            lo, hi = self.win_bounds[ai]
            done_hi = min(lo + r * self.cb, hi)
            if done_hi > lo:
                covered.append((lo, done_hi))
            if a in newly and rank == reporter:
                inj.note_failover(a, max(hi - done_hi, 0))
        self.group = group
        self._covered = covered
        with env.ctx.trace("tp:failover", round=r):
            self._plan()
        return True


def _has_data(rp) -> bool:
    """Whether my aggregator window holds client data this round."""
    return rp.window is not None and rp.merged[0].size > 0


def _data_span(rp) -> tuple[int, int]:
    """[first, last) file byte of the round's merged extents."""
    offs, lens = rp.merged
    return int(offs[0]), int((offs + lens).max())


class _SieveIO(RoundIO):
    """Integrated data sieving: the collective buffer is the sieve
    buffer, covering the window span.  The aggregator pre-reads the
    data span when holes exist, receives client data straight into the
    buffer, and writes the span back; a read fills the span once."""

    pre_read = True

    def active(self, rp) -> bool:
        return _has_data(rp)

    def prepare(self, env: CollEnv, rp) -> Optional[np.ndarray]:
        if not _has_data(rp):
            return None
        lo, hi = _data_span(rp)
        w_lo, w_hi = rp.window
        cbuf = np.zeros(w_hi - w_lo, dtype=np.uint8)
        if int(rp.merged[1].sum()) < hi - lo:
            # Holes: pre-read so the span write-back preserves the gap
            # bytes (integrated data sieving's RMW).
            cbuf[lo - w_lo : hi - w_lo] = env.adio.read_contig(lo, hi - lo)
        return cbuf

    def flush(self, env: CollEnv, rp, cbuf: np.ndarray) -> None:
        lo, hi = _data_span(rp)
        w_lo = rp.window[0]
        env.metrics.counter("coll.flush.datasieve-integrated").inc()
        env.adio.write_contig(lo, cbuf[lo - w_lo : hi - w_lo])

    def fill(self, env: CollEnv, rp) -> np.ndarray:
        lo, hi = _data_span(rp)
        w_lo, w_hi = rp.window
        cbuf = np.zeros(w_hi - w_lo, dtype=np.uint8)
        env.metrics.counter("coll.flush.datasieve-integrated").inc()
        cbuf[lo - w_lo : hi - w_lo] = env.adio.read_contig(lo, hi - lo)
        return cbuf


def write_all_old(
    env: CollEnv,
    buf: np.ndarray,
    memflat: FlatType,
    total_bytes: int,
    data_lo: int = 0,
) -> None:
    """Collective write, original implementation."""
    run_collective(
        env, "old", _OldPlan, _SieveIO, buf, memflat, total_bytes, data_lo, write=True
    )


def read_all_old(
    env: CollEnv,
    buf: np.ndarray,
    memflat: FlatType,
    total_bytes: int,
    data_lo: int = 0,
) -> None:
    """Collective read, original implementation (integrated read sieve:
    the aggregator reads its whole window span once, then distributes)."""
    run_collective(
        env, "old", _OldPlan, _SieveIO, buf, memflat, total_bytes, data_lo, write=False
    )
