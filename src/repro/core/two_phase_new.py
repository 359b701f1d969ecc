"""The new flexible two-phase implementation (§5).

Write path, per collective call:

1. every rank computes its access span; the aggregate access region is
   an allreduce;
2. realms are assigned by the pluggable strategy (or taken from the
   file's persistent-realm state) — a pure function of AAR + hints, so
   every rank derives them without extra communication;
3. every client ships its **flattened filetype** (D pairs + header) to
   every aggregator; aggregators rebuild a scan cursor per client
   (§5.3's representation trade: O(D·A) metadata instead of O(M), paid
   back with O(M·A) pair evaluations — unless whole-tile skipping
   applies);
4. rounds: each aggregator walks its realm domain in collective-buffer
   sized windows.  Clients intersect their access with every
   aggregator's window (per-aggregator cursors, binary-heap progress
   tracking); aggregators intersect every client's filetype with their
   own window;
5. data moves via alltoallw, nonblocking or two_layer exchange into
   the collective buffer, which is flushed through the independent I/O
   layer with a per-flush method choice (conditional data sieving et
   al.).

The read path runs the phases in the opposite order.  ``_Plan`` is this
implementation's planner: steps 1–3 run once per call, and step 4
routes each round when :func:`repro.core.rounds.execute` asks for it.
The executor runs the rounds (step 5) through ``_LayeredIO``.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.core.aggregation import select_aggregators
from repro.core.env import CollEnv
from repro.core.plan import (
    access_histogram,
    compute_aar,
    concat_batches,
    mem_batch_for,
    merge_extents,
)
from repro.core.realms import FileRealm, RealmDomain, resolve_strategy
from repro.core.rounds import Planner, RoundIO, run_collective
from repro.datatypes.flatten import FlatType
from repro.datatypes.packing import gather_segments, scatter_segments
from repro.datatypes.segments import FlatCursor, SegmentBatch
from repro.datatypes.serialize import decode_flat, encode_flat
from repro.errors import (
    AggregatorLost,
    CollectiveAborted,
    CollectiveIOError,
    RankCrashed,
)
from repro.faults.plan import FAULTS_KEY
from repro.io.selection import choose_method
from repro.liveness import LIVENESS_KEY, install_crash_state
from repro.mpi.agreement import AliveGroup, agree_dead_set
from repro.mpi.topology import resolve_topology

__all__ = ["write_all_new", "read_all_new"]

_TAG_META = (1 << 19) + 1  # library p2p range: below COLLECTIVE_TAG_BASE
_EMPTY64 = np.empty(0, dtype=np.int64)


class _Plan(Planner):
    """Per-call planning state shared by the read and write paths.

    ``total_bytes`` is the number of data bytes carried; ``data_lo`` is
    the access's starting position in the view's data stream (the
    individual file pointer / explicit offset), so the touched stream
    range is [data_lo, data_lo + total_bytes)."""

    def __init__(
        self, env: CollEnv, memflat: FlatType, total_bytes: int, data_lo: int = 0
    ) -> None:
        self.env = env
        self.memflat = memflat
        self.total_bytes = total_bytes
        self.data_lo = data_lo
        self.data_hi = data_lo + total_bytes
        ctx, comm, hints = env.ctx, env.comm, env.hints
        view = env.view

        # Resilience state: which collective call this is (a pure
        # function of per-rank program order, so every rank agrees
        # without communication), which phase boundaries have passed,
        # and which aggregators have already been failed over.
        self._injector = ctx.shared.get(FAULTS_KEY)
        self.call_index = (
            self._injector.begin_collective(comm.rank)
            if self._injector is not None
            else 0
        )
        self._boundary = 0
        self._dead: set[int] = set()
        # Liveness state (suspect-driven failover): ranks stalled by a
        # ``rank_stall`` fault become *suspect* and are completed
        # around; ``skip`` feeds the exchange layer's exclusion.
        self._liveness = ctx.shared.get(LIVENESS_KEY)
        self._suspects: set[int] = set()
        self.i_am_suspect = False
        self._suspect_tails: Optional[List[RealmDomain]] = None
        # Fail-stop crash machinery (docs/crash_recovery.md), armed only
        # when the plan carries ``rank_crash`` events so the fault-free
        # path is untouched.  ``group`` is the survivors' communicator
        # view: every *control* collective of the planning phase (AAR,
        # histogram, bounds, extent) runs on it, so planning a new call
        # never blocks waiting on a corpse from an earlier one.
        self._crash = None
        self._known_dead: set[int] = set()
        self.group: Optional[AliveGroup] = None
        if self._injector is not None and self._injector.enabled("rank_crash"):
            self._crash = install_crash_state(ctx.shared)
            self._known_dead = set(self._crash.dead)
            self.group = AliveGroup(comm, frozenset(self._known_dead), -1)
            quorum = hints["crash_quorum"]
            if self.group.size < quorum:
                raise CollectiveAborted(
                    -1, self.group.size, quorum, tuple(sorted(self._known_dead))
                )
        self.skip: frozenset = frozenset(self._known_dead)
        coll = self._coll

        lo, hi = view.access_span(self.data_hi, data_lo)
        self.aar_lo, self.aar_hi = compute_aar(coll, lo, hi, total_bytes > 0)
        # Node topology for this call: leader-aware aggregator placement
        # and the two_layer exchange's grouping.  None on flat clusters,
        # so the default path is untouched.
        self.topology = resolve_topology(hints, env.cost)
        self.mode = hints["exchange"]
        self.aggs = select_aggregators(
            comm.size, hints["cb_nodes"], hints["cb_layout"], topology=self.topology
        )
        if self._known_dead:
            # Ranks that died fail-stop in earlier calls never regain
            # the aggregator role; if every chosen aggregator is a
            # corpse, re-aggregate elastically over the survivors.
            alive_aggs = [a for a in self.aggs if a not in self._known_dead]
            if alive_aggs:
                self.aggs = alive_aggs
            else:
                live = [x for x in range(comm.size) if x not in self._known_dead]
                self.aggs = live[: max(1, len(self.aggs))]
        if self._injector is not None:
            # Aggregators that died in *earlier* collective calls never
            # regain the role: drop them before realm assignment so
            # survivors partition the AAR among themselves.
            gone = self._injector.dead_aggregators(self.call_index, -1)
            if gone:
                alive = [a for a in self.aggs if a not in gone]
                if len(alive) != len(self.aggs):
                    if not hints["failover"]:
                        raise AggregatorLost(min(set(self.aggs) & gone))
                    if not alive:
                        raise AggregatorLost(self.aggs[0])
                    self.aggs = alive
        self.my_agg_index = self.aggs.index(comm.rank) if comm.rank in self.aggs else -1
        self.realms = self._assign_realms()
        self.domains: List[RealmDomain] = [
            r.domain(self.aar_lo, self.aar_hi) for r in self.realms
        ]
        # Assigned (pre-clip) per-aggregator realm bytes: what the
        # strategy decided, before request bounds shrink the iteration
        # space.  Tests use this to see balanced-strategy boundary
        # movement between calls.
        self.realm_bytes = [int(d.total_bytes) for d in self.domains]
        env.last_realm_bytes[:] = self.realm_bytes
        cb = hints["cb_buffer_size"]
        self.cb = cb
        # The conditional-sieving metric: the largest filetype extent in
        # play (identical on all ranks for uniform views).
        my_ext = view.flat.extent if total_bytes > 0 else 0
        self.ft_extent = coll.allreduce(my_ext, op=max)

        # Client-side per-aggregator cursors over my own access.
        self.client_cursors: Optional[List[FlatCursor]] = None
        if total_bytes > 0:
            self.client_cursors = [
                view.cursor(self.data_hi, data_lo) for _ in self.aggs
            ]

        # Access-description exchange: flattened filetypes to aggregators.
        self.agg_cursors: Optional[List[Optional[FlatCursor]]] = None
        self._exchange_access_descriptions()

        # Clip every aggregator's iteration space to the bounds of the
        # requests it actually received (ROMIO's st_loc/end_loc): sparse
        # clusters must not inflate the round count with empty windows.
        # One allgather keeps clients and aggregators agreeing on the
        # window geometry.
        bounds = coll.allgather(self._request_bounds())
        for ai, a in enumerate(self.aggs):
            b = bounds[a]
            if b is None:
                self.domains[ai] = self.domains[ai].clip(0, 0)
            else:
                self.domains[ai] = self.domains[ai].clip(b[0], b[1])
        self.nrounds = max((d.nrounds(cb) for d in self.domains), default=0)

    # -- control-collective carrier -------------------------------------------
    @property
    def _coll(self):
        """The alive group when fail-stop crashes are armed, the full
        communicator otherwise — every planning-phase collective rides
        on this so corpses are never waited on."""
        return self.group if self.group is not None else self.env.comm

    # -- realms ---------------------------------------------------------------
    def _assign_realms(self) -> List[FileRealm]:
        env = self.env
        hints = env.hints
        naggs = len(self.aggs)
        if hints["persistent_file_realms"]:
            if env.pfr is None:
                raise CollectiveIOError("persistent_file_realms requires PFR state")
            return env.pfr.realms_for(
                self.aar_lo, self.aar_hi, naggs, hints["realm_alignment"]
            )
        strategy = resolve_strategy(hints)
        histogram = None
        weights = None
        if strategy.needs_histogram:
            local = access_histogram(
                (lambda: env.view.cursor(self.data_hi, self.data_lo))
                if self.total_bytes > 0
                else (lambda: _NullCursor()),
                self.aar_lo,
                self.aar_hi,
            )
            histogram = self._coll.allreduce(local, op=lambda a, b: a + b)
            # Straggler-aware rebalancing: feed each aggregator's
            # observed service time from the *previous* collective call
            # back as an inverse weight, so a slow aggregator's realm
            # shrinks.  One allgather, paid only on the balanced path.
            times = self._coll.allgather(env.metrics.value("coll.agg.last_service_seconds"))
            per_agg = [float(times[a]) for a in self.aggs]
            if any(t > 0.0 for t in per_agg):
                known = [1.0 / t for t in per_agg if t > 0.0]
                fresh = sum(known) / len(known)  # no history = average share
                weights = [1.0 / t if t > 0.0 else fresh for t in per_agg]
        return strategy.assign(
            self.aar_lo, self.aar_hi, naggs, histogram=histogram, weights=weights
        )

    # -- metadata exchange -------------------------------------------------------
    def _exchange_access_descriptions(self) -> None:
        env = self.env
        comm, ctx, cost = env.comm, env.ctx, env.cost
        flat = env.view.flat
        payload = (
            (encode_flat(flat), env.view.disp, self.data_hi, self.data_lo)
            if self.total_bytes > 0
            else None
        )
        # Flattening cost on the client: one pass over the D pairs.
        if payload is not None:
            ctx.charge(flat.num_segments * cost.cpu_per_flat_pair)
            env.metrics.counter("coll.meta.bytes").inc(
                len(payload[0]) * sum(1 for a in self.aggs if a != comm.rank)
            )
        for a in self.aggs:
            if a != comm.rank:
                comm.isend(payload, a, _TAG_META)
        if self.my_agg_index < 0:
            return
        cursors: List[Optional[FlatCursor]] = [None] * comm.size
        for c in range(comm.size):
            if c in self._known_dead:
                continue
            got = payload if c == comm.rank else comm.recv(c, _TAG_META)
            if got is None:
                continue
            blob, disp, d_hi, d_lo = got
            client_flat = decode_flat(blob)
            # Aggregator-side processing of the received description.
            ctx.charge(client_flat.num_segments * cost.cpu_per_flat_pair)
            cursors[c] = FlatCursor(client_flat, disp, d_hi, d_lo)
        self.agg_cursors = cursors

    def _request_bounds(self) -> Optional[tuple[int, int]]:
        """[min, max) file offsets of the requests inside my realm, or
        None when I am not an aggregator / received nothing.

        Span-based (each client's first..last byte intersected with my
        domain intervals): cheap, and exact at the outer edges, which is
        all the round clipping needs."""
        if self.my_agg_index < 0 or self.agg_cursors is None:
            return None
        dom = self.domains[self.my_agg_index]
        if dom.starts.size == 0:
            return None
        lo: Optional[int] = None
        hi: Optional[int] = None
        for cur in self.agg_cursors:
            if cur is None or cur.tiles == 0:
                continue
            c_lo, c_hi = cur.first_byte, cur.last_byte
            if c_hi <= c_lo:
                continue
            # First domain byte inside [c_lo, c_hi).
            i = int(np.searchsorted(dom.ends, c_lo, side="right"))
            if i < dom.starts.size and dom.starts[i] < c_hi:
                cand = max(int(dom.starts[i]), c_lo)
                lo = cand if lo is None else min(lo, cand)
            # Last domain byte inside [c_lo, c_hi).
            j = int(np.searchsorted(dom.starts, c_hi, side="left")) - 1
            if j >= 0 and dom.ends[j] > c_lo:
                cand = min(int(dom.ends[j]), c_hi)
                hi = cand if hi is None else max(hi, cand)
        if lo is None or hi is None or hi <= lo:
            return None
        return (lo, hi)

    # -- per-round routing ------------------------------------------------------
    def _charge_batch(self, batch: SegmentBatch, *, agg_side: bool) -> None:
        env = self.env
        cost = env.cost
        env.ctx.charge(
            batch.pairs_evaluated * cost.cpu_per_flat_pair
            + batch.tiles_skipped * cost.cpu_tile_skip
        )
        if agg_side:
            env.metrics.counter("coll.agg.pairs").inc(batch.pairs_evaluated)
            env.metrics.counter("coll.agg.tiles_skipped").inc(batch.tiles_skipped)
        else:
            env.metrics.counter("coll.client.pairs").inc(batch.pairs_evaluated)
            env.metrics.counter("coll.client.tiles_skipped").inc(batch.tiles_skipped)

    def _intersect_window(
        self, cursor: FlatCursor, window, *, agg_side: bool
    ) -> SegmentBatch:
        parts = []
        pairs = 0
        tiles = 0
        for w_lo, w_hi in window.intervals:
            b = cursor.intersect(w_lo, w_hi)
            pairs += b.pairs_evaluated
            tiles += b.tiles_skipped
            if not b.empty:
                parts.append(b)
        merged = concat_batches(parts)
        merged.pairs_evaluated = pairs
        merged.tiles_skipped = tiles
        self._charge_batch(merged, agg_side=agg_side)
        return merged

    def client_plan(self, r: int) -> List[Optional[SegmentBatch]]:
        """What my data contributes to each aggregator's round-r window,
        as memory-address batches."""
        env = self.env
        comm, cost, hints = env.comm, env.cost, env.hints
        plan: List[Optional[SegmentBatch]] = [None] * comm.size
        if self.client_cursors is None:
            return plan
        use_heap = hints["use_heap"]
        naggs = len(self.aggs)
        heap_cost = cost.cpu_heap_op * (1 + math.log2(naggs)) if use_heap else 0.0
        for ai, a in enumerate(self.aggs):
            window = self.domains[ai].window(r, self.cb)
            if window.empty:
                continue
            if use_heap:
                env.ctx.charge(heap_cost)
            batch = self._intersect_window(
                self.client_cursors[ai], window, agg_side=False
            )
            if batch.empty:
                continue
            plan[a] = mem_batch_for(
                self.memflat, batch.data_offsets - self.data_lo, batch.lengths
            )
        if not use_heap:
            # Without progress tracking the client rescans its access
            # from the start for every aggregator on the next round.
            for cur in self.client_cursors:
                cur.reset()
        return plan

    def agg_layout(self, r: int):
        """(window, per-client buffer batches, merged write extents) for
        my aggregator role this round, or (None, ..., ...)."""
        env = self.env
        comm = env.comm
        if self.my_agg_index < 0 or self.agg_cursors is None:
            return None, [None] * comm.size, (None, None)
        window = self.domains[self.my_agg_index].window(r, self.cb)
        if window.empty:
            return None, [None] * comm.size, (None, None)
        per_client: List[Optional[SegmentBatch]] = [None] * comm.size
        ext_offs = []
        ext_lens = []
        for c in range(comm.size):
            cur = self.agg_cursors[c]
            if cur is None:
                continue
            batch = self._intersect_window(cur, window, agg_side=True)
            if batch.empty:
                continue
            bufpos = window.to_buffer(batch.file_offsets)
            # data_offsets keep file order (== the client's data order
            # for a monotonic view), which is the exchange's order key.
            per_client[c] = SegmentBatch(bufpos, batch.lengths, batch.file_offsets)
            ext_offs.append(batch.file_offsets)
            ext_lens.append(batch.lengths)
        merged = merge_extents(ext_offs, ext_lens)
        return window, per_client, merged

    # -- the round schedule ----------------------------------------------------
    def rounds(self, buf: np.ndarray, *, write: bool):
        """Round indices in execution order, each after its boundary
        check: a rebalance restarts the count at zero; being declared
        suspect ends the schedule with my independent tail I/O."""
        r = 0
        while r < self.nrounds:
            if self.maybe_failover(r):
                self.replanned = True
                if self.i_am_suspect:
                    self.run_suspect_tail(buf, write=write)
                    return
                r = 0
                continue
            yield r
            r += 1

    @property
    def excluded(self) -> frozenset:
        return frozenset(self._dead | self._suspects | self._known_dead)

    # -- aggregator failover ------------------------------------------------
    def maybe_failover(self, r: int) -> bool:
        """Phase-boundary fault check, called before each round.

        ``r`` is the next round of the current epoch (== rounds
        completed since the last rebalance, so ``r * cb`` linear bytes
        of every domain are already flushed).  Detection needs no
        communication: both fault classes evaluated here are pure
        functions of the per-rank collective-call ordinal and a
        monotonic boundary counter, which every rank tracks
        identically:

        * ``agg_crash`` — permanent loss of an aggregator role;
        * ``rank_stall`` — a transient stall.  The stall itself always
          fires (the fault model does not read the hints); with the
          ``liveness`` hint armed, the stalled rank is additionally
          declared *suspect* and completed around — its aggregator
          realm merges into survivors, its already-exchanged access
          description is dropped from the aggregation, and its own
          remaining access becomes independent tail I/O
          (:meth:`run_suspect_tail`).

        Returns True when realms were rebalanced — the caller must
        restart its round counter at zero (``nrounds`` has been
        recomputed for the new domains), or, when ``i_am_suspect``,
        leave the round loop and run the tail."""
        inj = self._injector
        if inj is None:
            return False
        crash_on = inj.enabled("agg_crash")
        stall_on = inj.enabled("rank_stall")
        fail_stop_on = self._crash is not None
        if not crash_on and not stall_on and not fail_stop_on:
            return False
        env = self.env
        rank = env.comm.rank
        liv = self._liveness
        boundary = self._boundary
        self._boundary += 1

        stalls = inj.stalled_ranks(self.call_index, boundary) if stall_on else {}
        if rank in stalls:
            delay = stalls[rank]
            with env.ctx.trace("fault:stall", round=r):
                env.ctx.advance(delay)
            inj.note_stall(delay)
            if liv is not None:
                # Renew my own budget: the deadline guards against
                # waiting on *others*, not against having been slow.
                liv.begin_call(rank, env.ctx.now)

        dead = (
            inj.dead_aggregators(self.call_index, boundary)
            if crash_on
            else frozenset()
        )
        newly_dead = [a for a in self.aggs if a in dead and a not in self._dead]
        new_suspects: List[int] = []
        if stalls and liv is not None and liv.failover:
            new_suspects = sorted(
                s for s in stalls if s not in self._suspects and s not in dead
            )

        # Fail-stop crashes (docs/crash_recovery.md).  Detection is the
        # same pure plan evaluation as above; what follows differs per
        # role.  The *victim* records its death and dies at its site;
        # *survivors* run one epoch-agreement round, shrink the working
        # group, and re-carve the schedule without the corpses.
        crash_newly: List[int] = []
        if fail_stop_on:
            crashed = inj.crashed_ranks(self.call_index, boundary)
            crash_newly = sorted(c for c in crashed if c not in self._known_dead)
        reporter = 0
        if fail_stop_on and self._known_dead:
            # Once fail-stop deaths exist, "rank 0 reports" stops being
            # safe — the designated reporter is the first survivor.
            reporter = min(
                x for x in range(env.comm.size) if x not in self._known_dead
            )
        if crash_newly and rank in crash_newly:
            event = inj.crash_event_for(rank, self.call_index)
            site = event.site if event is not None else "boundary"
            if self._crash.mark_dead(rank, self.call_index, boundary):
                inj.note_crash()
            self._known_dead.add(rank)
            self.skip = frozenset(self.skip | {rank})
            if site == "boundary":
                raise RankCrashed(rank, site)
            # Die deeper in the round: keep walking the round
            # structure fully skipped (``dying``) until the site.
            self.crash_site = site
            return False
        if fail_stop_on and self._known_dead and rank == reporter:
            # Plan events whose every target is already dead fire into
            # the void; count them (satellite of docs/crash_recovery.md)
            # *before* folding this boundary's fresh deaths in.
            sup = inj.suppressed_for(
                frozenset(self._known_dead), self.call_index, boundary
            )
            if sup:
                inj.note_suppressed(sup)
        if crash_newly:
            proposal = frozenset(self._known_dead | set(crash_newly))
            with env.ctx.trace("crash:agree", epoch=boundary):
                self.group = agree_dead_set(env.comm, proposal, boundary)
            for c in crash_newly:
                if self._crash.mark_dead(c, self.call_index, boundary):
                    inj.note_crash()
            self._known_dead.update(crash_newly)
            reporter = self.group.first_alive()
            if rank == reporter:
                inj.note_agreement()
            quorum = env.hints["crash_quorum"]
            if self.group.size < quorum:
                if rank == reporter:
                    inj.note_aborted()
                raise CollectiveAborted(
                    boundary,
                    self.group.size,
                    quorum,
                    tuple(sorted(self._known_dead)),
                )
            # Survivors stop expecting the corpses' data and stop
            # exchanging with them.
            if self.agg_cursors is not None:
                for c in crash_newly:
                    self.agg_cursors[c] = None
            self.skip = frozenset(self._suspects | self._known_dead)
        crash_lost = [a for a in self.aggs if a in crash_newly]

        if not newly_dead and not new_suspects and not crash_lost:
            # Pure-client deaths leave the window geometry untouched:
            # survivors carry on at the same round, minus the corpses.
            return False
        if newly_dead and not env.hints["failover"]:
            raise AggregatorLost(newly_dead[0])
        with env.ctx.trace("tp:failover", round=r):
            lost_ranks = set(newly_dead) | set(new_suspects) | set(crash_lost)
            gone = (
                self._dead | set(dead) | self._suspects | lost_ranks
                | self._known_dead
            )
            survivors = [ai for ai, a in enumerate(self.aggs) if a not in gone]
            if not survivors:
                raise AggregatorLost(min(lost_ranks))
            consumed = r * self.cb
            # Everyone's remaining work is its linear tail; a lost
            # aggregator's tail is carved evenly across the survivors.
            # Every aggregator already holds every client's filetype cursor
            # (the metadata exchange is all-to-all-aggregators), so
            # adopting file ranges needs no new communication.
            tails = [d.slice_linear(consumed, d.total_bytes) for d in self.domains]
            if rank in new_suspects:
                # The union of these tails is exactly the un-flushed file
                # region; my remaining access inside it is mine to carry.
                self.i_am_suspect = True
                self._suspect_tails = list(tails)
            shares: List[List[RealmDomain]] = [[] for _ in self.aggs]
            for ai in survivors:
                shares[ai].append(tails[ai])
            nsurv = len(survivors)
            dead_set = set(newly_dead) | set(crash_lost)
            for ai, a in enumerate(self.aggs):
                if a not in lost_ranks:
                    continue
                tail = tails[ai]
                total = tail.total_bytes
                if env.comm.rank == reporter and a in dead_set:
                    inj.note_failover(a, total)
                chunk = -(-total // nsurv) if total else 0
                for k, si in enumerate(survivors):
                    shares[si].append(tail.slice_linear(k * chunk, (k + 1) * chunk))
            empty = RealmDomain(_EMPTY64, _EMPTY64)
            surv = set(survivors)
            self.domains = [
                RealmDomain.merge(shares[ai]) if ai in surv else empty
                for ai in range(len(self.aggs))
            ]
            self._dead.update(newly_dead)
            self._dead.update(crash_lost)
            for s in new_suspects:
                self._suspects.add(s)
                if liv is not None and liv.mark_suspect(s):
                    inj.note_suspect()
                # Survivors stop expecting the suspect's data: its access
                # description simply drops out of the aggregation.
                if self.agg_cursors is not None:
                    self.agg_cursors[s] = None
            self.skip = frozenset(self._suspects | self._known_dead)
            # Adopted intervals may precede a cursor's current position:
            # every monotonic scan restarts from the top.
            if self.client_cursors is not None:
                for cur in self.client_cursors:
                    cur.reset()
            if self.agg_cursors is not None:
                for cur in self.agg_cursors:
                    if cur is not None:
                        cur.reset()
            self.nrounds = max((d.nrounds(self.cb) for d in self.domains), default=0)
        return True

    # -- epoch commits ---------------------------------------------------------
    def after_round(self, r: int, rp) -> None:
        """Make write round ``r`` durable and cut its epoch commit record.

        Only runs with fail-stop crashes armed — the fault-free path
        pays nothing.  Durability first: each live aggregator flushes
        its client cache, so the round's bytes are on the server before
        any record claims them (journaled writes skip the flush — their
        durability point is the transaction commit, and their records
        stage inside the transaction until then).  Then one recorder —
        the first live aggregator — appends the record: the round's
        file intervals plus the ranks whose data entered the round.
        :meth:`Session.rejoin <repro.obs.session.Session.rejoin>`
        replays these records to rewrite only uncommitted bytes."""
        if self._crash is None:
            return
        env = self.env
        rank = env.comm.rank
        journaled = env.hints["journal_writes"]
        excluded = self._known_dead | self._suspects
        if not journaled and self.my_agg_index >= 0 and rank not in excluded:
            env.adio.retry.run(env.ctx, env.adio.local.sync)
        recorder = next((a for a in self.aggs if a not in excluded), None)
        if recorder != rank:
            return
        intervals: List[tuple] = []
        for d in self.domains:
            w = d.window(r, self.cb)
            if not w.empty:
                intervals.extend(w.intervals)
        if not intervals:
            return
        local = env.adio.local
        local.fs.journal_record_epoch(
            local.path,
            call_index=self.call_index,
            epoch=self._boundary - 1,
            participants=[c for c in range(env.comm.size) if c not in excluded],
            intervals=intervals,
            journaled=journaled,
        )

    # -- suspect tail I/O ----------------------------------------------------
    def run_suspect_tail(self, buf: np.ndarray, *, write: bool) -> None:
        """Independent I/O for my remaining access after being declared
        suspect.

        The collective completes around a suspect: aggregators dropped
        my access description, so the bytes they will no longer move
        are mine to carry through the independent layer (on the write
        path this runs inside the call's journal, so crash consistency
        is preserved).  The remaining file region is the union of every
        domain's un-flushed linear tail, frozen at the boundary where I
        was suspected."""
        env = self.env
        if self._suspect_tails is None or self.total_bytes == 0:
            return
        remaining = RealmDomain.merge(self._suspect_tails)
        cur = env.view.cursor(self.data_hi, self.data_lo)
        parts: List[SegmentBatch] = []
        pairs = 0
        tiles = 0
        with env.ctx.trace("tp:suspect-tail"):
            for lo, hi in zip(remaining.starts.tolist(), remaining.ends.tolist()):
                b = cur.intersect(int(lo), int(hi))
                pairs += b.pairs_evaluated
                tiles += b.tiles_skipped
                if not b.empty:
                    parts.append(b)
            env.ctx.charge(
                pairs * env.cost.cpu_per_flat_pair + tiles * env.cost.cpu_tile_skip
            )
            env.metrics.counter("coll.client.pairs").inc(pairs)
            env.metrics.counter("coll.client.tiles_skipped").inc(tiles)
            batch = concat_batches(parts)
            if batch.empty:
                return
            # File batch with *dense* data offsets: the strided layer
            # expects data_offsets to index the packed stream it is
            # handed, and gather/scatter produce exactly that stream.
            dense = np.zeros(batch.lengths.size, dtype=np.int64)
            np.cumsum(batch.lengths[:-1], out=dense[1:])
            fbatch = SegmentBatch(batch.file_offsets, batch.lengths.copy(), dense)
            membatch = mem_batch_for(
                self.memflat, batch.data_offsets - self.data_lo, batch.lengths
            )
            method = choose_method(env.hints, self.ft_extent, fbatch)
            env.metrics.counter(f"coll.flush.{method}").inc()
            total = int(batch.total_bytes)
            env.ctx.charge(total * env.cost.cpu_per_byte_touch)
            if write:
                env.adio.write_strided(fbatch, gather_segments(buf, membatch), method)
            else:
                data = env.adio.read_strided(fbatch, method)
                scatter_segments(buf, membatch, data[:total])


class _NullCursor:
    """Cursor stand-in for ranks with no data (histogram path)."""

    def intersect(self, lo: int, hi: int) -> SegmentBatch:
        return SegmentBatch.empty_batch()


class _LayeredIO(RoundIO):
    """The layered design (§5.1): the collective buffer is flushed to,
    or filled from, the file through the independent I/O layer, with a
    per-flush method choice (conditional data sieving et al.)."""

    def prepare(self, env: CollEnv, rp) -> Optional[np.ndarray]:
        if rp.window is None:
            return None
        return np.zeros(rp.window.total_bytes, dtype=np.uint8)

    def flush(self, env: CollEnv, rp, cbuf: np.ndarray) -> None:
        offs, lens = rp.merged
        if offs is None or offs.size == 0:
            return
        wbatch = SegmentBatch(offs, lens.copy(), rp.window.to_buffer(offs))
        method = choose_method(env.hints, self.ft_extent, wbatch)
        env.metrics.counter(f"coll.flush.{method}").inc()
        env.adio.write_strided(wbatch, cbuf, method)

    def fill(self, env: CollEnv, rp) -> np.ndarray:
        offs, lens = rp.merged
        cbuf = np.zeros(rp.window.total_bytes, dtype=np.uint8)
        if offs is None or offs.size == 0:
            return cbuf
        rbatch = SegmentBatch(offs, lens.copy(), rp.window.to_buffer(offs))
        method = choose_method(env.hints, self.ft_extent, rbatch)
        env.metrics.counter(f"coll.flush.{method}").inc()
        data = env.adio.read_strided(rbatch, method)
        cbuf[: data.size] = data
        return cbuf


def write_all_new(
    env: CollEnv,
    buf: np.ndarray,
    memflat: FlatType,
    total_bytes: int,
    data_lo: int = 0,
) -> None:
    """Collective write of ``total_bytes`` from ``buf`` (laid out by
    ``memflat``) through the rank's file view, starting at data-stream
    position ``data_lo`` (the individual file pointer)."""
    run_collective(
        env, "new", _Plan, _LayeredIO, buf, memflat, total_bytes, data_lo, write=True
    )


def read_all_new(
    env: CollEnv,
    buf: np.ndarray,
    memflat: FlatType,
    total_bytes: int,
    data_lo: int = 0,
) -> None:
    """Collective read into ``buf`` through the rank's file view,
    starting at data-stream position ``data_lo``."""
    run_collective(
        env, "new", _Plan, _LayeredIO, buf, memflat, total_bytes, data_lo, write=False
    )
