"""The shared file-system server model.

One :class:`SimFileSystem` instance is shared by every rank (it lives
in the simulator's ``shared`` dict or is captured by the rank mains).
Under the engine's single-running-thread invariant it needs no locking.

Cost model of one server call (a batch of contiguous extents):

* the calling client pays ``io_call_overhead``;
* extent locks are acquired per batch span (see
  :class:`~repro.fs.locks.ExtentLockManager`): an RPC when the grant is
  not already held, a revocation penalty per granule taken from another
  client, plus — for *coherent* victim caches — the victim's dirty
  pages in the range are flushed and invalidated;
* each extent is split over the file's OSTs by the stripe map; every
  OST charges ``ost_op_latency`` per request fragment plus
  ``ost_byte_time`` per byte plus ``page_rmw_penalty`` per partially
  covered page (writes only), serialized on that OST's availability —
  which is how OST contention between aggregators arises;
* the call completes when the slowest OST involved finishes.

**Storage fault domain** (``docs/storage_faults.md``): when a fault
plan carries OST events (``ost_crash`` / ``ost_slow`` / ``ost_flap``),
every server call runs a *plan phase* before touching any store byte:
per-OST circuit breakers fast-fail calls against OSTs that keep
failing, down OSTs raise a typed retryable
:class:`~repro.errors.OSTUnavailable`, ``ost_slow`` brownouts multiply
the affected OST's service time, and — with a ``queue_limit`` armed —
batches whose queueing delay would exceed it are shed with
:class:`~repro.errors.OSTOverloaded` instead of ever being booked.
Files opened with a ``replication_factor`` hint swap their store for a
:class:`~repro.fs.store.ReplicatedStore`: writes commit on a majority
write-quorum of live replicas (missed replicas are healed by
background re-replication once their OST recovers), reads fail over to
surviving fresh replicas.  The fault-free path runs none of this —
costs and contents stay bit-identical to the seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

import math

from repro.config import CostModel, DEFAULT_COST_MODEL
from repro.errors import (
    FileSystemError,
    IntegrityError,
    LockDeadlock,
    OSTOverloaded,
    OSTUnavailable,
)
from repro.faults.plan import FAULTS_KEY
from repro.fs.locks import ExtentLockManager, LockCharge
from repro.fs.ostfault import BreakerPolicy, CircuitBreaker
from repro.fs.schedule import OSTScheduler, make_scheduler
from repro.liveness import LIVENESS_KEY
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import BLOCK_TIMEOUT
from repro.fs.runs import ByteRuns
from repro.fs.store import PageStore, ReplicatedStore
from repro.sim.engine import RankContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.cache import PageCache

__all__ = ["SimFileSystem"]


class _Txn:
    """An open shadow-write transaction (the journal) for one file.

    Journaled writes land in a private shadow :class:`PageStore` at
    their final file offsets; ``valid`` records, per page, which byte
    runs the journal owns.  Commit publishes those runs into the main
    store atomically (no yield point between the first and last byte);
    abort — or simply never committing, which is what a crash looks
    like — discards them, leaving the main store at its pre-transaction
    image."""

    __slots__ = ("txid", "store", "valid", "epochs")

    def __init__(self, txid: int, page_size: int, integrity: bool) -> None:
        self.txid = txid
        self.store = PageStore(page_size, integrity=integrity)
        self.valid: Dict[int, ByteRuns] = {}
        #: Epoch commit records staged inside this transaction; they
        #: become durable (join the file's epoch log) only at commit.
        self.epochs: List[dict] = []

    def record(self, offset: int, nbytes: int) -> None:
        ps = self.store.page_size
        lo, hi = offset, offset + nbytes
        for pidx in range(lo // ps, -(-hi // ps)):
            s = max(lo, pidx * ps) - pidx * ps
            e = min(hi, (pidx + 1) * ps) - pidx * ps
            self.valid.setdefault(pidx, ByteRuns()).add(s, e)


class _File:
    __slots__ = ("store", "locks", "metrics", "txn", "epoch_log", "unflushed", "revoking")

    def __init__(
        self,
        page_size: int,
        lock_granularity: int,
        path: str,
        registry: MetricsRegistry,
    ) -> None:
        self.store = PageStore(page_size)
        self.locks = ExtentLockManager(lock_granularity)
        #: Path-keyed registry view: ``fs.*`` / ``lock.*`` /
        #: ``journal.*`` series stay distinct per file.
        self.metrics = registry.view(path)
        self.txn: Optional[_Txn] = None
        #: Committed per-epoch records (``docs/crash_recovery.md``):
        #: one entry per collective round whose bytes are durable, in
        #: commit order.  A rejoining rank replays this log to learn
        #: which of its rounds survived its crash.
        self.epoch_log: List[dict] = []
        #: Bytes newer than the store that are not on it yet, which
        #: every server read overlays (see ``_overlay_unflushed``):
        #: cache flushes in flight (token -> offsets, lengths, data) and
        #: open revocation windows (token -> (lo, hi, victim caches)
        #: whose dirty bytes there the requester has yet to flush).
        self.unflushed: Dict[object, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.revoking: Dict[object, List[Tuple[int, int, list]]] = {}


class SimFileSystem:
    """Striped object store shared by all simulated clients.

    ``registry`` is the metrics registry the per-file counters (and the
    client page caches) report into; by default each file system owns a
    private one, and :class:`~repro.obs.session.Session` passes its own
    so server-side series land next to the rest of the run's metrics."""

    def __init__(
        self,
        cost: CostModel = DEFAULT_COST_MODEL,
        lock_granularity: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        scheduler: "OSTScheduler | str | None" = None,
        *,
        storage_faults=None,
        queue_limit: Optional[float] = None,
        breaker: "BreakerPolicy | bool" = True,
    ) -> None:
        cost.validate()
        self.cost = cost
        self.lock_granularity = (
            lock_granularity if lock_granularity is not None else cost.page_size
        )
        self.registry = registry if registry is not None else MetricsRegistry()
        self._files: Dict[str, _File] = {}
        #: Per-OST serving discipline ("fifo" reproduces the seed's
        #: single-queue model exactly; "fair"/"wfq" arbitrate tenants).
        self.scheduler = make_scheduler(scheduler)
        #: client_id -> list of caches to notify on revocation.
        self._caches: Dict[Hashable, List["PageCache"]] = {}
        #: client_id -> tenant name, for scheduling and attribution.
        self._tenant_of: Dict[Hashable, str] = {}
        #: tenant name -> QoS weight (the ``tenant_priority`` hint).
        self._tenant_weight: Dict[str, float] = {}
        #: tenant name -> lazily-built mirror counters / histograms.
        self._tenant_mirrors: Dict[Optional[str], Dict[str, object]] = {}
        #: File-system-level fault injector (multi-tenant runs: OST
        #: faults belong to the shared storage, not any one tenant's
        #: plan — per-tenant overlays mask the shared FAULTS_KEY).
        self.storage_faults = storage_faults
        #: Admission-control bound on one batch fragment's queueing
        #: delay (virtual seconds; ``None`` = queues grow unboundedly,
        #: the seed's behaviour).
        self.queue_limit = queue_limit
        #: Per-OST circuit-breaker policy (``True`` = defaults,
        #: ``False`` = breakers disabled — every retry probes the OST).
        if breaker is True:
            self.breaker_policy: Optional[BreakerPolicy] = BreakerPolicy()
        elif breaker:
            self.breaker_policy = breaker
        else:
            self.breaker_policy = None
        self._breakers: Dict[int, CircuitBreaker] = {}
        #: Lazily-interned fs.ost.* counters: a fault-free session's
        #: registry stays exactly as the seed left it.
        self._ost_counter_cache: Dict[str, object] = {}

    # -- OST health / breakers ----------------------------------------------
    def _ost_counter(self, name: str):
        c = self._ost_counter_cache.get(name)
        if c is None:
            c = self._ost_counter_cache[name] = self.registry.counter(f"fs.ost.{name}")
        return c
    def _fault_views(self, ctx: Optional[RankContext]):
        """The distinct installed injectors carrying OST events."""
        views = []
        for inj in (
            self.storage_faults,
            ctx.shared.get(FAULTS_KEY) if ctx is not None else None,
        ):
            if inj is not None and inj not in views and inj.has_ost_faults():
                views.append(inj)
        return views

    def _breaker(self, ost: int) -> Optional[CircuitBreaker]:
        if self.breaker_policy is None:
            return None
        br = self._breakers.get(ost)
        if br is None:
            br = self._breakers[ost] = CircuitBreaker(self.breaker_policy)
        return br

    def _set_ost_gauges(self, views, now: float) -> None:
        for ost in range(self.cost.num_osts):
            state = max(inj.ost_state(ost, now) for inj in views)
            self.registry.gauge("fs.ost.health", ost).set(state)
            br = self._breakers.get(ost)
            if br is not None:
                self.registry.gauge("fs.ost.breaker_state", ost).set(br.state)

    def _ost_is_down(self, views, ost: int, now: float) -> bool:
        return any(inj.ost_down(ost, now) for inj in views)

    def _check_ost(self, views, ost: int, now: float, client_id, path: str, site: str) -> None:
        """Breaker-gated health check for one OST; raises typed errors.

        Fast-fails on an open breaker *without* touching the OST;
        otherwise a down OST counts one wasted hit (the probe that the
        breaker exists to avoid), feeds the breaker, and raises."""
        br = self._breaker(ost)
        if br is not None and not br.allow(now):
            self._ost_counter("breaker_fastfail").inc()
            raise OSTUnavailable(site, client_id, path, ost=ost, reason="breaker-open")
        if self._ost_is_down(views, ost, now):
            self._ost_counter("down_hits").inc()
            views[0].note_ost_rejection()
            if br is not None:
                br.record_failure(now)
                self.registry.gauge("fs.ost.breaker_state", ost).set(br.state)
            raise OSTUnavailable(site, client_id, path, ost=ost, reason="down")
        if br is not None and br.state != 0:
            br.record_success()
            self.registry.gauge("fs.ost.breaker_state", ost).set(br.state)

    def _up_set(self, views, now: float) -> Set[int]:
        """Live OSTs for replica placement: up *and* breaker-admitted."""
        up: Set[int] = set()
        for ost in range(self.cost.num_osts):
            br = self._breaker(ost)
            if br is not None and not br.allow(now):
                continue
            if self._ost_is_down(views, ost, now):
                if br is not None:
                    br.record_failure(now)
                continue
            if br is not None and br.state != 0:
                br.record_success()
            up.add(ost)
        return up

    def _check_admission(
        self, views, bytes_per, reqs_per, rmw_pages, now, client_id, path, site
    ) -> None:
        """Reject the batch when any fragment's queueing delay would
        exceed :attr:`queue_limit` — before any scheduler booking."""
        if self.queue_limit is None:
            return
        cost = self.cost
        tenant = self._tenant_of.get(client_id)
        weight = self._tenant_weight.get(tenant, 1.0)
        total_reqs = int(reqs_per.sum())
        for ost in range(cost.num_osts):
            if reqs_per[ost] == 0:
                continue
            share = rmw_pages * (reqs_per[ost] / total_reqs) if total_reqs else 0.0
            service = (
                int(reqs_per[ost]) * cost.ost_op_latency
                + int(bytes_per[ost]) * cost.ost_byte_time
                + share * cost.page_rmw_penalty
            )
            delay = self.scheduler.queue_delay(ost, tenant, weight, now, service)
            if delay > self.queue_limit:
                self._ost_counter("overloads").inc()
                if views:
                    views[0].note_ost_rejection()
                raise OSTOverloaded(
                    site,
                    client_id,
                    path,
                    ost=ost,
                    backlog=delay,
                    limit=self.queue_limit,
                )

    def _storage_plan(
        self,
        ctx: RankContext,
        client_id: Hashable,
        f: "_File",
        path: str,
        offs: np.ndarray,
        lens: np.ndarray,
        rmw: int,
        site: str,
        *,
        write: bool,
    ):
        """Pre-mutation storage checks for one server call.

        Runs health/breaker checks, write-quorum validation, background
        healing, and admission control — raising typed retryable errors
        before any store byte or scheduler booking is touched.  Returns
        ``(demand, up, views)``: ``demand`` is the per-OST
        ``(bytes, request-fragments)`` service demand for :meth:`_serve`
        (``None`` = derive from the stripe map, the seed's path), ``up``
        the live-OST set for a replicated store (``None`` for plain
        stores).  The fault-free unreplicated path returns immediately
        with no state touched."""
        views = self._fault_views(ctx)
        store = f.store
        replicated = isinstance(store, ReplicatedStore)
        if (
            not views
            and not self._breakers
            and self.queue_limit is None
            and not replicated
        ):
            return None, None, views
        now = ctx.now
        if views:
            self._set_ost_gauges(views, now)
        if not replicated:
            bytes_per, reqs_per = self._split_over_osts(offs, lens)
            if views or self._breakers:
                for ost in range(self.cost.num_osts):
                    if reqs_per[ost]:
                        self._check_ost(views, ost, now, client_id, path, site)
            self._check_admission(
                views, bytes_per, reqs_per, rmw, now, client_id, path, site
            )
            return (bytes_per, reqs_per), None, views
        if views or self._breakers:
            up = self._up_set(views, now)
        else:
            up = set(range(self.cost.num_osts))
        self._heal(store, up)
        if not write:
            # Reads only need one live fresh replica per piece; the
            # service demand depends on which replica actually serves
            # and is built by the caller from the store's report.
            for o, l in zip(offs.tolist(), lens.tolist()):
                for pos, chunk, osts in store._pieces(int(o), int(l)):
                    if store.fresh_replicas(pos, chunk, up):
                        continue
                    self._ost_counter("down_hits").inc()
                    if views:
                        views[0].note_ost_rejection()
                    bad = next((x for x in osts if x not in up), osts[0])
                    raise OSTUnavailable(site, client_id, path, ost=bad, reason="down")
            return None, up, views
        n_ost = self.cost.num_osts
        bytes_per = np.zeros(n_ost, dtype=np.int64)
        reqs_per = np.zeros(n_ost, dtype=np.int64)
        quorum = store.quorum
        for o, l in zip(offs.tolist(), lens.tolist()):
            for pos, chunk, osts in store._pieces(int(o), int(l)):
                live = [x for x in osts if x in up]
                if len(live) < quorum:
                    self._ost_counter("quorum_failures").inc()
                    if views:
                        views[0].note_ost_quorum_failure()
                    missing = next(x for x in osts if x not in up)
                    raise OSTUnavailable(
                        site, client_id, path, ost=missing, reason="quorum"
                    )
                for x in live:
                    bytes_per[x] += chunk
                    reqs_per[x] += 1
        self._check_admission(
            views, bytes_per, reqs_per, rmw, now, client_id, path, site
        )
        return (bytes_per, reqs_per), up, views

    # -- namespace ---------------------------------------------------------
    def ensure_file(self, path: str) -> None:
        if path not in self._files:
            self._files[path] = _File(
                self.cost.page_size, self.lock_granularity, path, self.registry
            )

    def exists(self, path: str) -> bool:
        return path in self._files

    def _file(self, path: str) -> _File:
        f = self._files.get(path)
        if f is None:
            raise FileSystemError(f"no such file: {path!r}")
        return f

    def file_size(self, path: str) -> int:
        return self._file(path).store.size

    def unflushed(self, path: str) -> Dict[object, tuple]:
        """The file's in-flight cache flushes (token -> offsets,
        lengths, data): a client cache registers a writeback here from
        the moment it takes the bytes out of its dirty set until the
        server call returns, so concurrent server reads see them."""
        return self._file(path).unflushed

    def paths(self) -> List[str]:
        """Every file in the namespace (fsck's iteration order)."""
        return sorted(self._files)

    def page_store(self, path: str) -> "PageStore | ReplicatedStore":
        """Direct access to a file's page store (fsck, tests)."""
        return self._file(path).store

    def enable_integrity(self, path: str) -> None:
        """Arm the CRC32 page sidecar for ``path`` (idempotent)."""
        self.ensure_file(path)
        self._file(path).store.enable_integrity()

    def enable_replication(self, path: str, factor: int) -> None:
        """Swap ``path``'s store for a :class:`ReplicatedStore` with
        ``factor`` replicas per stripe (the ``replication_factor``
        hint).  Idempotent for the same factor; existing contents are
        migrated.  ``factor=1`` is a no-op (the plain store *is*
        1-way replication)."""
        if factor <= 1:
            return
        self.ensure_file(path)
        f = self._file(path)
        store = f.store
        if isinstance(store, ReplicatedStore):
            if store.factor != factor:
                raise FileSystemError(
                    f"{path!r} already replicated with factor {store.factor}, "
                    f"cannot re-open with {factor}"
                )
            return
        cost = self.cost
        repl = ReplicatedStore(
            cost.page_size,
            cost.stripe_size,
            cost.num_osts,
            factor,
            integrity=store.integrity,
        )
        ps = cost.page_size
        for idx in sorted(store._pages):
            repl.write(idx * ps, store._pages[idx])
        repl.size = store.size
        f.store = repl

    def replication_of(self, path: str) -> int:
        """The file's replication factor (1 = unreplicated)."""
        store = self._file(path).store
        return store.factor if isinstance(store, ReplicatedStore) else 1

    def rereplicate(self, path: str, *, now: float = 0.0, faults=None) -> int:
        """Admin re-replication pass: rebuild stale replicas on OSTs
        that are up at ``now`` (``repro fsck``'s healing hook; the same
        healing also runs opportunistically before every server call on
        a replicated file).  Returns bytes healed."""
        f = self._file(path)
        if not isinstance(f.store, ReplicatedStore):
            return 0
        views = [
            inj
            for inj in (faults, self.storage_faults)
            if inj is not None and inj.has_ost_faults()
        ]
        up = {
            ost
            for ost in range(self.cost.num_osts)
            if not self._ost_is_down(views, ost, now)
        }
        healed = f.store.rereplicate(up)
        if healed:
            self._ost_counter("rereplicated_bytes").inc(healed)
        return healed

    def _heal(self, store: ReplicatedStore, up: Set[int]) -> None:
        """Opportunistic background re-replication (no client cost:
        the rebuild daemon is not on the caller's critical path)."""
        if store.stale_bytes():
            healed = store.rereplicate(up)
            if healed:
                self._ost_counter("rereplicated_bytes").inc(healed)

    def raw_bytes(self, path: str, offset: int, nbytes: int) -> np.ndarray:
        """Server-side contents, for verification only (no cost).

        Deliberately unverified: oracles compare these bytes against
        expectations even when pages are known-corrupt."""
        return self._file(path).store.read(offset, nbytes, verify=False)

    def raw_write(self, path: str, offset: int, data: np.ndarray) -> None:
        """Install contents directly, for test setup only (no cost)."""
        self.ensure_file(path)
        self._file(path).store.write(offset, data)

    def register_cache(self, client_id: Hashable, cache: "PageCache") -> None:
        self._caches.setdefault(client_id, []).append(cache)

    # -- tenancy -----------------------------------------------------------
    def register_tenant(
        self, client_id: Hashable, tenant: str, weight: float = 1.0
    ) -> None:
        """Attribute ``client_id``'s server traffic to ``tenant``.

        ``weight`` feeds the weighted OST schedulers (the
        ``tenant_priority`` hint); registration also arms the per-tenant
        ``tenant.<name>.fs.*`` / ``tenant.<name>.lock.*`` mirror
        counters, whose per-tenant totals sum to the shared globals
        (the conservation invariant the tenancy tests check)."""
        if weight <= 0:
            raise FileSystemError(f"tenant weight must be positive, got {weight}")
        self._tenant_of[client_id] = str(tenant)
        self._tenant_weight[str(tenant)] = float(weight)

    def tenant_of(self, client_id: Hashable) -> Optional[str]:
        """The registered tenant of a client, or ``None``."""
        return self._tenant_of.get(client_id)

    def tenants(self) -> List[str]:
        """Registered tenant names, sorted."""
        return sorted(self._tenant_weight)

    def _tenant_mirror(self, tenant: Optional[str]) -> Dict[str, object]:
        """Lazily-built per-tenant instruments (mirrors + queue waits)."""
        m = self._tenant_mirrors.get(tenant)
        if m is None:
            m = {
                "queue_wait": self.registry.histogram(
                    "fs.ost.queue_wait_seconds", tenant
                )
            }
            if tenant is not None:
                view = self.registry.view(prefix=f"tenant.{tenant}.")
                for name in (
                    "fs.bytes.written",
                    "fs.bytes.read",
                    "fs.server.writes",
                    "fs.server.reads",
                    "fs.rmw.pages",
                    "lock.rpcs",
                    "lock.revocations",
                ):
                    m[name] = view.counter(name)
            self._tenant_mirrors[tenant] = m
        return m

    def _mirror_inc(self, client_id: Hashable, name: str, n: int) -> None:
        """Bump a tenant mirror counter (no-op for untenanted clients)."""
        tenant = self._tenant_of.get(client_id)
        if tenant is not None and n:
            self._tenant_mirror(tenant)[name].inc(n)

    # -- fault hooks ------------------------------------------------------
    @staticmethod
    def _maybe_io_fault(ctx: RankContext, client_id: Hashable, path: str, site: str) -> None:
        """Raise an injected :class:`~repro.errors.TransientIOError`
        when a fault plan says this server call fails.  The client has
        already paid the call overhead — a failed call costs real time,
        which is what makes retry storms expensive."""
        faults = ctx.shared.get(FAULTS_KEY)
        if faults is not None:
            faults.io_fault(client_id, path, site, ctx.now)

    # -- cost helpers ---------------------------------------------------------
    def _charge_locks(
        self,
        ctx: RankContext,
        f: _File,
        client_id: Hashable,
        offsets: np.ndarray,
        lengths: np.ndarray,
        path: str,
    ) -> None:
        """Acquire extent locks for a batch, one acquisition per merged
        contiguous run (span-locking the whole batch would over-lock
        wildly for sparse batches, e.g. a cyclic realm's flush)."""
        g = f.locks.granularity
        if offsets.size > 1 and not (offsets[1:] >= offsets[:-1]).all():
            order = np.argsort(offsets, kind="stable")
            offsets = offsets[order]
            lengths = lengths[order]
        faults = ctx.shared.get(FAULTS_KEY)
        runs: list[tuple[int, int]] = []
        run_lo = run_hi = None
        for o, l in zip(offsets.tolist(), lengths.tolist()):
            lo, hi = o, o + l
            if run_lo is None:
                run_lo, run_hi = lo, hi
            elif lo <= run_hi + g - 1:  # same or adjacent granule: merge
                run_hi = max(run_hi, hi)
            else:
                runs.append((run_lo, run_hi))
                run_lo, run_hi = lo, hi
        if run_lo is not None:
            runs.append((run_lo, run_hi))
        charges: list[LockCharge] = []
        # Victim caches must flush and drop their pages in each revoked
        # range (write-through caches hold no dirty bytes but may hold
        # pages the requester is about to change).  The lock table
        # hands a granule over at once, while the victim's dirty bytes
        # reach the store only when the callbacks below run; until then
        # every server read overlays them — a third client may take the
        # granule from us in between and would otherwise cache a stale
        # page.
        revoked: List[Tuple[int, int, list]] = []
        token = object()
        try:
            for lo, hi in runs:
                # A conflicting *pinned* granule (lock_hold fault: the
                # holder's callback thread is wedged) cannot be revoked
                # — wait for recovery, lease reclaim, or deadlock
                # breaking.
                if f.locks.pinned:
                    self._await_pins(ctx, f, client_id, lo, hi, path)
                charge = f.locks.acquire(client_id, lo, hi, faults=faults, now=ctx.now)
                charges.append(charge)
                for victim, r_lo, r_hi in charge.revoked_ranges:
                    caches = [
                        c for c in self._caches.get(victim, ())
                        if c.path == path and c.mode in ("coherent", "writethrough")
                    ]
                    if caches:
                        revoked.append((r_lo, r_hi, caches))
                        f.revoking[token] = revoked
            if faults is not None and runs and faults.enabled("lock_hold"):
                hold = faults.lock_hold_seconds(client_id, ctx.now)
                if hold > 0.0:
                    for lo, hi in runs:
                        f.locks.pin_range(client_id, lo, hi, ctx.now, ctx.now + hold)
            rpcs = sum(c.rpcs for c in charges)
            granules = sum(c.revoked_granules for c in charges)
            f.metrics.counter("lock.rpcs").inc(rpcs)
            f.metrics.counter("lock.revocations").inc(granules)
            self._mirror_inc(client_id, "lock.rpcs", rpcs)
            self._mirror_inc(client_id, "lock.revocations", granules)
            ctx.charge(rpcs * self.cost.lock_rpc + granules * self.cost.lock_revoke)
            # The requester waits for the victims, so its clock pays.
            for r_lo, r_hi, caches in revoked:
                for cache in caches:
                    flushed = cache.flush_and_invalidate_range(ctx, r_lo, r_hi)
                    f.metrics.counter("lock.revoke.flush_pages").inc(flushed)
        finally:
            f.revoking.pop(token, None)

    @staticmethod
    def _overlay_unflushed(f: _File, offset: int, out: np.ndarray) -> None:
        """Patch bytes newer than the store over a store read of
        ``out.size`` bytes at ``offset``: in-flight cache flushes, then
        revoked-but-unflushed dirty bytes of coherent victims."""
        hi = offset + int(out.size)
        for offs, lens, data in f.unflushed.values():
            pos = 0
            for o, l in zip(offs.tolist(), lens.tolist()):
                s, e = max(o, offset), min(o + l, hi)
                if s < e:
                    out[s - offset : e - offset] = data[pos + s - o : pos + e - o]
                pos += l
        for windows in f.revoking.values():
            for w_lo, w_hi, victims in windows:
                s, e = max(w_lo, offset), min(w_hi, hi)
                if s < e:
                    for cache in victims:
                        cache.overlay_dirty(s, e, out, offset)

    def _await_pins(
        self,
        ctx: RankContext,
        f: _File,
        client_id: Hashable,
        lo: int,
        hi: int,
        path: str,
    ) -> None:
        """Block (virtual time) until no conflicting pin covers [lo, hi).

        Three exits per conflicting pin: the holder releases early (we
        wake at its release time), the pin expires or the liveness
        lease reclaims it (we wake at that instant and clear it), or a
        waits-for cycle is found — we are the victim, drop our own pins
        so the rest of the cycle can progress, and raise a typed,
        retryable :class:`~repro.errors.LockDeadlock`."""
        locks = f.locks
        faults = ctx.shared.get(FAULTS_KEY)
        liv = ctx.shared.get(LIVENESS_KEY)
        lease = (
            liv.config.lock_lease
            if liv is not None and liv.config.lock_lease > 0.0
            else math.inf
        )
        while True:
            pin = locks.blocking_pin(client_id, lo, hi)
            if pin is None:
                locks.clear_wait(client_id)
                return
            holder, t_pinned, expires = pin
            locks.note_wait(client_id, holder)
            cycle = locks.find_cycle(client_id)
            if cycle is not None:
                locks.release_pins(client_id, ctx.now)
                locks.clear_wait(client_id)
                if faults is not None:
                    faults.note_lock_deadlock()
                raise LockDeadlock(client_id, cycle, path)
            reclaim_at = min(expires, t_pinned + lease)
            woke = ctx.block(
                lambda: (
                    None
                    if locks.blocking_pin(client_id, lo, hi) is not None
                    else locks.last_pin_release
                ),
                reason=f"lock-pin wait [{lo}, {hi}) on {path!r}",
                timeout_at=reclaim_at,
            )
            if woke is BLOCK_TIMEOUT:
                ctx.charge_to(reclaim_at)
                reclaimed = locks.reclaim_pins(lo, hi, ctx.now, lease)
                if reclaimed and faults is not None:
                    faults.note_lock_reclaim(reclaimed)
            else:
                # Holder unlocked early: our wait ends at its release.
                ctx.charge_to(float(woke))

    def _split_over_osts(
        self, offsets: np.ndarray, lengths: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(bytes_per_ost, request_fragments_per_ost) for a batch."""
        cost = self.cost
        n_ost = cost.num_osts
        stripe = cost.stripe_size
        bytes_per = np.zeros(n_ost, dtype=np.int64)
        reqs_per = np.zeros(n_ost, dtype=np.int64)
        offs = offsets.astype(np.int64).copy()
        lens = lengths.astype(np.int64).copy()
        # Peel one stripe-bounded piece off every extent per iteration;
        # iterations = max stripes crossed by any extent.
        while True:
            active = lens > 0
            if not active.any():
                break
            o = offs[active]
            l = lens[active]
            piece = np.minimum(l, stripe - (o % stripe))
            ost = (o // stripe) % n_ost
            np.add.at(bytes_per, ost, piece)
            np.add.at(reqs_per, ost, 1)
            offs[active] += piece
            lens[active] -= piece
        return bytes_per, reqs_per

    @staticmethod
    def _partial_pages(offsets: np.ndarray, lengths: np.ndarray, page: int) -> int:
        """Pages touched but not fully covered, per extent (RMW count)."""
        if offsets.size == 0:
            return 0
        a = offsets.astype(np.int64)
        b = a + lengths.astype(np.int64)
        first_partial = (a % page) != 0
        last_partial = (b % page) != 0
        partial = first_partial.astype(np.int64) + last_partial.astype(np.int64)
        same_page = (a // page) == ((b - 1) // page)
        partial[same_page] = np.minimum(partial[same_page], 1)
        return int(partial.sum())

    def _serve(
        self,
        ctx: RankContext,
        client_id: Hashable,
        offsets: np.ndarray,
        lengths: np.ndarray,
        rmw_pages: int,
        *,
        demand: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        views=None,
    ) -> None:
        """Charge OST service for a batch, honoring per-OST queues.

        The queueing discipline itself lives in :attr:`scheduler`
        (FIFO by default; fair-share/weighted lanes for multi-tenant
        runs) — this method computes service demands, books them, and
        records each fragment's queueing delay against the client's
        tenant.  ``demand`` overrides the stripe-map split (replicated
        stores: every live replica does the write work, one replica the
        read work); ``views`` carries the OST-faulted injectors whose
        ``ost_slow`` brownouts inflate the affected OSTs' service."""
        cost = self.cost
        faults = ctx.shared.get(FAULTS_KEY)
        if views is None:
            views = self._fault_views(ctx)
        if demand is not None:
            bytes_per, reqs_per = demand
        else:
            bytes_per, reqs_per = self._split_over_osts(offsets, lengths)
        # Spread the RMW penalty over the OSTs proportionally to requests.
        total_reqs = int(reqs_per.sum())
        arrive = ctx.now
        finish = arrive
        tenant = self._tenant_of.get(client_id)
        weight = self._tenant_weight.get(tenant, 1.0)
        wait_hist = self._tenant_mirror(tenant)["queue_wait"]
        for ost in range(cost.num_osts):
            if reqs_per[ost] == 0:
                continue
            share = rmw_pages * (reqs_per[ost] / total_reqs) if total_reqs else 0.0
            service = (
                int(reqs_per[ost]) * cost.ost_op_latency
                + int(bytes_per[ost]) * cost.ost_byte_time
                + share * cost.page_rmw_penalty
            )
            if faults is not None:
                service += faults.disk_penalty(ost, arrive, service)
            if views:
                factor = 1.0
                for inj in views:
                    factor *= inj.ost_service_factor(ost, arrive)
                if factor > 1.0:
                    extra = service * (factor - 1.0)
                    service += extra
                    views[0].note_ost_slow(extra)
            done = self.scheduler.request(ost, tenant, weight, arrive, service)
            wait_hist.record(max(0.0, done - arrive - service))
            finish = max(finish, done)
        ctx.charge_to(finish)
        ctx.yield_now()

    @staticmethod
    def _as_batch(
        offsets: Iterable[int] | np.ndarray, lengths: Iterable[int] | np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        offs = np.asarray(offsets, dtype=np.int64).ravel()
        lens = np.asarray(lengths, dtype=np.int64).ravel()
        if offs.shape != lens.shape:
            raise FileSystemError("offsets and lengths must have the same shape")
        if offs.size and (offs < 0).any() or (lens < 0).any():
            raise FileSystemError("offsets and lengths must be non-negative")
        keep = lens > 0
        if not keep.all():
            offs, lens = offs[keep], lens[keep]
        return offs, lens

    def acquire_extents(
        self,
        ctx: RankContext,
        client_id: Hashable,
        path: str,
        offsets: Iterable[int] | np.ndarray,
        lengths: Iterable[int] | np.ndarray,
    ) -> None:
        """Take the extent locks for a byte range without moving data.

        Coherent client caches call this before dirtying bytes: holding
        the lock while caching dirty data is what lets a later conflicting
        access find (and flush) that data via revocation — without it, a
        write-around cache would hide bytes from other clients.

        Acquisition verifies and retries: revoking a victim's dirty
        pages yields the processor, during which another client may
        steal the very granules being acquired.  The caller must
        actually hold them when this returns (its next step is dirtying
        bytes under their protection)."""
        f = self._file(path)
        offs, lens = self._as_batch(offsets, lengths)
        if offs.size == 0:
            return
        lo_all = offs.min()
        hi_all = int((offs + lens).max())
        with ctx.trace("fs:lock", path=path):
            for _ in range(64):
                self._charge_locks(ctx, f, client_id, offs, lens, path)
                held = all(
                    f.locks.holds(client_id, int(o), int(o + l))
                    for o, l in zip(offs.tolist(), lens.tolist())
                )
                if held:
                    return
        raise FileSystemError(
            f"extent lock livelock on {path!r} [{lo_all}, {hi_all}) for client {client_id}"
        )

    # -- server entry points -----------------------------------------------------
    def server_write(
        self,
        ctx: RankContext,
        client_id: Hashable,
        path: str,
        offsets: Iterable[int] | np.ndarray,
        lengths: Iterable[int] | np.ndarray,
        data: np.ndarray,
        *,
        acquire_locks: bool = True,
        journaled: bool = False,
    ) -> None:
        """One write call carrying a batch of contiguous extents.

        ``data`` holds the extents' bytes concatenated in batch order.
        With ``journaled=True`` the bytes land in the file's open shadow
        transaction instead of the main store (same locks, same costs,
        same fault exposure); they become visible only at
        :meth:`txn_commit`.
        """
        f = self._file(path)
        offs, lens = self._as_batch(offsets, lengths)
        data = np.asarray(data, dtype=np.uint8)
        total = int(lens.sum())
        if data.size != total:
            raise FileSystemError(
                f"server_write: data has {data.size} bytes, extents total {total}"
            )
        ctx.charge(self.cost.io_call_overhead)
        if offs.size == 0:
            return
        # Transient faults fire before the store is touched, so a
        # failed call leaves no partial contents and a retry is safe.
        self._maybe_io_fault(ctx, client_id, path, "server_write")
        if acquire_locks:
            self._charge_locks(ctx, f, client_id, offs, lens, path)
        rmw = self._partial_pages(offs, lens, self.cost.page_size)
        # Storage plan phase: typed health/quorum/admission failures
        # fire here, before any byte mutates — a retried call starts
        # from an untouched store.
        demand, up, views = self._storage_plan(
            ctx, client_id, f, path, offs, lens, rmw, "server_write", write=True
        )
        f.metrics.counter("fs.rmw.pages").inc(rmw)
        f.metrics.counter("fs.server.writes").inc()
        f.metrics.counter("fs.bytes.written").inc(total)
        self._mirror_inc(client_id, "fs.rmw.pages", rmw)
        self._mirror_inc(client_id, "fs.server.writes", 1)
        self._mirror_inc(client_id, "fs.bytes.written", total)
        target = f.store
        txn = None
        if journaled:
            txn = f.txn
            if txn is None:
                raise FileSystemError(
                    f"journaled write on {path!r} without an open transaction"
                )
            target = txn.store
            f.metrics.counter("journal.writes").inc()
            # Journaled bytes go to the (plain) shadow store; the live
            # set matters at commit time, when they publish.
            demand = None
        pos = 0
        for o, l in zip(offs.tolist(), lens.tolist()):
            if txn is None and isinstance(target, ReplicatedStore):
                target.write(o, data[pos : pos + l], up=up)
            else:
                target.write(o, data[pos : pos + l])
            if txn is not None:
                txn.record(o, l)
            pos += l
        # Silent-corruption injection: bits flip in whichever store the
        # bytes landed in, after the checksum sidecar was updated.
        faults = ctx.shared.get(FAULTS_KEY)
        if faults is not None and faults.enabled("bit_flip_page"):
            faults.corrupt_stored(
                target, self._touched_pages(offs, lens), client_id, ctx.now
            )
        self._serve(ctx, client_id, offs, lens, rmw, demand=demand, views=views)

    def _touched_pages(self, offs: np.ndarray, lens: np.ndarray) -> List[int]:
        """Sorted page indices covered by a batch (corruption targets)."""
        ps = self.cost.page_size
        touched: set[int] = set()
        for o, l in zip(offs.tolist(), lens.tolist()):
            touched.update(range(o // ps, (o + l - 1) // ps + 1))
        return sorted(touched)

    def server_read(
        self,
        ctx: RankContext,
        client_id: Hashable,
        path: str,
        offsets: Iterable[int] | np.ndarray,
        lengths: Iterable[int] | np.ndarray,
        *,
        acquire_locks: bool = True,
        journaled: bool = False,
    ) -> np.ndarray:
        """One read call for a batch of extents; returns concatenated bytes.

        With ``journaled=True`` and an open transaction, bytes the
        journal owns overlay the main store (read-your-writes inside
        the transaction — data sieving's pre-reads need it)."""
        f = self._file(path)
        offs, lens = self._as_batch(offsets, lengths)
        ctx.charge(self.cost.io_call_overhead)
        total = int(lens.sum())
        out = np.empty(total, dtype=np.uint8)
        if offs.size == 0:
            return out
        self._maybe_io_fault(ctx, client_id, path, "server_read")
        if acquire_locks:
            self._charge_locks(ctx, f, client_id, offs, lens, path)
        demand, up, views = self._storage_plan(
            ctx, client_id, f, path, offs, lens, 0, "server_read", write=False
        )
        f.metrics.counter("fs.server.reads").inc()
        f.metrics.counter("fs.bytes.read").inc(total)
        self._mirror_inc(client_id, "fs.server.reads", 1)
        self._mirror_inc(client_id, "fs.bytes.read", total)
        replicated = isinstance(f.store, ReplicatedStore)
        served: List[Tuple[int, int]] = []
        failovers: List[int] = []
        pos = 0
        try:
            for o, l in zip(offs.tolist(), lens.tolist()):
                if replicated:
                    piece = f.store.read(
                        o, l, up=up, served=served, failovers=failovers
                    )
                else:
                    piece = f.store.read(o, l)
                if f.unflushed or f.revoking:
                    self._overlay_unflushed(f, o, piece)
                if journaled and f.txn is not None:
                    self._overlay_txn(f.txn, o, piece)
                out[pos : pos + l] = piece
                pos += l
        except IntegrityError as exc:
            self._note_page_corruption(ctx)
            raise IntegrityError(exc.site, exc.page_index, path) from exc
        if failovers:
            self._ost_counter("failovers").inc(len(failovers))
            if views:
                for _ in failovers:
                    views[0].note_ost_failover()
        if replicated:
            # Service demand is whatever replicas actually served.
            bytes_per = np.zeros(self.cost.num_osts, dtype=np.int64)
            reqs_per = np.zeros(self.cost.num_osts, dtype=np.int64)
            for ost, chunk in served:
                bytes_per[ost] += chunk
                reqs_per[ost] += 1
            demand = (bytes_per, reqs_per)
            self._check_admission(
                views, bytes_per, reqs_per, 0, ctx.now, client_id, path, "server_read"
            )
        self._serve(ctx, client_id, offs, lens, 0, demand=demand, views=views)
        return out

    @staticmethod
    def _overlay_txn(txn: _Txn, offset: int, out: np.ndarray) -> None:
        """Patch journal-owned byte runs over a main-store read."""
        ps = txn.store.page_size
        lo, hi = offset, offset + int(out.size)
        for pidx in range(lo // ps, -(-hi // ps)):
            runs = txn.valid.get(pidx)
            if runs is None:
                continue
            base = pidx * ps
            for s, e in runs:
                g_lo, g_hi = max(lo, base + s), min(hi, base + e)
                if g_hi > g_lo:
                    out[g_lo - lo : g_hi - lo] = txn.store.read(g_lo, g_hi - g_lo)

    @staticmethod
    def _note_page_corruption(ctx: RankContext) -> None:
        faults = ctx.shared.get(FAULTS_KEY)
        if faults is not None:
            faults.note_page_corruption_detected()

    # -- epoch commit records (resumable collectives) -----------------------
    def journal_record_epoch(
        self,
        path: str,
        *,
        call_index: int,
        epoch: int,
        participants: Iterable[int],
        intervals: Iterable[Tuple[int, int]],
        journaled: bool = False,
    ) -> None:
        """Record one completed collective round (an *epoch*) for ``path``.

        ``participants`` are the world ranks whose data entered this
        round's exchange (a rank that crashed before the round is not a
        participant — its bytes for the round never reached an
        aggregator).  ``intervals`` are the file byte ranges the round's
        flush covered, union over all aggregator windows.

        Un-journaled collectives append straight to the durable epoch
        log: the round's bytes hit the main store before the record is
        cut, so the record never claims more than the store holds.
        With ``journaled=True`` the record is staged inside the open
        shadow transaction and becomes durable only when the
        transaction commits — uncommitted journal bytes and their epoch
        records vanish together."""
        f = self._file(path)
        record = {
            "call_index": int(call_index),
            "epoch": int(epoch),
            "participants": tuple(sorted(int(r) for r in participants)),
            "intervals": tuple(
                (int(lo), int(hi)) for lo, hi in intervals if int(hi) > int(lo)
            ),
        }
        if journaled and f.txn is not None:
            f.txn.epochs.append(record)
        else:
            self._publish_epoch(f, record)

    def _publish_epoch(self, f: _File, record: dict) -> None:
        rec = dict(record)
        rec["seq"] = len(f.epoch_log)
        f.epoch_log.append(rec)
        f.metrics.counter("journal.epochs").inc()

    def journal_replay(self, path: str) -> List[dict]:
        """The committed epoch records for ``path``, in commit order.

        This is crash recovery's first step: a rejoining rank scans the
        replayed records for the rounds it participated in, intersects
        their intervals with its own access, and re-writes only what no
        committed epoch covers (:func:`repro.core.resume.resume_write`).
        Returns copies — the log itself is append-only."""
        return [dict(r) for r in self._file(path).epoch_log]

    # -- shadow-write transactions (the journal) -----------------------------
    def txn_begin(self, path: str, txid: int) -> None:
        """Open (or join) shadow transaction ``txid`` on ``path``.

        Collective callers all pass the same txid, so the first one
        creates the journal and the rest join it.  A *different* txid
        found open means the previous transaction never committed — a
        crashed collective call — and is discarded, which is exactly
        the crash-recovery contract: uncommitted journal bytes never
        reach the file."""
        f = self._file(path)
        if f.txn is not None and f.txn.txid != txid:
            f.txn = None
            f.metrics.counter("journal.aborts").inc()
        if f.txn is None:
            f.txn = _Txn(txid, self.cost.page_size, f.store.integrity)

    def txn_active(self, path: str) -> bool:
        return self._file(path).txn is not None

    def txn_abort(self, path: str) -> None:
        """Discard the open transaction (its bytes were never visible)."""
        f = self._file(path)
        if f.txn is not None:
            f.txn = None
            f.metrics.counter("journal.aborts").inc()

    def txn_commit(self, ctx: RankContext, client_id: Hashable, path: str) -> int:
        """Atomically publish the open transaction into the main store.

        The injected-fault point fires *before* any byte is applied and
        the apply loop has no yield point, so the commit is all-or-
        nothing: a retried commit (transient fault) re-applies from an
        untouched journal, and a crash before commit leaves the file at
        its pre-transaction image.  Shadow pages are verified against
        their sidecars as they are read, so corruption that hit the
        journal itself surfaces here as a typed
        :class:`~repro.errors.IntegrityError` instead of being
        laundered into freshly-checksummed file pages.  Returns the
        number of pages published."""
        f = self._file(path)
        ctx.charge(self.cost.io_call_overhead)
        txn = f.txn
        if txn is None:
            return 0
        with ctx.trace("fs:journal_commit", path=path):
            self._maybe_io_fault(ctx, client_id, path, "txn_commit")
            pages = sorted(txn.valid)
            # Health/quorum gate before any byte publishes: an outage
            # mid-commit yields a typed retryable failure with the
            # journal intact, never a torn publish.
            up = self._txn_commit_gate(ctx, client_id, f, path, pages)
            ctx.charge(len(pages) * self.cost.journal_commit_page)
            ps = self.cost.page_size
            replicated = isinstance(f.store, ReplicatedStore)
            for pidx in pages:
                base = pidx * ps
                for s, e in txn.valid[pidx]:
                    try:
                        good = txn.store.read(base + s, e - s)
                    except IntegrityError as exc:
                        self._note_page_corruption(ctx)
                        raise IntegrityError("journal-commit", pidx, path) from exc
                    if replicated:
                        f.store.write(base + s, good, up=up)
                    else:
                        f.store.write(base + s, good)
            f.txn = None
            f.metrics.counter("journal.commits").inc()
            f.metrics.counter("journal.pages_committed").inc(len(pages))
            # Staged epoch records become durable with their bytes.
            for rec in txn.epochs:
                self._publish_epoch(f, rec)
        # Cached pre-commit copies of the published pages are stale in
        # every client; drop clean copies (dirty bytes are newer than
        # the commit and must survive to their own flush).
        for caches in self._caches.values():
            for cache in caches:
                if cache.path == path and cache.caching:
                    for pidx in pages:
                        cache.invalidate_range(
                            pidx * ps, (pidx + 1) * ps, keep_dirty=True
                        )
        ctx.yield_now()
        return len(pages)

    def _txn_commit_gate(
        self,
        ctx: RankContext,
        client_id: Hashable,
        f: _File,
        path: str,
        pages: List[int],
    ) -> Optional[Set[int]]:
        """Pre-publish storage checks for a journal commit.

        Plain store: every OST holding a committed page must be up (and
        breaker-admitted).  Replicated store: every committed page's
        stripe must retain a write-quorum of live replicas; returns the
        live set the publish writes to (missed replicas go stale and
        heal later)."""
        views = self._fault_views(ctx)
        store = f.store
        replicated = isinstance(store, ReplicatedStore)
        if not views and not self._breakers and not replicated:
            return None
        now = ctx.now
        if views:
            self._set_ost_gauges(views, now)
        ps = self.cost.page_size
        if not replicated:
            stripe = self.cost.stripe_size
            osts = sorted({(pidx * ps // stripe) % self.cost.num_osts for pidx in pages})
            for ost in osts:
                self._check_ost(views, ost, now, client_id, path, "txn_commit")
            return None
        if views or self._breakers:
            up = self._up_set(views, now)
        else:
            up = set(range(self.cost.num_osts))
        self._heal(store, up)
        quorum = store.quorum
        for pidx in pages:
            osts = store.replicas_of(pidx * ps)
            live = [x for x in osts if x in up]
            if len(live) < quorum:
                self._ost_counter("quorum_failures").inc()
                if views:
                    views[0].note_ost_quorum_failure()
                missing = next(x for x in osts if x not in up)
                raise OSTUnavailable(
                    "txn_commit", client_id, path, ost=missing, reason="quorum"
                )
        return up

    # -- resize --------------------------------------------------------------
    def resize(self, ctx: RankContext, client_id: Hashable, path: str, size: int) -> None:
        """Set the file's logical size (MPI_File_set_size's server op).

        Shrinking trims store pages and drops every client's cached
        pages from the truncation point on — callers flush dirty data
        first (the collective ``set_size`` does), because cached bytes
        past the cut are discarded, not written back."""
        f = self._file(path)
        ctx.charge(self.cost.io_call_overhead)
        self._maybe_io_fault(ctx, client_id, path, "server_resize")
        old = f.store.size
        f.store.truncate(size)
        if size < old:
            ps = self.cost.page_size
            cut = (size // ps) * ps
            for caches in self._caches.values():
                for cache in caches:
                    if cache.path == path:
                        cache.invalidate_range(cut, max(old, cut + ps))
