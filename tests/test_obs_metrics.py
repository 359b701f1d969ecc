"""The metrics registry: instruments, interning, snapshot/diff, merge."""

from __future__ import annotations

import numpy as np
import pytest

from repro import BYTE, MetricsRegistry, Session, contiguous, resized
from repro.obs.metrics import Counter, Gauge, Histogram, METRICS_KEY, metrics_registry


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        c.value += 2
        assert c.value == 7
        c.reset()
        assert c.value == 0

    def test_gauge_holds_last_value(self):
        g = Gauge("x")
        g.set(5)
        g.set(3)
        assert g.value == 3

    def test_histogram_buckets_powers_of_two(self):
        assert Histogram.bucket_of(0) == "zero"
        assert Histogram.bucket_of(1) == 0
        assert Histogram.bucket_of(2) == 1
        assert Histogram.bucket_of(3) == 2
        assert Histogram.bucket_of(4) == 2
        assert Histogram.bucket_of(5) == 3
        assert Histogram.bucket_of(0.25) == -2

    def test_histogram_summary_exact_moments(self):
        h = Histogram("t")
        for v in (0, 1, 2, 7):
            h.record(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["total"] == 10
        assert s["min"] == 0 and s["max"] == 7
        assert s["mean"] == pytest.approx(2.5)


class TestRegistry:
    def test_interning_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        assert reg.counter("a.b", 1) is not reg.counter("a.b", 2)

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a.b")
        with pytest.raises(TypeError):
            reg.gauge("a.b")

    def test_value_defaults_to_zero(self):
        assert MetricsRegistry().value("never.registered") == 0

    def test_total_sums_counters_across_keys(self):
        reg = MetricsRegistry()
        reg.counter("c", 0).inc(3)
        reg.counter("c", 1).inc(4)
        assert reg.total("c") == 7

    def test_total_takes_max_of_gauges(self):
        reg = MetricsRegistry()
        reg.gauge("g", 0).set(3)
        reg.gauge("g", 1).set(9)
        assert reg.total("g") == 9

    def test_view_binds_key(self):
        reg = MetricsRegistry()
        v = reg.view(7)
        v.counter("hits").inc(2)
        assert reg.value("hits", 7) == 2
        assert v.value("hits") == 2
        assert v.snapshot() == {"hits": 2}

    def test_snapshot_labels_tuple_keys(self):
        reg = MetricsRegistry()
        reg.counter("cache.hits", (3, "/data")).inc()
        assert reg.snapshot() == {"cache.hits[3:/data]": 1}

    def test_diff_reports_only_changes(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(5)
        reg.counter("b").inc(1)
        before = reg.snapshot()
        reg.counter("a").inc(2)
        reg.histogram("h").record(4)
        assert reg.diff(before) == {"a": 2, "h": {"count": 1, "total": 4}}


class TestMergeAlgebra:
    """Merge must be associative (and commutative) so rank registries
    can be folded in any grouping."""

    def _mk(self, seed: int) -> MetricsRegistry:
        rng = np.random.RandomState(seed)
        reg = MetricsRegistry()
        for key in (None, 0, 1):
            reg.counter("c", key).inc(int(rng.randint(0, 100)))
            reg.gauge("g", key).set(int(rng.randint(0, 100)))
            h = reg.histogram("h", key)
            for _ in range(int(rng.randint(1, 5))):
                h.record(float(rng.randint(0, 64)))
        return reg

    def _flat(self, reg: MetricsRegistry) -> dict:
        return reg.snapshot()

    def test_merge_is_associative(self):
        a, b, c = self._mk(1), self._mk(2), self._mk(3)
        left = MetricsRegistry.merged(MetricsRegistry.merged(a, b), c)
        right = MetricsRegistry.merged(a, MetricsRegistry.merged(b, c))
        assert self._flat(left) == self._flat(right)

    def test_merge_is_commutative(self):
        a, b = self._mk(4), self._mk(5)
        assert self._flat(MetricsRegistry.merged(a, b)) == self._flat(
            MetricsRegistry.merged(b, a)
        )

    def test_merged_never_mutates_inputs(self):
        a, b = self._mk(6), self._mk(7)
        before_a, before_b = self._flat(a), self._flat(b)
        MetricsRegistry.merged(a, b)
        assert self._flat(a) == before_a
        assert self._flat(b) == before_b


class TestConservation:
    """Invariants that tie independent instrument families together."""

    def _session(self, ppn: int = 0) -> Session:
        import dataclasses

        from repro import DEFAULT_COST_MODEL

        hints = {"coll_impl": "new", "cb_nodes": 2, "cb_buffer_size": 512}
        nprocs = 4
        cost = DEFAULT_COST_MODEL
        if ppn:
            # The node topology is armed by the *cost model*; the hints
            # additionally route the exchange through the two-layer path.
            cost = dataclasses.replace(DEFAULT_COST_MODEL, procs_per_node=ppn)
            hints.update(procs_per_node=ppn, exchange="two_layer")
            nprocs = 2 * ppn
        session = Session("/inv", nprocs=nprocs, hints=hints, cost=cost)

        def body(ctx, comm, f):
            region = 64
            tile = resized(contiguous(region, BYTE), 0, region * comm.size)
            f.set_view(disp=comm.rank * region, filetype=tile)
            f.write_all(
                (np.arange(region * 8, dtype=np.int64) * (comm.rank + 1) % 251)
                .astype(np.uint8)
            )
            return True

        assert all(session.run(body))
        return session

    @pytest.mark.parametrize("ppn", [2, 4])
    def test_network_tiers_partition_the_totals(self, ppn):
        reg = self._session(ppn).registry
        assert reg.total("net.bytes") > 0
        assert reg.total("net.intra.bytes") + reg.total("net.inter.bytes") == (
            reg.total("net.bytes")
        )
        assert reg.total("net.intra.msgs") + reg.total("net.inter.msgs") == (
            reg.total("net.msgs")
        )

    def test_rank_merge_reproduces_session_totals(self):
        """Splitting the session registry into per-rank registries and
        merging them back must reproduce every per-rank series."""
        session = self._session()
        reg = session.registry
        parts = []
        for rank in range(session.nprocs):
            part = MetricsRegistry()
            for inst in reg:
                if inst.key == rank and isinstance(inst, Counter):
                    part.counter(inst.name, rank).inc(inst.value)
            parts.append(part)
        folded = MetricsRegistry.merged(*parts)
        for name in ("coll.rounds", "exchange.bytes", "coll.client.pairs"):
            assert folded.total(name) == reg.total(name)


class TestSharedInterning:
    def test_metrics_registry_interns_in_shared(self):
        shared: dict = {}
        reg = metrics_registry(shared)
        assert metrics_registry(shared) is reg
        assert shared[METRICS_KEY] is reg

    def test_session_preinstalls_its_registry(self):
        session = Session("/x", nprocs=2)

        def body(ctx, comm, f):
            return metrics_registry(ctx.shared)

        regs = session.run(body)
        assert all(r is session.registry for r in regs)
