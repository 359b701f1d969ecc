"""The Session façade: wiring, hints/faults resolution, timing, results."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BYTE,
    FaultPlan,
    Hints,
    MetricsRegistry,
    Session,
    contiguous,
    resized,
)


def _write_body(region: int = 64, count: int = 8):
    def body(ctx, comm, f):
        tile = resized(contiguous(region, BYTE), 0, region * comm.size)
        f.set_view(disp=comm.rank * region, filetype=tile)
        data = np.full(region * count, comm.rank + 1, dtype=np.uint8)
        f.write_all(data)
        return data.size

    return body


class TestConstruction:
    def test_open_is_the_constructor(self):
        s = Session.open("/x", nprocs=2)
        assert s.path == "/x" and s.nprocs == 2

    def test_hints_accept_mapping_or_instance(self):
        from_map = Session("/x", hints={"cb_nodes": 3})
        from_obj = Session("/x", hints=Hints(cb_nodes=3))
        assert from_map.hints["cb_nodes"] == from_obj.hints["cb_nodes"] == 3

    def test_faults_accept_spec_or_plan(self):
        by_spec = Session("/x", faults="transient-io:7")
        by_plan = Session("/x", faults=FaultPlan(seed=7))
        assert by_spec.plan.seed == 7
        assert by_plan.plan.seed == 7
        assert Session("/x").plan is None

    def test_bad_nprocs_rejected(self):
        with pytest.raises(ValueError):
            Session("/x", nprocs=0)

    def test_context_manager(self):
        with Session("/x", nprocs=2) as s:
            assert all(n == 2 for n in [s.nprocs])


class TestRunning:
    def test_run_returns_per_rank_results(self):
        s = Session("/data", nprocs=4)
        assert s.run(_write_body()) == [512] * 4

    def test_run_writes_through_session_fs(self):
        s = Session("/data", nprocs=4)
        s.run(_write_body())
        img = s.fs.raw_bytes("/data", 0, 64 * 4)
        assert (img[:64] == 1).all() and (img[64:128] == 2).all()

    def test_makespan_positive_after_run(self):
        s = Session("/data", nprocs=4)
        assert s.makespan == 0.0
        s.run(_write_body())
        assert s.makespan > 0.0

    def test_components_report_to_one_registry(self):
        s = Session("/data", nprocs=4)
        s.run(_write_body())
        reg = s.registry
        assert reg is s.metrics
        # Collective counters (per rank), file-server counters (per
        # path), and network totals all landed in the same registry.
        assert reg.total("coll.writes") == 4
        assert reg.value("fs.server.writes", "/data") > 0
        assert reg.total("coll.call.seconds") == 4  # histogram count

    def test_two_runs_accumulate(self):
        s = Session("/data", nprocs=2)
        s.run(_write_body())
        s.run(_write_body())
        assert s.registry.total("coll.writes") == 4

    def test_launch_gives_raw_main_access(self):
        s = Session("/data", nprocs=3)
        outs = s.launch(lambda ctx: ctx.rank * 10)
        assert outs == [0, 10, 20]
        assert s.sim is not None and s.sim.nprocs == 3

    def test_fresh_sessions_are_isolated(self):
        a, b = Session("/data", nprocs=2), Session("/data", nprocs=2)
        a.run(_write_body())
        assert b.registry.total("coll.writes") == 0
        assert len(list(b.registry)) == 0


class TestFaults:
    def test_fault_plan_installed_and_stats_exposed(self):
        s = Session(
            "/data",
            nprocs=4,
            hints={"cb_nodes": 2, "cb_buffer_size": 512},
            faults="transient-io:42",
        )
        assert s.registry.snapshot("faults.") == {}  # not installed until a run

        def body(ctx, comm, f):
            region = 64
            tile = resized(contiguous(region, BYTE), 0, region * comm.size)
            f.set_view(disp=comm.rank * region, filetype=tile)
            for _ in range(4):
                f.seek(0)
                f.write_all(np.full(region * 16, comm.rank + 1, dtype=np.uint8))
            return 1

        assert s.run(body) == [1] * 4
        assert s.registry.value("faults.io") > 0
        assert s.registry.value("faults.retries") > 0
        # The injector writes its counters into the session registry.
        assert s._injector.metrics is s.registry

    def test_summary_mentions_faults(self):
        s = Session("/data", nprocs=2, faults="transient-io:42")
        s.run(_write_body())
        text = s.summary()
        assert "faults:" in text
        assert "makespan" in text


class TestTracing:
    def test_trace_off_records_nothing(self):
        s = Session("/data", nprocs=2)
        s.run(_write_body())
        assert s.tracer.events == []
        assert s.time_by_state() == {}
        assert s.chrome_trace()["traceEvents"] == []

    def test_trace_on_records_spans(self):
        s = Session("/data", nprocs=2, trace=True)
        s.run(_write_body())
        assert "write_all" in s.time_by_state()
        assert any(ev["ph"] == "X" for ev in s.chrome_trace()["traceEvents"])


class TestRegistryHelpers:
    def test_snapshot_diff_between_runs(self):
        """The snapshot()/diff() workflow the chaos harness uses —
        cache and fs series become visible per phase."""
        s = Session("/data", nprocs=2, hints={"cache_mode": "coherent"})
        s.run(_write_body())
        before = s.registry.snapshot()
        s.run(_write_body())
        delta = s.registry.diff(before)
        assert delta  # the second run changed counters
        assert all(
            isinstance(v, dict) or v > 0 for v in delta.values()
        ), delta  # diff reports only positive deltas here
        grew = [k for k in delta if k.startswith("coll.writes")]
        assert grew  # per-rank collective counters among them
