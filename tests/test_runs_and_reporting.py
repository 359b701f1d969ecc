"""Tests for ByteRuns, the bench harness, and reporting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import BenchResult, run_collective, run_hpio_write
from repro.bench.reporting import format_series, format_table, series_from_results
from repro.errors import FileSystemError
from repro.fs.runs import ByteRuns
from repro.hpio.patterns import HPIOPattern
from repro.mpi import Hints


class TestByteRuns:
    def test_add_and_iterate(self):
        r = ByteRuns()
        r.add(5, 10)
        r.add(20, 25)
        assert list(r) == [(5, 10), (20, 25)]
        assert r.total == 10

    def test_merge_overlapping(self):
        r = ByteRuns()
        r.add(0, 10)
        r.add(5, 15)
        assert list(r) == [(0, 15)]

    def test_merge_touching(self):
        r = ByteRuns()
        r.add(0, 10)
        r.add(10, 20)
        assert list(r) == [(0, 20)]

    def test_bridge_multiple(self):
        r = ByteRuns()
        r.add(0, 5)
        r.add(10, 15)
        r.add(20, 25)
        r.add(4, 21)
        assert list(r) == [(0, 25)]

    def test_insert_before_and_after(self):
        r = ByteRuns()
        r.add(10, 20)
        r.add(0, 5)
        r.add(30, 40)
        assert list(r) == [(0, 5), (10, 20), (30, 40)]

    def test_covers(self):
        r = ByteRuns()
        r.add(10, 20)
        assert r.covers(10, 20)
        assert r.covers(12, 15)
        assert not r.covers(5, 12)
        assert not r.covers(18, 25)
        assert r.covers(7, 7)  # empty range always covered

    def test_is_full_and_set_full(self):
        r = ByteRuns()
        assert not r.is_full(10)
        r.set_full(10)
        assert r.is_full(10)
        assert list(r) == [(0, 10)]

    def test_clear_and_empty(self):
        r = ByteRuns()
        r.add(0, 4)
        assert not r.empty
        r.clear()
        assert r.empty
        assert r.total == 0

    def test_zero_length_ignored(self):
        r = ByteRuns()
        r.add(5, 5)
        assert r.empty

    def test_invalid_rejected(self):
        r = ByteRuns()
        with pytest.raises(FileSystemError):
            r.add(5, 4)
        with pytest.raises(FileSystemError):
            r.add(-1, 4)

    @given(st.lists(st.tuples(st.integers(0, 60), st.integers(1, 12)), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_matches_set_oracle(self, intervals):
        r = ByteRuns()
        oracle = set()
        for lo, width in intervals:
            r.add(lo, lo + width)
            oracle.update(range(lo, lo + width))
        got = set()
        prev_end = None
        for s, e in r:
            assert s < e
            if prev_end is not None:
                assert s > prev_end  # disjoint, sorted, non-touching
            prev_end = e
            got.update(range(s, e))
        assert got == oracle
        assert r.total == len(oracle)


class TestBenchHarness:
    def test_hpio_run_verified_and_counted(self):
        p = HPIOPattern(nprocs=4, region_size=16, region_count=8)
        r = run_hpio_write(p, impl="new", representation="succinct", hints=Hints(cb_nodes=2))
        assert r.verified
        assert r.total_bytes == p.total_bytes
        assert r.sim_seconds > 0
        assert r.bandwidth_mbs > 0
        assert r.counters["fs"]["fs.bytes.written"] >= p.total_bytes
        assert r.params["impl"] == "new"

    def test_old_impl_representation_forced(self):
        p = HPIOPattern(nprocs=2, region_size=16, region_count=4)
        r = run_hpio_write(p, impl="old", representation="enumerated")
        assert r.params["representation"] == "succinct"

    def test_run_collective_timing_brackets_ops(self):
        def body(ctx, comm, f):
            f.write_all(np.zeros(256, dtype=np.uint8))
            return 256

        result, fs = run_collective(2, body, hints=Hints(), label="t")
        assert result.total_bytes == 512
        assert result.sim_seconds > 0

    def test_benchresult_str_and_inf(self):
        r = BenchResult(label="x", nprocs=1, total_bytes=1024, sim_seconds=0.0)
        assert r.bandwidth_mbs == float("inf")
        r2 = BenchResult(label="y", nprocs=1, total_bytes=1 << 20, sim_seconds=1.0, verified=True)
        assert "OK" in str(r2)
        assert abs(r2.bandwidth_mbs - 1.0) < 1e-9


class TestReporting:
    def _results(self):
        out = []
        for method in ("a", "b"):
            for x in (1, 2):
                out.append(
                    BenchResult(
                        label=f"{method}{x}",
                        nprocs=2,
                        total_bytes=x << 20,
                        sim_seconds=1.0,
                        params={"method": method, "x": x},
                    )
                )
        return out

    def test_series_pivot(self):
        series = series_from_results(self._results(), x_key="x", series_key="method")
        assert series["a"][1] == pytest.approx(1.0)
        assert series["b"][2] == pytest.approx(2.0)

    def test_format_series_alignment(self):
        series = series_from_results(self._results(), x_key="x", series_key="method")
        text = format_series("Title", series, x_label="x")
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "x" in lines[2]
        assert len(lines) == 5  # title, rule, header, two x rows

    def test_format_series_missing_cells(self):
        text = format_series("T", {"m": {1: 5.0}, "n": {2: 6.0}})
        assert "5.00" in text and "6.00" in text

    def test_format_table(self):
        text = format_table("T", [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}])
        assert "2.50" in text
        assert "0.12" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table("T", [])
