"""Double-buffered rounds: pipelined vs serialized on the Figure-7 loop.

The same time-series checkpoint workload the plan-cache benchmark
runs, swept over ``pipeline_depth``.  At depth 0 every round is fully
serialized (exchange, flush, exchange, ...); at depth 1 the flush
(write path) or fill (read path) of round *k* runs as an engine
coroutine while the rank already exchanges round *k+1*, so the
network/CPU cost of the next exchange hides part of the I/O time.
The payoff is measured straight off the simulated clock: summed
``coll.pipeline.overlap_seconds`` must be positive and the makespan
must drop strictly below the serialized run.  (Depths 2 and 4, which
the hint used to accept, gave makespans identical to depth 1.)

The sweep crosses pattern × impl × depth and emits
``BENCH_pipeline.json`` at the repo root.  Run it either way::

    python -m pytest -q benchmarks/bench_pipeline.py
    PYTHONPATH=src python benchmarks/bench_pipeline.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.config import DEFAULT_COST_MODEL
from repro.hpio.timeseries import TimeSeriesPattern
from repro.mpi import Hints
from repro.obs.session import Session

_NPROCS = 8
_STEPS = 4
_IMPLS = ("new", "old")
_DEPTHS = (0, 1)
_PATH = "/bench"
_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_pipeline.json"

#: Figure-7 time-series geometries: fine (many small interleaved
#: elements) and coarse (fewer, larger ones).
_PATTERNS = {
    "ts-fine": dict(element_size=32, elems_per_point=64, points=192),
    "ts-coarse": dict(element_size=256, elems_per_point=8, points=96),
}


def _run_cell(pattern_name: str, impl: str, depth: int) -> Dict[str, object]:
    ts = TimeSeriesPattern(nprocs=_NPROCS, timesteps=1, **_PATTERNS[pattern_name])
    # A 32 KiB collective buffer forces each step through several
    # rounds (the 4 MiB default would finish in one, leaving nothing
    # to overlap) — the regime Figure 7's large checkpoints live in.
    hints = Hints(
        coll_impl=impl,
        cb_nodes=4,
        cb_buffer_size=32 * 1024,
        pipeline_depth=depth,
    )
    session = Session(_PATH, nprocs=_NPROCS, hints=hints, cost=DEFAULT_COST_MODEL)
    reg = session.registry

    def body(ctx, comm, f):
        f.set_view(disp=0, filetype=ts.filetype(comm.rank, 0))
        written = 0
        for step in range(_STEPS):
            buf = ts.step_buffer(comm.rank, step)
            f.write_at_all(0, buf)
            written += buf.size
        return written

    results = session.run(body)
    total = sum(results)
    sim_seconds = session.makespan
    overlap = sum(
        reg.value("coll.pipeline.overlap_seconds", r) or 0.0
        for r in range(_NPROCS)
    )
    stalls = sum(
        reg.value("coll.pipeline.stalls", r) or 0 for r in range(_NPROCS)
    )
    return {
        "pattern": pattern_name,
        "impl": impl,
        "depth": depth,
        "nprocs": _NPROCS,
        "steps": _STEPS,
        "total_bytes": total,
        "sim_seconds": sim_seconds,
        "bandwidth_mbs": round(total / (1024.0 * 1024.0) / sim_seconds, 3),
        "overlap_seconds": overlap,
        "pipeline_stalls": int(stalls),
    }


def _sweep() -> List[Dict[str, object]]:
    return [
        _run_cell(name, impl, depth)
        for name in _PATTERNS
        for impl in _IMPLS
        for depth in _DEPTHS
    ]


def emit_json(rows: List[Dict[str, object]]) -> Path:
    _JSON_PATH.write_text(
        json.dumps(
            {"benchmark": "pipeline", "nprocs": _NPROCS, "sweep": rows},
            indent=2,
        )
        + "\n"
    )
    return _JSON_PATH


def _cell(rows, pattern, impl, depth):
    for row in rows:
        if (row["pattern"], row["impl"], row["depth"]) == (pattern, impl, depth):
            return row
    raise KeyError((pattern, impl, depth))


@pytest.fixture(scope="module")
def sweep_rows():
    rows = _sweep()
    emit_json(rows)
    return rows


def test_sweep_emits_json(sweep_rows):
    assert len(sweep_rows) == len(_PATTERNS) * len(_IMPLS) * len(_DEPTHS)
    recorded = json.loads(_JSON_PATH.read_text())
    assert len(recorded["sweep"]) == len(sweep_rows)


def test_serialized_reports_zero_overlap(sweep_rows):
    """Depth 0 is the seed's serialized path: no coroutines, no overlap."""
    for row in sweep_rows:
        if row["depth"] == 0:
            assert row["overlap_seconds"] == 0.0, row
            assert row["pipeline_stalls"] == 0, row


def test_depth1_overlaps_and_beats_serialized(sweep_rows):
    """The acceptance bar: at depth 1 every cell hides a nonzero slice
    of flush time behind the next exchange, and the hidden time shows
    up as a strictly lower makespan."""
    for pattern in _PATTERNS:
        for impl in _IMPLS:
            serial = _cell(sweep_rows, pattern, impl, 0)
            piped = _cell(sweep_rows, pattern, impl, 1)
            assert piped["overlap_seconds"] > 0.0, (pattern, impl)
            assert piped["sim_seconds"] < serial["sim_seconds"], (pattern, impl)


def test_all_depths_write_identical_byte_totals(sweep_rows):
    for row in sweep_rows:
        ts = TimeSeriesPattern(nprocs=_NPROCS, timesteps=1, **_PATTERNS[row["pattern"]])
        assert row["total_bytes"] == _STEPS * ts.bytes_per_step


def main() -> int:
    rows = _sweep()
    path = emit_json(rows)
    print(f"{'pattern':<10} {'impl':<5} {'depth':>5} {'MB/s':>9} "
          f"{'sim ms':>9} {'overlap ms':>10} {'stalls':>6}")
    for row in rows:
        print(
            f"{row['pattern']:<10} {row['impl']:<5} {row['depth']:>5} "
            f"{row['bandwidth_mbs']:>9.2f} {row['sim_seconds'] * 1e3:>9.3f} "
            f"{row['overlap_seconds'] * 1e3:>10.3f} {row['pipeline_stalls']:>6}"
        )
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
