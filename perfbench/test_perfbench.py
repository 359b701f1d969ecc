"""Self-tests of the benchmark: probe coverage, patching, CPU
conservation, determinism and the correctness gate.

Run from the repository root::

    python3 -m pytest -q perfbench

The workloads are shortened (fewer steps / reads) so the whole file
runs in well under a minute; geometry, ranks and hints are unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from perfbench import layers  # noqa: E402
from perfbench.run import CPU_TOLERANCE, calibrate, percentile, tail  # noqa: E402
from perfbench.workloads import WORKLOADS, run_pass, sim_signature  # noqa: E402

SHORT = {
    "ckpt-fine-32p": {"steps": 2},
    "hpio-read-8p": {"reads": 3},
    "ckpt-replay-8p": {"steps": 6},
}


def short(name: str):
    return dataclasses.replace(WORKLOADS[name], **SHORT[name])


@pytest.fixture(scope="module")
def traced():
    """One probed, traced pass of every (shortened) workload."""
    out = {}
    for name in WORKLOADS:
        probe = layers.Probe()
        res = run_pass(short(name), 7, trace=True, probe=probe)
        assert not res.error, res.error
        out[name] = (res, probe)
    return out


#: Layers whose wrappers must fire on each workload, and one wrapped
#: callable per workload that only that access path reaches.
EXPECTED = {
    "ckpt-fine-32p": (layers.LAYERS, "datatypes.FlatCursor.intersect"),
    "hpio-read-8p": (layers.LAYERS, "io.AdioFile.read_contig"),
    "ckpt-replay-8p": (layers.LAYERS, "io.AdioFile.write_strided"),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_layer_wrapper_fires(traced, name):
    res, probe = traced[name]
    totals = probe.totals()
    want, path = EXPECTED[name]
    for layer in want:
        assert totals[layer]["calls"] > 0, (name, layer)
        assert totals[layer]["self_cpu_s"] >= 0.0, (name, layer)
    assert probe.target_calls().get(path, 0) > 0, (name, path)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_cpu_conservation(traced, name):
    """Layer self CPU, the probe's own payload sizing and CPU outside
    every wrapped call add up to the thread CPU sum, which matches the
    process clock within tolerance."""
    f = traced[name][1].flat()
    inside = f["layers_cpu_s"] + f["probe_cpu_s"]
    assert inside + f["other_measured_s"] == pytest.approx(f["threads_cpu_s"], rel=1e-6)
    assert abs(f["process_cpu_s"] - f["threads_cpu_s"]) <= CPU_TOLERANCE * f["process_cpu_s"]
    assert f["other_s"] == pytest.approx(
        f["other_measured_s"] + f["probe_cpu_s"], abs=CPU_TOLERANCE * f["process_cpu_s"]
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_repeated_passes_are_bit_identical(traced, name):
    """Neither the probe nor span recording perturbs the simulated
    clock, and a second pass with the same seed repeats the first."""
    a = run_pass(short(name), 7)
    b = run_pass(short(name), 7)
    assert not a.error and not b.error
    assert sim_signature(a) == sim_signature(b)
    assert sim_signature(traced[name][0]) == sim_signature(a)
    assert a.registry == b.registry


def test_patching_reaches_from_import_bindings():
    """A ``from x import f`` binding is a separate name: the probe must
    replace it in every importing module, and restore it afterwards."""
    import repro.core.exchange as exchange
    import repro.datatypes.packing as packing

    original = packing.gather_segments
    assert exchange.gather_segments is original
    probe = layers.Probe()
    with probe:
        assert exchange.gather_segments is packing.gather_segments
        assert exchange.gather_segments.__wrapped__ is original
        assert unpatched_bindings(probe._targets) == []
        exchange.gather_segments(np.arange(8, dtype=np.uint8), _batch())
    assert probe.target_calls()["datatypes.gather_segments"] == 1
    assert exchange.gather_segments is original and packing.gather_segments is original


def unpatched_bindings(probe_targets):
    """Names in ``repro`` modules still bound to an original function
    while the probe is installed."""
    missed = []
    for t in probe_targets:
        if not isinstance(t.owner, str):
            continue
        current = sys.modules[t.owner].__dict__[t.name]
        original = getattr(current, "__wrapped__", current)
        for mod in layers.repro_modules():
            for attr, value in vars(mod).items():
                if value is original:
                    missed.append(f"{mod.__name__}.{attr}")
    return missed


def test_methods_are_patched_on_the_defining_class():
    """Inherited methods are reached through subclasses: CollectiveMixin
    collectives via Communicator, RankContext methods via task
    contexts."""
    from repro.mpi.collectives import CollectiveMixin
    from repro.mpi.comm import Communicator
    from repro.sim.engine import RankContext, _TaskContext

    before = CollectiveMixin.__dict__["barrier"]
    with layers.Probe():
        assert Communicator.barrier._perfbench_layer == "mpi"
        assert _TaskContext.block._perfbench_layer == "sim"
        assert "barrier" not in Communicator.__dict__
    assert CollectiveMixin.__dict__["barrier"] is before
    assert not hasattr(RankContext.block, "_perfbench_layer")


def _batch():
    from repro.datatypes.segments import SegmentBatch

    return SegmentBatch(
        np.array([0, 4], dtype=np.int64), np.array([2, 2], dtype=np.int64),
        np.array([0, 2], dtype=np.int64),
    )


@pytest.mark.parametrize("name", ["ckpt-fine-32p", "ckpt-replay-8p"])
def test_checkpoint_oracle_catches_a_wrong_byte(name):
    w = short(name)
    bufs = w.payloads(3)
    image = w.oracle([b[-1] for b in bufs])
    assert image.size == w.pattern().bytes_per_step
    # Element e of every point belongs to rank e % nprocs.
    es = w.element_size
    assert np.array_equal(image[es : 2 * es], bufs[1 % w.nprocs][-1][:es])
    prep = w.prepare(3, trace=False)
    prep.session.run(lambda ctx, comm, f: prep.body(ctx, comm, f, [], [], [0.0, 0.0]))
    assert prep.verify(prep.session)
    prep.session.fs.raw_write(prep.session.path, 5, np.array([image[5] ^ 1], dtype=np.uint8))
    assert not prep.verify(prep.session)


def test_hpio_checks_are_taken_out_of_the_host_figures():
    """Every rank's poison-and-compare is timed, so ``cpu_s`` and
    ``wall_s`` hold the program's cost only."""
    res = run_pass(short("hpio-read-8p"), 7)
    assert not res.error and res.failed == 0
    assert len(res.checks) == 8 and all(cpu > 0 and wall > 0 for cpu, wall in res.checks)
    assert res.cpu_s > 0 and res.wall_s > 0


def test_hpio_oracle_matches_the_pattern_geometry():
    w = short("hpio-read-8p")
    data = w.payloads(3)
    image = w.oracle(data)
    p = w.pattern()
    for rank in (0, 5):
        for index in (0, w.region_count - 1):
            off = p.region_file_offset(rank, index)
            want = data[rank][index * w.region_size : (index + 1) * w.region_size]
            assert np.array_equal(image[off : off + w.region_size], want)


def test_seed_changes_inputs_not_workload():
    w = short("ckpt-replay-8p")
    assert np.array_equal(w.payloads(1)[0][0], w.payloads(1)[0][0])
    assert not np.array_equal(w.payloads(1)[0][0], w.payloads(2)[0][0])


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    assert tail(list(range(19)))[0] == 50.0
    assert tail(list(range(40)))[0] == 75.0
    assert tail(list(range(100)))[0] == 90.0
    assert tail(list(range(1000)))[0] == 99.0
    assert percentile([3, 1, 2, 4], 50) == 2
    assert percentile([3, 1, 2, 4], 75) == 3


def test_calibration_kernel_measures_cpu_and_joins_its_threads():
    import threading

    before = threading.active_count()
    assert calibrate() > 0
    assert threading.active_count() == before


def _cli(*args, cwd=_ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_every_listed_metric(trace, section):
    out = _cli("--workload", "ckpt-replay-8p", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec[section]}
    for m in spec[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert m["name"] in out.stdout.splitlines()[2 + spec[section].index(m)]


def test_cli_rejects_unknown_workload_without_a_result():
    out = _cli("--workload", "nope", "--seed", "1", "--seconds", "1")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
