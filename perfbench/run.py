#!/usr/bin/env python3
"""Two-clock benchmark of the collective-I/O simulator.

Runs one workload for a fixed host-time budget and prints every metric
by name, with its unit and sample count, then one JSON line::

    python3 perfbench/run.py --workload ckpt-fine-32p --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics: host CPU (normalised to
a reference host speed by a calibration kernel run before every pass)
and memory and the simulated clock, plus raw CPU and elapsed-time
figures that are printed but do not gate.  ``--trace 1`` alternates untraced passes with traced
passes (layer probe installed, ``Session(trace=True)``) and reports the
per-layer metrics.  Every pass's output bytes are checked against a
numpy oracle and every pass's simulated fields must repeat exactly; a
failed check makes the exit code 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)

#: Standard percentiles the tail is chosen from (see :func:`tail`).
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: Allowed gap between process CPU and the per-thread CPU sum, as a
#: share of process CPU, in a traced pass.
CPU_TOLERANCE = 0.05
#: About the process CPU seconds :func:`calibrate` takes on the reference host
#: (2-vCPU shared virtual machine, Python 3.11); ``cpu_norm_s`` is pass
#: CPU in units of the kernel's CPU, times this.
CAL_REF_S = 0.2


def _cal_step(n: int) -> int:
    d: Dict[int, int] = {}
    s = 0
    for k in range(n):
        d[k & 63] = k
        s += len(d) + (k ^ 7)
    return s


def calibrate() -> float:
    """Process CPU seconds of a fixed kernel shaped like the simulator's
    hand-offs: four Python threads pass one token round a ring through
    ``threading.Event`` objects for 2000 turns, each turn a fixed dict
    and numpy step.  It is the benchmark's own code, so a change to the
    program does not move it, while the host's speed for this pattern
    (load on the shared cores, the cost of waking a thread on the other
    CPU) moves it as it moves the workloads."""
    import numpy as np

    threads = 4
    events = [threading.Event() for _ in range(threads)]
    left = [2000]
    buf = np.arange(512, dtype=np.int64)

    def ring(i: int) -> None:
        nxt = events[(i + 1) % threads]
        while True:
            events[i].wait()
            events[i].clear()
            if left[0] <= 0:
                nxt.set()
                return
            left[0] -= 1
            _cal_step(300)
            buf.copy().sum()
            nxt.set()

    workers = [threading.Thread(target=ring, args=(i,), daemon=True) for i in range(threads)]
    for t in workers:
        t.start()
    c0 = time.process_time()
    events[0].set()
    for t in workers:
        t.join()
    return time.process_time() - c0


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(math.ceil(round(p * n / 100.0, 9)), 1)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[_rank(p, len(xs)) - 1]


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)``: the highest percentile of :data:`LADDER`
    with at least 10 samples beyond it (p50 when there are fewer than
    20 samples)."""
    n = len(values)
    p = max((q for q in LADDER if n - _rank(q, n) >= 10), default=LADDER[0])
    return p, percentile(values, p)


class Report:
    """Metrics in print order: ``name -> (value, unit, samples, note)``.

    ``info`` rows are printed but left out of the JSON result, which
    holds exactly the metrics ``BENCHMARK.json`` lists."""

    def __init__(self) -> None:
        self.rows: Dict[str, Tuple[float, str, int, str]] = {}
        self.info: Dict[str, Tuple[float, str, int, str]] = {}

    def add(self, name: str, value: float, unit: str, samples: int, note: str = "", *, info: bool = False) -> None:
        (self.info if info else self.rows)[name] = (float(value), unit, int(samples), note)

    def print_table(self, title: str) -> None:
        print(title)
        print(f"  {'metric':<28} {'value':>16} {'unit':<10} {'n':>6}  note")
        for rows in (self.rows, self.info):
            for name, (value, unit, n, note) in rows.items():
                print(f"  {name:<28} {value:>16.6g} {unit:<10} {n:>6}  {note}")

    def json_metrics(self) -> Dict[str, Dict[str, object]]:
        return {name: {"value": v, "unit": u} for name, (v, u, _, _) in self.rows.items()}


def run_passes(workload, seed: int, seconds: float, traced_slots: bool):
    """Run passes until the next one would overrun ``seconds``.

    Without tracing every pass is untraced.  With tracing, passes
    alternate untraced / traced (probe installed), starting untraced,
    and at least one of each runs.  Without tracing, :func:`calibrate`
    also runs once to warm up, then before the first pass and after
    every pass; a pass's ``cal_s`` is the mean of the calibrations just
    before and just after it."""
    from perfbench.layers import Probe
    from perfbench.workloads import run_pass

    plain, traced, probes = [], [], []
    start = time.perf_counter()
    durations: List[float] = []
    if not traced_slots:
        calibrate()
        cal = calibrate()
    while True:
        t0 = time.perf_counter()
        if traced_slots and len(plain) > len(traced):
            probe = Probe()
            traced.append(run_pass(workload, seed, trace=True, probe=probe))
            probes.append(probe)
        else:
            plain.append(run_pass(workload, seed))
            if not traced_slots:
                after = calibrate()
                plain[-1].cal_s = (cal + after) / 2
                cal = after
        durations.append(time.perf_counter() - t0)
        enough = plain and (traced or not traced_slots)
        left = seconds - (time.perf_counter() - start)
        if enough and left < statistics.median(durations):
            return plain, traced, probes


def _check_passes(name: str, passes, problems: List[str]) -> None:
    from perfbench.workloads import sim_signature

    for i, res in enumerate(passes):
        if res.error:
            problems.append(f"{name} pass {i}: {res.error.strip()}")
    good = [r for r in passes if not r.error]
    if good and any(sim_signature(r) != sim_signature(good[0]) for r in good[1:]):
        problems.append(f"{name}: simulated fields differ between passes with the same seed")


def end_to_end(plain) -> Report:
    """The end-to-end metrics of untraced passes (none if every pass
    failed).

    Host CPU is gated as ``cpu_norm_s``: the median over the run's
    passes of pass CPU over the CPU of :func:`calibrate` run beside it,
    times :data:`CAL_REF_S`.  On a shared 2-vCPU virtual
    machine the same pass costs up to 2x more CPU for minutes at a
    time, depending on the load the host's other tenants put on the
    cores and on where the two vCPUs sit; the calibration kernel moves
    with it, so the ratio varies far less between runs than raw CPU.
    Raw ``cpu_s`` (fastest pass) and elapsed time, which also absorbs
    hypervisor steal and hand-off latency, are printed as ``info``
    rows and do not gate."""
    ok = [r for r in plain if not r.error]
    rep = Report()
    if not ok:
        return rep
    first = ok[0]
    rep.add("setup_s", statistics.median(r.setup_s for r in plain), "s", len(plain),
            "median over passes, process CPU")
    rep.add("cpu_norm_s", statistics.median(r.cpu_s / r.cal_s for r in ok) * CAL_REF_S, "s", len(ok),
            f"median over passes of process CPU / calibration CPU, x {CAL_REF_S} s")
    rep.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1,
            "process high-water mark")
    rep.add("sim_makespan_ms", first.makespan_s * 1e3, "sim-ms", 1, "Session.makespan of one pass")
    bw = first.payload_bytes / (1024.0 * 1024.0) / first.makespan_s if first.makespan_s else 0.0
    rep.add("sim_bw_mbs", bw, "MiB/sim-s", 1, f"{first.payload_bytes} payload bytes / makespan")
    sim_calls = [x for per_rank in first.call_sim for x in per_rank]
    rep.add("sim_call_ms.p50", statistics.median(sim_calls) * 1e3, "sim-ms", len(sim_calls),
            "all ranks, one pass")
    p, v = tail(sim_calls)
    rep.add("sim_call_ms.tail", v * 1e3, "sim-ms", len(sim_calls), f"all ranks, one pass, p{p:g}")
    rep.add("cpu_s", min(r.cpu_s for r in ok), "s", len(ok), "fastest pass, process CPU", info=True)
    rep.add("cal_s", statistics.median(r.cal_s for r in ok), "s", len(ok),
            "calibration kernel CPU, median over passes", info=True)
    wall = min(r.wall_s for r in ok)
    rep.add("wall_s", wall, "s", len(ok), "fastest pass, elapsed (open..close)", info=True)
    calls = [x for r in ok for x in r.call_wall]
    rep.add("call_wall_ms.p50", statistics.median(calls) * 1e3, "ms", len(calls), "rank 0, all passes",
            info=True)
    p, v = tail(calls)
    rep.add("call_wall_ms.tail", v * 1e3, "ms", len(calls), f"rank 0, all passes, p{p:g}", info=True)
    rep.add("sim_s_per_wall_s", first.makespan_s / wall, "sim-s/s", len(ok), "makespan / wall_s", info=True)
    rep.add("steal_frac", sum(r.steal_s for r in ok) / sum(r.wall_s for r in ok), "ratio", len(ok),
            "hypervisor steal (all CPUs) / elapsed, timed windows", info=True)
    return rep


#: ``simtime.*`` metric -> trace state it sums (virtual time, all ranks).
SIM_STATES = {
    "simtime.tp_plan_ms": "tp:plan",
    "simtime.tp_route_ms": "tp:route",
    "simtime.tp_exchange_ms": "tp:exchange",
    "simtime.tp_io_ms": "tp:io",
    "simtime.fs_lock_ms": "fs:lock",
    "simtime.cache_flush_ms": "cache:flush",
    "simtime.plan_replay_ms": "plan:replay",
}


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(plain, traced, probes, problems: List[str]) -> Report:
    """The per-layer metrics of a traced run."""
    from perfbench.workloads import fold_registry, sim_signature

    good_plain = [r for r in plain if not r.error]
    good = [(r, p.flat()) for r, p in zip(traced, probes) if not r.error]
    rep = Report()
    if not good or not good_plain:
        return rep
    if sim_signature(good[0][0]) != sim_signature(good_plain[0]):
        problems.append("traced pass simulated fields differ from the untraced pass")
    for _, f in good:
        if abs(f["process_cpu_s"] - f["threads_cpu_s"]) > CPU_TOLERANCE * f["process_cpu_s"]:
            problems.append(f"CPU conservation: thread CPU {f['threads_cpu_s']:.4f}s vs process "
                            f"CPU {f['process_cpu_s']:.4f}s")
    nt = len(good)
    reg = fold_registry(good[0][0].registry)

    def med(key: str) -> float:
        return statistics.median(f.get(key, 0) for _, f in good)

    def count(name: str, value: float, note: str, unit: str = "count") -> None:
        rep.add(name, value, unit, 1, note)

    def layer(name: str) -> None:
        rep.add(f"{name}.calls", med(f"{name}.calls"), "count", nt, "wrapped calls per pass")
        rep.add(f"{name}.self_cpu_s", med(f"{name}.self_cpu_s"), "s", nt, "median over traced passes")

    layer("sim")
    rep.add("sim.parked_wall_s", med("sim.parked_wall_s"), "s", nt, "all threads, median over traced passes")
    rep.add("sim.idle_frac", statistics.median(1.0 - r.cpu_s / r.wall_s for r in good_plain), "ratio",
            len(good_plain), "1 - cpu_s/wall_s over untraced passes")
    layer("mpi")
    rep.add("mpi.msgs", med("mpi.Communicator.send") + med("mpi.Communicator.isend"), "count", nt,
            "send + isend calls")
    rep.add("mpi.bytes", med("mpi.bytes"), "B", nt, "payload bytes sent")
    layer("datatypes")
    count("datatypes.pairs", reg.get("coll.client.pairs", 0) + reg.get("coll.agg.pairs", 0),
          "coll.client.pairs + coll.agg.pairs")
    count("datatypes.tiles_skipped",
          reg.get("coll.client.tiles_skipped", 0) + reg.get("coll.agg.tiles_skipped", 0),
          "coll.client/agg.tiles_skipped")
    rep.add("datatypes.pack_bytes", med("datatypes.bytes"), "B", nt, "gathered + scattered bytes")
    layer("core")
    count("core.rounds", reg.get("coll.rounds", 0), "coll.rounds")
    hits, misses = reg.get("coll.plan.hits", 0), reg.get("coll.plan.misses", 0)
    count("core.plan_hit_ratio", _ratio(hits, misses), f"coll.plan hits {hits:g} / misses {misses:g}", "ratio")
    count("core.pipeline_stalls", reg.get("coll.pipeline.stalls", 0), "coll.pipeline.stalls")
    count("core.pipeline_overlap_ms", reg.get("coll.pipeline.overlap_seconds", 0) * 1e3,
          "coll.pipeline.overlap_seconds", "sim-ms")
    layer("io")
    rep.add("io.bytes", med("io.bytes"), "B", nt, "bytes through AdioFile")
    layer("fs")
    count("fs.server_ops", reg.get("fs.server.reads", 0) + reg.get("fs.server.writes", 0),
          "fs.server.reads + writes")
    count("fs.bytes", reg.get("fs.bytes.read", 0) + reg.get("fs.bytes.written", 0),
          "fs.bytes.read + written", "B")
    count("fs.rmw_pages", reg.get("fs.rmw.pages", 0), "fs.rmw.pages")
    count("fs.lock_rpcs", reg.get("lock.rpcs", 0), "lock.rpcs")
    count("fs.lock_revocations", reg.get("lock.revocations", 0), "lock.revocations")
    hits, misses = reg.get("cache.hits", 0), reg.get("cache.misses", 0)
    count("fs.cache_hit_ratio", _ratio(hits, misses), f"cache hits {hits:g} / misses {misses:g}", "ratio")
    count("fs.ost_queue_wait_ms", reg.get("fs.ost.queue_wait_seconds", 0) * 1e3,
          "fs.ost.queue_wait_seconds", "sim-ms")
    layer("obs")
    rep.add("other.self_cpu_s", med("other_s"), "s", nt, "process CPU - layer self CPU")
    plain_wall = statistics.median(r.wall_s for r in good_plain)
    traced_wall = statistics.median(r.wall_s for r, _ in good)
    rep.add("trace.overhead_frac", traced_wall / plain_wall - 1.0, "ratio", nt,
            f"traced wall {traced_wall:.4f}s / untraced {plain_wall:.4f}s - 1")
    by_state = good[0][0].time_by_state
    for metric, state in SIM_STATES.items():
        count(metric, by_state.get(state, 0.0) * 1e3, f"time_by_state()[{state!r}]", "sim-ms")
    return rep


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(_ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program sources at {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, _ROOT)
    sys.path.insert(0, src)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    plain, traced, probes = run_passes(workload, args.seed, args.seconds, bool(args.trace))
    problems: List[str] = []
    _check_passes("untraced", plain, problems)
    _check_passes("traced", traced, problems)
    if args.trace:
        rep = per_layer(plain, traced, probes, problems)
    else:
        rep = end_to_end(plain)
    passes = plain + traced
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    rep.add("failed_frac", failed / attempted, "ratio", attempted, "calls failed / attempted", info=True)
    rep.print_table(
        f"{workload.name} seed={args.seed} trace={args.trace}: "
        f"{len(plain)} untraced + {len(traced)} traced passes"
    )
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": rep.json_metrics(),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
