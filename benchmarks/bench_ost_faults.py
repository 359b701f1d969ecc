"""Storage-fault sweep: OST outages × breaker × replication (ISSUE 7).

The acceptance benchmark for the storage-side fault domain: the
chaos-harness workload runs under each OST scenario (``ost-crash``,
``ost-slow``, ``ost-flap``) with the circuit breaker on and off, and
with page replication off and at factor 2.

Two headlines, both asserted here and in CI:

* **Bounded completion** — every cell ends with verified bytes or a
  typed storage error; a hang or a silent wrong answer fails the
  sweep.  (The harness converts typed :class:`~repro.errors`
  storage failures into ``completed=False`` rows; anything untyped
  propagates and fails the benchmark.)
* **Strictly fewer wasted probes with the breaker on** — under
  ``ost-crash`` (a solid outage longer than the trip threshold) the
  number of requests that actually hit the down OST
  (``fs.ost.down_hits``) must be strictly lower with breakers
  enabled: the breaker trips after ``trip_after`` consecutive
  failures and the saved probes show up as
  ``fs.ost.breaker_fastfail`` rejections instead.  Under ``ost-flap``
  the breaker can only match (never exceed) the no-breaker probe
  count.  With replication on, the plan phase health-gates every
  request, so clients never probe a down OST at all.

The sweep is emitted to ``BENCH_ost_faults.json`` at the repo root.
Run either way::

    python -m pytest -q benchmarks/bench_ost_faults.py
    PYTHONPATH=src python benchmarks/bench_ost_faults.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.bench.chaos import ChaosHarness

_SCENARIOS = ("ost-crash", "ost-slow", "ost-flap")
_SEED = 7
_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_ost_faults.json"


def _counter(counters: Dict[str, object], name: str) -> int:
    """Sum a counter over all of its keys (``name`` and ``name[key]``)."""
    total = 0
    for label, value in counters.items():
        if label == name or label.startswith(name + "["):
            total += int(value)
    return total


def _run_cell(scenario: str, breaker: bool, replication: int) -> Dict[str, object]:
    harness = ChaosHarness(
        f"{scenario}:{_SEED}",
        breaker=breaker,
        replication=replication,
    )
    seconds, verified, _, counters = harness.run_once(harness.plan)
    return {
        "scenario": scenario,
        "breaker": breaker,
        "replication": replication,
        # 0.0 seconds means the run died with a *typed* storage error —
        # bounded, just not completed.  Untyped failures propagate out
        # of run_once and fail the benchmark.
        "completed": seconds > 0.0,
        "sim_seconds": seconds,
        "verified": verified,
        "retries": _counter(counters, "faults.retries"),
        "down_hits": _counter(counters, "fs.ost.down_hits"),
        "breaker_fastfails": _counter(counters, "fs.ost.breaker_fastfail"),
        "failovers": _counter(counters, "fs.ost.failovers"),
        "overloads": _counter(counters, "fs.ost.overloads"),
        "quorum_failures": _counter(counters, "fs.ost.quorum_failures"),
        "rereplicated_bytes": _counter(counters, "fs.ost.rereplicated_bytes"),
    }


def _sweep() -> Dict[str, object]:
    rows: List[Dict[str, object]] = []
    for scenario in _SCENARIOS:
        for replication in (1, 2):
            for breaker in (False, True):
                rows.append(_run_cell(scenario, breaker, replication))
    return {"benchmark": "ost_faults", "seed": _SEED, "sweep": rows}


def emit_json(doc: Dict[str, object]) -> Path:
    _JSON_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    return _JSON_PATH


def _cell(doc, scenario, breaker, replication):
    for row in doc["sweep"]:
        if (row["scenario"], row["breaker"], row["replication"]) == (
            scenario,
            breaker,
            replication,
        ):
            return row
    raise KeyError((scenario, breaker, replication))


@pytest.fixture(scope="module")
def sweep_doc():
    doc = _sweep()
    emit_json(doc)
    return doc


def test_sweep_emits_json(sweep_doc):
    recorded = json.loads(_JSON_PATH.read_text())
    assert recorded["benchmark"] == "ost_faults"
    assert len(recorded["sweep"]) == len(_SCENARIOS) * 2 * 2


def test_bounded_completion_everywhere(sweep_doc):
    """Every cell ends with verified bytes or a typed storage error —
    run_once raising (untyped) or hanging would have failed the sweep
    before this assertion runs."""
    for row in sweep_doc["sweep"]:
        assert row["verified"], row


def test_breaker_strictly_fewer_wasted_probes(sweep_doc):
    """The acceptance headline: under a solid outage, breakers convert
    probes of a known-down OST into fast-fails — strictly fewer
    ``down_hits``, with the difference visible as fastfail rejections."""
    off = _cell(sweep_doc, "ost-crash", False, 1)
    on = _cell(sweep_doc, "ost-crash", True, 1)
    assert on["down_hits"] < off["down_hits"], (on, off)
    assert on["breaker_fastfails"] > 0, on


def test_breaker_never_probes_more(sweep_doc):
    """Under flapping the breaker may not *save* probes (the trip
    threshold can exceed what naive retries would spend) but it must
    never probe a down OST more often than no breaker at all."""
    off = _cell(sweep_doc, "ost-flap", False, 1)
    on = _cell(sweep_doc, "ost-flap", True, 1)
    assert on["down_hits"] <= off["down_hits"], (on, off)
    assert on["breaker_fastfails"] > 0, on


def test_replication_health_gates_probes(sweep_doc):
    """With replicas the plan phase consults OST health before any
    byte moves: a down OST is served around (reads) or reported as a
    quorum failure (writes) without ever being hammered."""
    for scenario in ("ost-crash", "ost-flap"):
        for breaker in (False, True):
            row = _cell(sweep_doc, scenario, breaker, 2)
            assert row["down_hits"] == 0, row


def test_slow_ost_never_errors(sweep_doc):
    """``ost_slow`` is a brownout, not an outage: every cell completes
    (degraded, never rejected)."""
    for replication in (1, 2):
        for breaker in (False, True):
            row = _cell(sweep_doc, "ost-slow", breaker, replication)
            assert row["completed"], row
            assert row["down_hits"] == 0, row


def main() -> int:
    doc = _sweep()
    path = emit_json(doc)
    print(
        f"{'scenario':<10} {'repl':>4} {'brk':>4} {'done':>5} {'sim ms':>9} "
        f"{'retries':>7} {'downhit':>7} {'fastfail':>8} {'failover':>8} {'quorum':>6}"
    )
    for row in doc["sweep"]:
        print(
            f"{row['scenario']:<10} {row['replication']:>4} "
            f"{str(row['breaker'])[0]:>4} {str(row['completed'])[0]:>5} "
            f"{row['sim_seconds'] * 1e3:>9.3f} {row['retries']:>7} "
            f"{row['down_hits']:>7} {row['breaker_fastfails']:>8} "
            f"{row['failovers']:>8} {row['quorum_failures']:>6}"
        )
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
