"""Unified observability layer: metrics registry, span tracing, Session.

Every counter — collective, network, fault, page-cache and per-file
server series — is written straight into one :class:`MetricsRegistry`
of named, typed instruments under stable dotted names
(``net.inter.bytes``, ``cache.hits``, ``faults.injected``; the full
catalogue lives in ``docs/observability.md``).  Span tracing
(:mod:`repro.sim.trace`) covers every collective phase and exports
Chrome ``trace_event`` JSON loadable in Perfetto, and
:class:`Session` is the documented front door that wires the
simulator, file system, fault plan, liveness, integrity, and the
registry together.
"""

from repro.obs.metrics import (
    METRICS_KEY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsView,
    metrics_registry,
)
from repro.obs.hooks import PhaseAccumulator, PhaseHook
from repro.obs.schema import load_trace_schema, validate_chrome_trace


def __getattr__(name):
    # Session pulls in the whole stack (engine, fs, core), while the
    # core modules import the registry from this package — so the
    # façade is resolved lazily to keep the import graph acyclic.
    if name == "Session":
        from repro.obs.session import Session

        return Session
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "METRICS_KEY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsView",
    "metrics_registry",
    "PhaseAccumulator",
    "PhaseHook",
    "Session",
    "load_trace_schema",
    "validate_chrome_trace",
]
