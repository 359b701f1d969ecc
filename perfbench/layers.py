"""Per-layer host-CPU probe, installed from outside ``src/``.

Each layer of the program is measured by wrapping its public functions
for the length of one traced pass.  A wrapper counts calls and records
the call's *self* CPU: ``time.thread_time()`` spent inside it minus the
part spent in nested wrapped calls on the same thread.  Thread CPU does
not advance while a simulated rank is parked, so parked ranks cost
nothing; the wall time a rank spends parked inside the engine's
blocking calls (wall minus CPU inside the outermost ``sim`` call) is
reported separately (``sim.parked_wall_s``).

Two patching rules make every caller reach the wrapper:

* methods are replaced on the class that defines them, so every
  instance and subclass resolves the wrapper at call time;
* a module-level function is replaced in its defining module *and* in
  every ``repro`` module that bound it with ``from x import f``,
  because such a binding is a separate name that patching ``x.f``
  alone does not reach.

All of ``repro`` is imported before patching, so no module can bind a
function after the probe is installed.

Besides the layer wrappers the probe measures the CPU of every thread
the pass starts (rank threads and engine tasks, by wrapping
``threading.Thread.run``), so the layer totals can be checked against
process CPU: see
:meth:`Probe.conservation`.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

LAYERS: Tuple[str, ...] = ("sim", "mpi", "datatypes", "core", "io", "fs", "obs")


def _nbytes(value: Any) -> int:
    return int(value.nbytes) if isinstance(value, np.ndarray) else 0


# Byte extractors: (args, kwargs, result) -> bytes moved by the call.
def _result_bytes(args, kwargs, result) -> int:
    return _nbytes(result)


def _scatter_bytes(args, kwargs, result) -> int:
    # scatter_segments(buf, batch, data): ``data`` is what gets unpacked.
    return _nbytes(args[2] if len(args) > 2 else kwargs.get("data"))


def _send_bytes(args, kwargs, result) -> int:
    # Communicator.send/isend(self, obj, dest, tag): the wire size the
    # network model charges for.
    from repro.mpi.network import payload_nbytes

    return payload_nbytes(args[1] if len(args) > 1 else kwargs.get("obj"))


def _write_contig_bytes(args, kwargs, result) -> int:
    # AdioFile.write_contig(self, offset, data)
    return _nbytes(args[2] if len(args) > 2 else kwargs.get("data"))


def _write_strided_bytes(args, kwargs, result) -> int:
    # AdioFile.write_strided(self, batch, data, method): only the bytes
    # the batch selects from ``data`` reach the file.
    batch = args[1] if len(args) > 1 else kwargs.get("batch")
    return int(batch.total_bytes)


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``owner.name`` in ``layer``.

    ``owner`` is a class (the method is replaced on the class in its MRO
    that defines it) or a dotted module path (the function is replaced
    there and in every module that imported it by name)."""

    layer: str
    owner: Any
    name: str
    count_bytes: Optional[Callable[..., int]] = None


def targets() -> List[Target]:
    """The wrapped public surface of every layer."""
    from repro.core.file_handle import CollectiveFile
    from repro.datatypes.segments import FlatCursor
    from repro.fs.cache import PageCache
    from repro.fs.filesystem import SimFileSystem
    from repro.fs.locks import ExtentLockManager
    from repro.io.adio import AdioFile
    from repro.mpi.comm import Communicator
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.engine import RankContext

    packing = "repro.datatypes.packing"
    out = [Target("sim", RankContext, n) for n in ("block", "advance", "advance_to", "yield_now", "join")]
    # Every message leaves through send or isend (collectives included).
    out += [Target("mpi", Communicator, n, _send_bytes) for n in ("send", "isend")]
    out += [
        Target("mpi", Communicator, n)
        for n in (
            "recv", "irecv", "sendrecv",
            "barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
            "scatter", "alltoall", "alltoallw",
        )
    ]
    out += [
        Target("datatypes", FlatCursor, "intersect"),
        Target("datatypes", FlatCursor, "all_segments"),
        Target("datatypes", packing, "gather_segments", _result_bytes),
        Target("datatypes", packing, "scatter_segments", _scatter_bytes),
        Target("datatypes", packing, "expand_indices"),
    ]
    # The collective entry points: open, view, data access, close.
    out += [
        Target("core", CollectiveFile, n)
        for n in ("__init__", "set_view", "write_at_all", "read_at_all", "close")
    ]
    out += [
        Target("io", AdioFile, "read_contig", _result_bytes),
        Target("io", AdioFile, "write_contig", _write_contig_bytes),
        Target("io", AdioFile, "read_strided", _result_bytes),
        Target("io", AdioFile, "write_strided", _write_strided_bytes),
    ]
    out += [
        Target("fs", PageCache, "read"),
        Target("fs", PageCache, "write"),
        Target("fs", SimFileSystem, "server_read"),
        Target("fs", SimFileSystem, "server_write"),
        Target("fs", SimFileSystem, "acquire_extents"),
        Target("fs", ExtentLockManager, "acquire"),
    ]
    # Instrument lookups: every counter/gauge/histogram a component
    # updates is fetched through these.
    out += [Target("obs", MetricsRegistry, n) for n in ("counter", "gauge", "histogram")]
    return out


def import_all() -> None:
    """Import every ``repro`` module, so all ``from x import f`` bindings
    exist before the probe patches them."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def repro_modules() -> list:
    """Every loaded ``repro`` module."""
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "repro" and m is not None]


class _ThreadStats:
    """One thread's accumulators (only that thread writes them)."""

    __slots__ = (
        "calls", "target_calls", "self_cpu", "bytes", "stack", "sim_depth",
        "parked_wall", "top_cpu", "probe_cpu", "thread_cpu",
    )

    def __init__(self) -> None:
        self.calls = dict.fromkeys(LAYERS, 0)
        #: ``"layer.Qualified.name"`` -> calls.
        self.target_calls: Dict[str, int] = {}
        self.self_cpu = dict.fromkeys(LAYERS, 0.0)
        self.bytes = dict.fromkeys(LAYERS, 0)
        #: Open wrapped calls: [child_cpu] per frame.
        self.stack: List[List[float]] = []
        #: Open ``sim`` calls, and wall minus CPU inside outermost ones.
        self.sim_depth = 0
        self.parked_wall = 0.0
        #: CPU inside outermost wrapped calls, probe sizing included.
        self.top_cpu = 0.0
        #: CPU the probe spent sizing payloads (in no layer's self time).
        self.probe_cpu = 0.0
        #: CPU of the whole ``Thread.run`` (rank and task threads).
        self.thread_cpu = 0.0


class Probe:
    """Installs the layer wrappers; aggregates what they record.

    Use as a context manager around one pass::

        with Probe() as probe:
            session.run(body)
        probe.totals()
    """

    def __init__(self) -> None:
        import_all()
        self._targets = targets()
        self._tls = threading.local()
        self._all: List[_ThreadStats] = []
        self._mu = threading.Lock()
        #: (namespace, name, original) for every replaced binding.
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------
    def _stats(self) -> _ThreadStats:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = self._tls.st = _ThreadStats()
            with self._mu:
                self._all.append(st)
        return st

    def _wrap(self, layer: str, fn: Callable, count_bytes) -> Callable:
        stats = self._stats
        key = f"{layer}.{getattr(fn, '__qualname__', fn)}"
        thread_time = time.thread_time
        perf_counter = time.perf_counter
        # Only the engine's blocking calls park a thread.
        parks = layer == "sim"

        def wrapper(*args, **kwargs):
            st = stats()
            frame = [0.0]
            st.stack.append(frame)
            if parks:
                st.sim_depth += 1
                w0 = perf_counter()
            c0 = thread_time()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                cpu = thread_time() - c0
                if parks:
                    st.sim_depth -= 1
                    if not st.sim_depth:
                        st.parked_wall += perf_counter() - w0 - cpu
                st.stack.pop()
                st.calls[layer] += 1
                st.target_calls[key] = st.target_calls.get(key, 0) + 1
                st.self_cpu[layer] += cpu - frame[0]
                if count_bytes is not None:
                    # Sizing is the probe's own work: keep it out of
                    # the caller's self time too.
                    c1 = thread_time()
                    st.bytes[layer] += count_bytes(args, kwargs, result)
                    sizing = thread_time() - c1
                    st.probe_cpu += sizing
                    cpu += sizing
                if st.stack:
                    st.stack[-1][0] += cpu
                else:
                    st.top_cpu += cpu

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper._perfbench_layer = layer
        return wrapper

    def _thread_run(self, run: Callable) -> Callable:
        """Wrap ``threading.Thread.run`` to time every thread the pass
        starts (rank threads and engine tasks) from start to finish."""
        stats = self._stats

        def thread_run(thread):
            st = stats()
            c0 = time.thread_time()
            try:
                return run(thread)
            finally:
                st.thread_cpu += time.thread_time() - c0

        return thread_run

    # -- patching -------------------------------------------------------------
    def _set(self, namespace: Any, name: str, value: Any) -> None:
        original = namespace.__dict__[name]
        self._patched.append((namespace, name, original))
        setattr(namespace, name, value)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("probe already installed")
        try:
            for t in self._targets:
                if isinstance(t.owner, str):
                    home = sys.modules[t.owner]
                    original = home.__dict__[t.name]
                    wrapper = self._wrap(t.layer, original, t.count_bytes)
                    for mod in repro_modules():
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._set(mod, attr, wrapper)
                else:
                    owner = next(c for c in t.owner.__mro__ if t.name in c.__dict__)
                    self._set(owner, t.name, self._wrap(t.layer, owner.__dict__[t.name], t.count_bytes))
            self._set(threading.Thread, "run", self._thread_run(threading.Thread.__dict__["run"]))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            namespace, name, original = self._patched.pop()
            setattr(namespace, name, original)

    def __enter__(self) -> "Probe":
        self.install()
        self._main_c0 = time.thread_time()
        self._proc_c0 = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.main_cpu = time.thread_time() - self._main_c0
        self.process_cpu = time.process_time() - self._proc_c0
        self.uninstall()

    # -- results --------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "self_cpu_s", "bytes"}}`` summed over
        threads."""
        out = {layer: {"calls": 0, "self_cpu_s": 0.0, "bytes": 0} for layer in LAYERS}
        for st in self._all:
            for layer in LAYERS:
                row = out[layer]
                row["calls"] += st.calls[layer]
                row["self_cpu_s"] += st.self_cpu[layer]
                row["bytes"] += st.bytes[layer]
        return out

    def target_calls(self) -> Dict[str, int]:
        """Calls per wrapped callable, ``"layer.Qualified.name"``."""
        out: Dict[str, int] = {}
        for st in self._all:
            for key, n in st.target_calls.items():
                out[key] = out.get(key, 0) + n
        return dict(sorted(out.items()))

    def flat(self) -> Dict[str, float]:
        """Everything the pass recorded in one flat dict:
        ``<layer>.calls|self_cpu_s|bytes``, ``sim.parked_wall_s``, calls
        per wrapped callable and the :meth:`conservation` sums."""
        out: Dict[str, float] = {}
        for layer, row in self.totals().items():
            out[f"{layer}.calls"] = row["calls"]
            out[f"{layer}.self_cpu_s"] = row["self_cpu_s"]
            out[f"{layer}.bytes"] = row["bytes"]
        out["sim.parked_wall_s"] = sum(st.parked_wall for st in self._all)
        out.update(self.target_calls())
        out.update(self.conservation())
        return out

    def conservation(self) -> Dict[str, float]:
        """CPU accounting of the probed pass, from two independent sums.

        ``process_cpu_s`` is the process clock.  ``threads_cpu_s`` adds
        the main thread's CPU to the CPU of every thread's ``run``.  ``layers_cpu_s`` is the sum of layer self times,
        ``probe_cpu_s`` the probe's own payload sizing and
        ``other_measured_s`` the thread CPU spent outside every wrapped
        call.  Wrapped self times are consistent when
        ``layers + probe + other_measured == threads`` and complete when
        ``threads`` matches the process clock."""
        layers_cpu = sum(row["self_cpu_s"] for row in self.totals().values())
        threads_cpu = self.main_cpu + sum(st.thread_cpu for st in self._all)
        return {
            "process_cpu_s": self.process_cpu,
            "threads_cpu_s": threads_cpu,
            "layers_cpu_s": layers_cpu,
            "probe_cpu_s": sum(st.probe_cpu for st in self._all),
            "other_measured_s": threads_cpu - sum(st.top_cpu for st in self._all),
            "other_s": self.process_cpu - layers_cpu,
        }

