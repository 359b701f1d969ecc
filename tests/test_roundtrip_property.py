"""Property-style round-trip tests across I/O paths.

For randomized seeded access patterns (interleaved per-rank tiles with
random slot geometry and random payload bytes), every write path must
produce the same file image — the direct scatter of each rank's
accesses — and read it back byte-perfectly:

* ``two_phase_new`` — the paper's flexible implementation;
* ``two_phase_old`` — the ROMIO-style baseline;
* ``independent``  — naive per-rank I/O through the ADIO layer, no
  collective machinery at all.

A second sweep repeats the round trip with the end-to-end integrity
hints armed (page sidecars, frame checksums, and — on the new
implementation — journaled writes): under no faults the integrity
machinery must be invisible in the produced bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CostModel
from repro.core import CollectiveFile
from repro.datatypes.base import RawFlatType
from repro.datatypes.flatten import FlatType
from repro.datatypes.packing import scatter_segments
from repro.datatypes.segments import FlatCursor
from repro.fs import SimFileSystem
from repro.mpi import Communicator, Hints
from repro.sim import Simulator

COST = CostModel(page_size=64, stripe_size=256, num_osts=2)
PATH = "/rt"
IMPLS = ("new", "old", "independent")
SEEDS = (1, 7, 23, 99, 1234, 777216)


def geometry(seed: int):
    """Seeded random interleaved pattern, disjoint across ranks."""
    rng = np.random.default_rng(seed)
    nprocs = int(rng.integers(2, 5))
    slot = int(rng.integers(8, 25))
    seg_lo = int(rng.integers(0, slot))
    seg_len = int(rng.integers(1, slot - seg_lo + 1))
    tiles = int(rng.integers(1, 7))
    total = seg_len * tiles
    payloads = [
        rng.integers(1, 255, size=total, dtype=np.uint8) for _ in range(nprocs)
    ]
    return nprocs, slot, seg_lo, seg_len, total, payloads


def build_view(rank, nprocs, slot, seg_lo, seg_len):
    flat = FlatType(
        np.array([seg_lo], dtype=np.int64),
        np.array([seg_len], dtype=np.int64),
        slot * nprocs,
    )
    return rank * slot, RawFlatType(flat, name=f"r{rank}")


def reference(nprocs, slot, seg_lo, seg_len, total, payloads):
    """The file image a direct scatter of every access produces."""
    size = slot * nprocs * (total // max(1, (slot - seg_lo)) + total + 1)
    out = np.zeros(size, dtype=np.uint8)
    for rank in range(nprocs):
        disp, ft = build_view(rank, nprocs, slot, seg_lo, seg_len)
        batch = FlatCursor(ft.flatten(), disp, total).all_segments()
        scatter_segments(out, batch, payloads[rank])
    return out


def roundtrip(impl: str, seed: int, hints: Hints):
    """Write the seeded pattern via ``impl``, read it back, and return
    (file image, per-rank read-back arrays, reference image)."""
    nprocs, slot, seg_lo, seg_len, total, payloads = geometry(seed)
    fs = SimFileSystem(COST)

    def main(ctx):
        comm = Communicator(ctx, COST)
        f = CollectiveFile(ctx, comm, fs, PATH, hints=hints, cost=COST)
        disp, ft = build_view(comm.rank, nprocs, slot, seg_lo, seg_len)
        out = np.zeros(total, dtype=np.uint8)
        if impl == "independent":
            # Naive independent I/O: each rank drives the ADIO layer
            # directly — no aggregators, no exchange, no rounds.
            batch = FlatCursor(ft.flatten(), disp, total).all_segments()
            f.adio.write_strided(batch, payloads[comm.rank].copy(), "naive")
            f.sync()
            batch = FlatCursor(ft.flatten(), disp, total).all_segments()
            out[:] = f.adio.read_strided(batch, "naive")[:total]
        else:
            f.set_view(disp=disp, filetype=ft)
            f.write_all(payloads[comm.rank].copy())
            f.seek(0)
            f.read_all(out)
        f.close()
        return out

    results = Simulator(nprocs).run(main)
    ref = reference(nprocs, slot, seg_lo, seg_len, total, payloads)
    got = fs.raw_bytes(PATH, 0, ref.size)
    return got, results, ref, payloads


def impl_hints(impl: str) -> Hints:
    if impl == "independent":
        return Hints(cb_nodes=2, cb_buffer_size=128)
    return Hints(coll_impl=impl, cb_nodes=2, cb_buffer_size=128)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("impl", IMPLS)
def test_roundtrip_matches_reference(impl, seed):
    got, results, ref, payloads = roundtrip(impl, seed, impl_hints(impl))
    assert np.array_equal(got, ref), (impl, seed)
    for rank, out in enumerate(results):
        assert np.array_equal(out, payloads[rank]), (impl, seed, rank)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_all_paths_agree_byte_for_byte(seed):
    images = {
        impl: roundtrip(impl, seed, impl_hints(impl))[0] for impl in IMPLS
    }
    assert np.array_equal(images["new"], images["old"]), seed
    assert np.array_equal(images["new"], images["independent"]), seed


@pytest.mark.parametrize("seed", SEEDS[:3])
@pytest.mark.parametrize("impl", IMPLS)
def test_roundtrip_with_integrity_armed_is_invisible(impl, seed):
    hints = impl_hints(impl).replace(
        integrity_pages=True,
        integrity_network=True,
        journal_writes=True,
    )
    plain, _, ref, _ = roundtrip(impl, seed, impl_hints(impl))
    armed, results, _, payloads = roundtrip(impl, seed, hints)
    assert np.array_equal(armed, ref), (impl, seed)
    assert np.array_equal(armed, plain), (impl, seed)
    for rank, out in enumerate(results):
        assert np.array_equal(out, payloads[rank]), (impl, seed, rank)
