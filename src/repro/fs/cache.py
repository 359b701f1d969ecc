"""Per-client page cache.

Modes (the Figure 7 experiment turns on ``incoherent``):

* ``coherent`` — write-back; dirty bytes are flushed and the pages
  dropped when the lock manager revokes the client's extent (the file
  system keeps every client's view consistent, at a price);
* ``incoherent`` — write-back with **no** coherence actions: maximum
  locality, but consistency is the application's problem.  Persistent
  file realms are exactly the discipline that makes this safe (a single
  aggregator owns each byte for the file's lifetime);
* ``writethrough`` — writes go straight to the server (reads cache);
* ``off`` — no caching at all.

Semantics follow a real FS client's page cache:

* writes are **write-around**: bytes land in the cached page and are
  tracked as dirty/valid runs — no read-for-ownership round trip; the
  server's page RMW penalty is paid when partial pages are flushed;
* validity and dirtiness are tracked per byte (interval runs per
  page), so two clients dirtying disjoint parts of one page can flush
  in any order without clobbering each other — page-level false
  sharing costs time (lock transfers, RMW), never correctness;
* reads served from valid cached bytes are free of server traffic;
  anything else fetches whole pages and merges them under the locally
  valid bytes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import FileSystemError
from repro.fs.filesystem import SimFileSystem
from repro.fs.runs import ByteRuns
from repro.obs.metrics import MetricsView
from repro.sim.engine import RankContext

__all__ = ["PageCache", "CACHE_MODES"]

CACHE_MODES = ("coherent", "incoherent", "writethrough", "off")


def _page_runs(sorted_pages: List[int]) -> List[Tuple[int, int]]:
    """Group sorted page indices into [first, last] contiguous runs."""
    runs: List[Tuple[int, int]] = []
    for p in sorted_pages:
        if runs and p == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], p)
        else:
            runs.append((p, p))
    return runs


class PageCache:
    """Write-back page cache for one (client, file) pair."""

    def __init__(
        self,
        fs: SimFileSystem,
        path: str,
        client_id: int,
        mode: str = "coherent",
        capacity_pages: int = 16384,
    ) -> None:
        if mode not in CACHE_MODES:
            raise FileSystemError(f"unknown cache mode {mode!r}; options: {CACHE_MODES}")
        if capacity_pages <= 0:
            raise FileSystemError("cache capacity must be positive")
        self.fs = fs
        self.path = path
        self.client_id = client_id
        self.mode = mode
        self.capacity_pages = capacity_pages
        self.page_size = fs.cost.page_size
        self._pages: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._valid: Dict[int, ByteRuns] = {}
        self._dirty: Dict[int, ByteRuns] = {}
        #: Pages with a server fetch in flight, and the subset whose
        #: range a concurrent revocation/invalidation touched while the
        #: fetch yielded — their snapshot is stale and must not be
        #: installed (the revoker dirtied bytes *after* our store read).
        self._fetching: set[int] = set()
        self._fetch_poisoned: set[int] = set()
        # cache.* series live in the file system's registry, keyed by
        # (client, path) so per-client behaviour stays distinguishable
        # and harnesses can meter phases with snapshot()/diff().
        self._metrics = fs.registry.view((client_id, path))
        self._hits = self._metrics.counter("cache.hits")
        self._misses = self._metrics.counter("cache.misses")
        self._flushed = self._metrics.counter("cache.flushed_pages")
        if mode in ("coherent", "incoherent", "writethrough"):
            fs.register_cache(client_id, self)

    @property
    def metrics(self) -> MetricsView:
        """This cache's registry view (``cache.*`` instruments)."""
        return self._metrics

    @property
    def coherent(self) -> bool:
        return self.mode == "coherent"

    @property
    def caching(self) -> bool:
        return self.mode != "off"

    @property
    def writeback(self) -> bool:
        return self.mode in ("coherent", "incoherent")

    @property
    def dirty_pages(self) -> int:
        return len(self._dirty)

    def overlay_dirty(self, lo: int, hi: int, out: np.ndarray, offset: int) -> None:
        """Copy this cache's dirty bytes in [lo, hi) into ``out``, a
        buffer holding the file bytes from ``offset`` on."""
        ps = self.page_size
        for p in range(lo // ps, -(-hi // ps)):
            runs = self._dirty.get(p)
            buf = self._pages.get(p)
            if runs is None or buf is None:
                continue
            base = p * ps
            for start, end in runs:
                s, e = max(base + start, lo), min(base + end, hi)
                if s < e:
                    out[s - offset : e - offset] = buf[s - base : e - base]

    @property
    def cached_pages(self) -> int:
        return len(self._pages)

    # -- internals ----------------------------------------------------------
    def _touch(self, page: int) -> None:
        self._pages.move_to_end(page)

    def _drop(self, page: int) -> None:
        self._pages.pop(page, None)
        self._valid.pop(page, None)
        self._dirty.pop(page, None)

    def _pages_of(
        self, offsets: np.ndarray, lengths: np.ndarray
    ) -> "OrderedDict[int, List[Tuple[int, int, int]]]":
        """page -> list of (page_offset, length, data_position) pieces."""
        ps = self.page_size
        out: "OrderedDict[int, List[Tuple[int, int, int]]]" = OrderedDict()
        pos = 0
        for o, l in zip(offsets.tolist(), lengths.tolist()):
            cur = o
            remaining = l
            dpos = pos
            while remaining > 0:
                pidx, poff = divmod(cur, ps)
                chunk = min(remaining, ps - poff)
                out.setdefault(pidx, []).append((poff, chunk, dpos))
                cur += chunk
                dpos += chunk
                remaining -= chunk
            pos += l
        return out

    def _fetch_pages(self, ctx: RankContext, pages: List[int]) -> None:
        """Read whole pages from the server, merging under locally valid
        bytes (our writes win over the fetched snapshot).

        The server call yields the processor between reading the store
        and this method installing the result.  A conflicting writer can
        use that window to steal our just-acquired granules (nothing was
        dirty, so the revocation had nothing to flush or drop) and dirty
        bytes in them — making the snapshot stale before it lands.  The
        revocation callback poisons in-flight pages it overlaps; a
        poisoned snapshot is discarded, and the caller's miss path
        re-reads those pieces from the server under fresh locks."""
        if not pages:
            return
        ps = self.page_size
        runs = _page_runs(sorted(pages))
        offs = np.array([lo * ps for lo, _ in runs], dtype=np.int64)
        lens = np.array([(hi - lo + 1) * ps for lo, hi in runs], dtype=np.int64)
        self._fetching.update(pages)
        try:
            data = self.fs.server_read(ctx, self.client_id, self.path, offs, lens)
        finally:
            self._fetching.difference_update(pages)
        poisoned = self._fetch_poisoned.intersection(pages)
        self._fetch_poisoned.difference_update(pages)
        pos = 0
        for lo, hi in runs:
            for p in range(lo, hi + 1):
                fresh = data[pos : pos + ps].copy()
                pos += ps
                if p in poisoned:
                    continue
                cached = self._pages.get(p)
                if cached is not None:
                    for s, e in self._valid.get(p, ByteRuns()):
                        fresh[s:e] = cached[s:e]
                self._pages[p] = fresh
                v = self._valid.setdefault(p, ByteRuns())
                v.set_full(ps)
        self._misses.value += len(pages)

    def _evict_if_needed(self, ctx: RankContext) -> None:
        over = len(self._pages) - self.capacity_pages
        if over <= 0:
            return
        # Clean pages go first, LRU order, no I/O.
        clean = [p for p in self._pages if p not in self._dirty]
        for p in clean[:over]:
            self._drop(p)
        over = len(self._pages) - self.capacity_pages
        if over <= 0:
            return
        # Batched writeout: flush at least a quarter of the capacity at
        # once so per-call overheads amortize (single-page writeout would
        # thrash the server, which no real writeback daemon does).
        target = max(over, self.capacity_pages // 4)
        victims = list(self._pages)[:target]
        self._flush_pages(ctx, victims)
        for p in victims:
            # The flush yields the processor; a concurrent revocation may
            # already have dropped some of these pages, or new dirty
            # bytes may have landed (those must survive to a later flush).
            if p not in self._dirty:
                self._drop(p)

    def _flush_pages(self, ctx: RankContext, pages: List[int], *, acquire_locks: bool = True) -> int:
        """Write this client's dirty bytes of the given pages back.

        The dirty runs are snapshotted and REMOVED before the server
        call: the call yields the processor, and bytes dirtied during
        the yield must survive as fresh dirty state rather than being
        clobbered by our post-flush cleanup.  If the server call fails
        (an injected transient fault fires before the store mutates),
        the snapshot is restored so a caller's retry re-flushes it."""
        ps = self.page_size
        dirty = [p for p in sorted(pages) if p in self._dirty and p in self._pages]
        if not dirty:
            return 0
        offs: List[int] = []
        lens: List[int] = []
        parts: List[np.ndarray] = []
        snapshot: List[Tuple[int, List[Tuple[int, int, np.ndarray]]]] = []
        for p in dirty:
            runs = self._dirty.pop(p)
            saved: List[Tuple[int, int, np.ndarray]] = []
            for start, end in runs:
                off = p * ps + start
                length = end - start
                # Copy now: the page may be rewritten during the yield.
                part = self._pages[p][start:end].copy()
                saved.append((start, end, part))
                # Merge with the previous extent when byte-adjacent
                # (common case: fully dirty neighbouring pages).
                if offs and offs[-1] + lens[-1] == off:
                    lens[-1] += length
                else:
                    offs.append(off)
                    lens.append(length)
                parts.append(part)
            snapshot.append((p, saved))
        # Out of the dirty set but not on the server yet: concurrent
        # server reads must see these bytes until the write lands.
        pending = (
            np.array(offs, dtype=np.int64),
            np.array(lens, dtype=np.int64),
            np.concatenate(parts) if parts else np.empty(0, dtype=np.uint8),
        )
        unflushed = self.fs.unflushed(self.path)
        token = object()
        unflushed[token] = pending
        with ctx.trace("cache:flush", path=self.path, pages=len(dirty)):
            try:
                ctx.charge(len(dirty) * self.fs.cost.cache_flush_page)
                self.fs.server_write(
                    ctx,
                    self.client_id,
                    self.path,
                    *pending,
                    acquire_locks=acquire_locks,
                )
            except FileSystemError:
                self._restore_dirty(snapshot)
                raise
            finally:
                del unflushed[token]
        self._flushed.value += len(dirty)
        return len(dirty)

    def _restore_dirty(
        self, snapshot: List[Tuple[int, List[Tuple[int, int, np.ndarray]]]]
    ) -> None:
        """Put snapshotted dirty bytes back after a failed writeback.

        Bytes re-dirtied during the failed call's yield are newer than
        the snapshot and win; everything else is restored byte-for-byte
        (the page may have been dropped or re-fetched meanwhile)."""
        ps = self.page_size
        for p, saved in snapshot:
            buf = self._pages.get(p)
            if buf is None:
                buf = np.zeros(ps, dtype=np.uint8)
                self._pages[p] = buf
            valid = self._valid.setdefault(p, ByteRuns())
            dirty = self._dirty.setdefault(p, ByteRuns())
            for start, end, part in saved:
                cur = start
                for s, e in dirty:
                    if e <= cur:
                        continue
                    if s >= end:
                        break
                    if s > cur:
                        buf[cur:s] = part[cur - start : s - start]
                    cur = max(cur, e)
                    if cur >= end:
                        break
                if cur < end:
                    buf[cur:end] = part[cur - start : end - start]
                valid.add(start, end)
                dirty.add(start, end)

    # -- public operations -------------------------------------------------------
    def write(
        self, ctx: RankContext, offsets: np.ndarray, lengths: np.ndarray, data: np.ndarray
    ) -> None:
        """Write a batch of extents (data concatenated in batch order)."""
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        data = np.asarray(data, dtype=np.uint8)
        if not self.caching:
            self.fs.server_write(ctx, self.client_id, self.path, offsets, lengths, data)
            return
        pieces = self._pages_of(offsets, lengths)
        ps = self.page_size
        total = int(lengths.sum())
        # Charge the copy BEFORE taking the locks: ctx.charge yields the
        # processor, and a yield between acquisition and the dirtying
        # below would let a concurrent conflicting access steal the
        # granules while our bytes are still clean (nothing to flush) —
        # it would then cache a fully-valid stale page that no later
        # revocation repairs, because our subsequent dirty bytes sit
        # under a lock we no longer hold.
        ctx.charge(total * self.fs.cost.cpu_per_byte_copy)
        if self.coherent:
            # Caching dirty bytes requires holding the extent locks, so
            # later conflicting accesses can revoke-and-flush them.  (An
            # incoherent cache skips this — the whole point of PFRs.)
            # No yield may occur between this returning and the dirty
            # marking below.
            self.fs.acquire_extents(ctx, self.client_id, self.path, offsets, lengths)
        for page, parts in pieces.items():
            buf = self._pages.get(page)
            if buf is None:
                buf = np.zeros(ps, dtype=np.uint8)
                self._pages[page] = buf
            else:
                self._hits.value += 1
            valid = self._valid.setdefault(page, ByteRuns())
            dirty = self._dirty.setdefault(page, ByteRuns())
            for poff, ln, dpos in parts:
                buf[poff : poff + ln] = data[dpos : dpos + ln]
                valid.add(poff, poff + ln)
                dirty.add(poff, poff + ln)
            self._touch(page)
        if self.mode == "writethrough":
            self._flush_pages(ctx, list(pieces.keys()))
        self._evict_if_needed(ctx)

    def read(
        self, ctx: RankContext, offsets: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Read a batch of extents; returns concatenated bytes."""
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if not self.caching:
            return self.fs.server_read(ctx, self.client_id, self.path, offsets, lengths)
        pieces = self._pages_of(offsets, lengths)
        # A page must be fetched unless every requested piece of it is
        # locally valid.
        need = []
        for page, parts in pieces.items():
            valid = self._valid.get(page)
            if valid is None or not all(
                valid.covers(poff, poff + ln) for poff, ln, _ in parts
            ):
                need.append(page)
        self._fetch_pages(ctx, need)
        total = int(lengths.sum())
        out = np.empty(total, dtype=np.uint8)
        ctx.charge(total * self.fs.cost.cpu_per_byte_copy)
        need_set = set(need)
        for page, parts in pieces.items():
            buf = self._pages.get(page)
            valid = self._valid.get(page)
            covered = buf is not None and valid is not None and all(
                valid.covers(poff, poff + ln) for poff, ln, _ in parts
            )
            if not covered:
                # Revoked (or the fetch poisoned) while we yielded: the
                # page may be gone, or may survive holding only bytes
                # from an earlier write that never covered this piece.
                # Either way, go straight to the server for just these
                # pieces.
                ps = self.page_size
                po = np.array([page * ps + poff for poff, _, _ in parts], dtype=np.int64)
                pl = np.array([ln for _, ln, _ in parts], dtype=np.int64)
                got = self.fs.server_read(ctx, self.client_id, self.path, po, pl)
                pos = 0
                for (_, ln, dpos) in parts:
                    out[dpos : dpos + ln] = got[pos : pos + ln]
                    pos += ln
                continue
            if page not in need_set:
                self._hits.value += 1
            for poff, ln, dpos in parts:
                out[dpos : dpos + ln] = buf[poff : poff + ln]
            self._touch(page)
        self._evict_if_needed(ctx)
        return out

    def sync(self, ctx: RankContext) -> int:
        """Flush every dirty page; returns the count flushed."""
        return self._flush_pages(ctx, list(self._dirty))

    def invalidate(self) -> None:
        """Drop all cached pages.  Dirty bytes are lost — call
        :meth:`sync` first unless discarding is intended."""
        self._pages.clear()
        self._valid.clear()
        self._dirty.clear()
        self._fetch_poisoned.update(self._fetching)

    def invalidate_range(self, lo: int, hi: int, *, keep_dirty: bool = False) -> int:
        """Drop cached pages intersecting [lo, hi) without flushing.

        Used when the server-side contents of a range changed out of
        band (file truncation, journal commit): cached copies are stale
        and must be refetched.  Dirty bytes in the range are discarded
        — callers sync first when they must survive — unless
        ``keep_dirty`` is set, in which case pages holding dirty bytes
        are left alone (their writes are newer than the out-of-band
        change and still owed to the server).  Returns the number of
        pages dropped."""
        if hi <= lo:
            return 0
        ps = self.page_size
        p_lo, p_hi = lo // ps, -(-hi // ps)
        self._fetch_poisoned.update(
            p for p in self._fetching if p_lo <= p < p_hi
        )
        inside = [
            p
            for p in self._pages
            if p_lo <= p < p_hi and not (keep_dirty and p in self._dirty)
        ]
        for p in inside:
            self._drop(p)
        return len(inside)

    def flush_and_invalidate_range(self, ctx: RankContext, lo: int, hi: int) -> int:
        """Revocation callback: flush dirty bytes in [lo, hi) without
        re-acquiring the (already transferred) locks, then drop the pages."""
        ps = self.page_size
        p_lo, p_hi = lo // ps, -(-hi // ps)
        # An in-flight fetch overlapping the revoked range read the
        # store before the requester's write lands: its snapshot must
        # not be installed when the fetch resumes.
        self._fetch_poisoned.update(
            p for p in self._fetching if p_lo <= p < p_hi
        )
        inside = [p for p in self._pages if p_lo <= p < p_hi]
        flushed = self._flush_pages(ctx, inside, acquire_locks=False)
        for p in inside:
            if p in self._dirty:
                # Re-dirtied while the flush yielded the processor: the
                # new bytes must survive to a later flush.
                continue
            self._drop(p)
        return flushed
