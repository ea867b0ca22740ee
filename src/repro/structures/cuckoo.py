"""Cuckoo hash table after Nguyen & Tsigas (lock-free cuckoo hashing).

Two tables, two independent hash functions.  An insert tries its primary
slot, then its secondary; if both are taken it evicts ("kicks") the primary
occupant along a relocation chain up to ``MAX_RELOCATIONS``, after which the
table resizes (doubles) and rehashes — matching Section III-D1: buckets are
"a single logically contiguous array ... collisions resolved by the
secondary bucket mechanism", default 128 buckets, load factor 0.75, doubling
growth.

Per-operation :class:`~repro.structures.stats.OpStats` expose probes,
relocations and resizes so the simulation charges exactly the work done.
"""

from __future__ import annotations

import zlib
from typing import Any, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.structures.stats import OpStats

__all__ = ["CuckooHash", "stable_hash"]

_EMPTY = None
_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def stable_hash(key: Hashable) -> int:
    """Interpreter-stable key hash (crc32 of the repr).

    The default hash at both levels — the containers' partition routing and
    the table's slots: unlike the builtin ``hash``, it does not depend on
    PYTHONHASHSEED, so placement — and therefore every simulated timing —
    is identical across interpreter invocations.  Pass ``hash_fn`` to
    override (the ``std::hash<K>`` customization point).
    """
    return zlib.crc32(repr(key).encode("utf-8"))


class CuckooHash:
    """A resizable two-table cuckoo hash map.

    ``hash_fn`` overrides the key distribution (the std::hash override of
    Section III-D1); the default is :func:`stable_hash`.
    """

    DEFAULT_BUCKETS = 128
    LOAD_FACTOR = 0.75
    MAX_RELOCATIONS = 16

    def __init__(self, initial_buckets: int = DEFAULT_BUCKETS, hash_fn=None):
        if initial_buckets < 2:
            raise ValueError("need at least 2 buckets")
        half = max(1, initial_buckets // 2)
        self._cap = half  # per-table capacity; total buckets = 2 * cap
        self._t0: List[Optional[Tuple[Hashable, Any]]] = [_EMPTY] * half
        self._t1: List[Optional[Tuple[Hashable, Any]]] = [_EMPTY] * half
        self._count = 0
        self._hash_fn = hash_fn or stable_hash
        # Cap-independent hash bases memoized per key: hash_fn costs real
        # host time per call and upsert storms rehash the same keys
        # constantly.  Purely a host-side cache — charged OpStats never
        # count hashing.
        self._base_memo: dict = {}
        self._orphan: Optional[Tuple[Hashable, Any]] = None
        self.resizes = 0

    # -- hashing ---------------------------------------------------------------
    def _base(self, key: Hashable) -> int:
        """Memoized ``hash_fn(key) & MASK`` (cap-independent, resize-safe)."""
        memo = self._base_memo
        base = memo.get(key)
        if base is None:
            base = memo[key] = self._hash_fn(key) & _MASK64
        return base

    def _h(self, key: Hashable, table: int) -> int:
        base = self._base(key)
        h = base if table == 0 else ((base * _GOLDEN64) & _MASK64) ^ (base >> 31)
        return h % self._cap

    # -- public API -------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def bucket_count(self) -> int:
        return 2 * self._cap

    def find(self, key: Hashable) -> Tuple[Optional[Any], bool, OpStats]:
        """Returns ``(value, found, stats)``; at most two probes.

        Probes compare the slot key (a pointer-sized ``local_op``); only a
        hit reads the entry payload (one ``R``) — so the charged cost
        tracks bytes actually moved.
        """
        stats = OpStats()
        for table, arr in ((0, self._t0), (1, self._t1)):
            stats.local_ops += 1
            slot = arr[self._h(key, table)]
            if slot is not _EMPTY and slot[0] == key:
                stats.reads += 1
                return slot[1], True, stats
        return None, False, stats

    def contains(self, key: Hashable) -> Tuple[bool, OpStats]:
        _v, found, stats = self.find(key)
        return found, stats

    def upsert(self, key: Hashable, delta: Any) -> Tuple[Any, OpStats]:
        """Fused read-modify-write: add ``delta`` to the stored value (0 when
        absent) and return ``(new_value, stats)`` — the one-element case of
        :meth:`upsert_many`.
        """
        results: List[Any] = []
        _stop, stats = self.upsert_many(((key, delta),), 0, results)
        return results[0], stats

    def upsert_many(self, pairs: Sequence[Tuple[Hashable, Any]], start: int,
                    results: List[Any]) -> Tuple[int, OpStats]:
        """Vector upsert: apply ``pairs[start:]`` in order, appending each
        op's new value to ``results``.

        Returns ``(stop, stats)``: ``pairs[start:stop]`` were applied and
        ``stats`` is the sum of their charges.  The call stops right after
        an op that resized the table (``stats.resized``), so a caller
        mirroring the growth sees the table as it was at that op; resume
        with ``start=stop``.

        Each op is charged exactly a ``find(key)`` followed by
        ``insert(key, new_value)`` — the fusion only avoids the redundant
        host-side hashing and probing of the two-call sequence, never
        simulated work, so timelines are bit-identical either way.
        """
        cap = self._cap
        t0, t1 = self._t0, self._t1
        memo = self._base_memo
        append = results.append
        # Plain-int tallies of the three common outcomes; the rare kick
        # chain and the resize keep their own OpStats in ``extra``.
        hits0 = hits1 = placed = 0
        extra = None
        i = start
        n = len(pairs)
        while i < n:
            key, delta = pairs[i]
            i += 1
            base = memo.get(key)
            if base is None:
                base = memo[key] = self._hash_fn(key) & _MASK64
            i0 = base % cap
            slot = t0[i0]
            if slot is not _EMPTY and slot[0] == key:
                # find: t0 hit (L1 R1); insert's find: t0 hit (L1 R1);
                # overwrite probe: t0 hit (L1 CAS1 W1).
                new = slot[1] + delta
                t0[i0] = (key, new)
                append(new)
                hits0 += 1
                continue
            i1 = (((base * _GOLDEN64) & _MASK64) ^ (base >> 31)) % cap
            slot = t1[i1]
            if slot is not _EMPTY and slot[0] == key:
                # find: t0 miss, t1 hit (L2 R1); insert's find: same;
                # overwrite probes t0 then t1 (L2 CAS1 W1).
                new = slot[1] + delta
                t1[i1] = (key, new)
                append(new)
                hits1 += 1
                continue
            # Absent.  Empty-slot placement inline: find miss (L2) +
            # insert's find miss (L2) + overwrite probes (L2), then one
            # CAS+W into the first free slot — the charges ``_try_insert``
            # accrues.
            append(delta)
            if t0[i0] is _EMPTY:
                t0[i0] = (key, delta)
            elif t1[i1] is _EMPTY:
                t1[i1] = (key, delta)
            else:
                # Both slots taken by other keys: kick chains and resizes
                # stay on the real insert path (mirroring only the find
                # miss, L2).
                _new, stats = self.insert(key, delta)
                stats.local_ops += 2
                extra = stats if extra is None else extra.merge(stats)
                if stats.resized:
                    break
                continue
            placed += 1
            self._count += 1
            if self._count / (2 * cap) > self.LOAD_FACTOR:
                grown = OpStats()
                self._resize(grown)
                extra = grown if extra is None else extra.merge(grown)
                break
        done = hits0 + hits1 + placed
        # Positional: (local_ops, reads, writes, cas_ops).  Keyword
        # construction costs twice as much, and this runs per scalar upsert.
        stats = OpStats(3 * hits0 + 6 * (hits1 + placed), 2 * (hits0 + hits1),
                        done, done)
        if extra is not None:
            stats = stats.merge(extra)
        return i, stats

    def insert(self, key: Hashable, value: Any) -> Tuple[bool, OpStats]:
        """Insert or overwrite.  Returns ``(inserted_new, stats)``.

        ``inserted_new`` reflects whether the key was absent before the call
        (kept accurate even across a mid-operation resize, where the resize
        re-count already includes the key placed by a failed kick chain).
        """
        _v, was_present, stats = self.find(key)
        while True:
            done, new = self._try_insert(key, value, stats)
            if done:
                if new:
                    self._count += 1
                if self._count / (2 * self._cap) > self.LOAD_FACTOR:
                    self._resize(stats)
                return not was_present, stats
            # Relocation chain exhausted: grow and retry.
            self._resize(stats)

    def _try_insert(self, key, value, stats: OpStats):
        """One attempt; returns (done, inserted_new)."""
        # Overwrite path: key already present in either table.
        for table, arr in ((0, self._t0), (1, self._t1)):
            i = self._h(key, table)
            stats.local_ops += 1
            slot = arr[i]
            if slot is not _EMPTY and slot[0] == key:
                stats.cas_ops += 1
                stats.writes += 1
                arr[i] = (key, value)
                return True, False
        # Empty-slot path.
        for table, arr in ((0, self._t0), (1, self._t1)):
            i = self._h(key, table)
            if arr[i] is _EMPTY:
                stats.cas_ops += 1
                stats.writes += 1
                arr[i] = (key, value)
                return True, True
        # Eviction chain: kick the primary occupant.
        cur = (key, value)
        table = 0
        for _ in range(self.MAX_RELOCATIONS):
            arr = self._t0 if table == 0 else self._t1
            i = self._h(cur[0], table)
            victim = arr[i]
            stats.cas_ops += 1
            stats.writes += 1
            stats.relocations += 1
            arr[i] = cur
            if victim is _EMPTY:
                return True, True
            # Note: victim[0] == key can only mean the chain cycled back and
            # kicked out our own fresh copy (the overwrite path above already
            # handled genuinely-present keys), so keep relocating it — the
            # MAX_RELOCATIONS bound turns a true cycle into a resize.
            cur = victim
            table ^= 1
        # Chain too long: put the orphan back via resize path.
        self._orphan = cur
        return False, False

    def _resize(self, stats: OpStats) -> None:
        old_items = list(self.items())
        orphan = self._orphan
        self._orphan = None
        if orphan is not None:
            old_items.append(orphan)
        self.resizes += 1
        stats.resized = True
        stats.resize_entries += len(old_items)
        sub = OpStats()
        while True:
            if self._cap > 512 * max(16, len(old_items)):
                # A hash function that cannot spread keys (e.g. a
                # constant) makes cuckoo insertion impossible at any
                # capacity; fail loudly instead of doubling forever.
                raise RuntimeError(
                    f"cuckoo resize cannot place {len(old_items)} items "
                    f"even at capacity {self._cap} — degenerate hash "
                    "function?"
                )
            self._cap *= 2
            cap = self._cap
            t0 = self._t0 = [_EMPTY] * cap
            t1 = self._t1 = [_EMPTY] * cap
            # Old entries are distinct keys, so ``_try_insert``'s overwrite
            # probe never hits: place each at its t0 slot, else its t1
            # slot, and fall back to the kick chain only when both are
            # taken.  Every key in the table went through ``_base``.
            memo = self._base_memo
            for k, v in old_items:
                base = memo[k]
                i0 = base % cap
                if t0[i0] is _EMPTY:
                    t0[i0] = (k, v)
                    continue
                i1 = (((base * _GOLDEN64) & _MASK64) ^ (base >> 31)) % cap
                if t1[i1] is _EMPTY:
                    t1[i1] = (k, v)
                elif not self._try_insert(k, v, sub)[0]:
                    self._orphan = None
                    break
            else:
                self._count = len(old_items)
                return

    def remove(self, key: Hashable) -> Tuple[bool, OpStats]:
        stats = OpStats()
        for table, arr in ((0, self._t0), (1, self._t1)):
            i = self._h(key, table)
            stats.local_ops += 1
            slot = arr[i]
            if slot is not _EMPTY and slot[0] == key:
                stats.cas_ops += 1
                stats.writes += 1
                arr[i] = _EMPTY
                self._count -= 1
                return True, stats
        return False, stats

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        # ``filter(None, ...)`` skips the empty slots in C: an occupied
        # slot is a 2-tuple, always truthy, and ``_EMPTY`` is None.  Tables
        # run far below their capacity, so the scan is mostly empty slots.
        for arr in (self._t0, self._t1):
            yield from filter(None, arr)

    def check_invariants(self) -> None:
        """Every key sits at one of its two hash slots; count matches."""
        seen = 0
        for table, arr in ((0, self._t0), (1, self._t1)):
            for i, slot in enumerate(arr):
                if slot is _EMPTY:
                    continue
                seen += 1
                k = slot[0]
                assert self._h(k, table) == i, (
                    f"key {k!r} in table {table} slot {i}, "
                    f"expected {self._h(k, table)}"
                )
        assert seen == self._count, f"count {self._count} != occupied {seen}"
