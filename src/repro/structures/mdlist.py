"""Multi-dimensional linked-list priority queue after Zhang & Dechev (TPDS'15).

HCL's ``HCL::priority_queue`` uses "a lock-free implementation based on a
multi-dimensional linked list [33] ... a background purge methodology to
clean up logically invalidated nodes" (Section III-D3).

The MDList maps each priority to a **D-dimensional coordinate vector** (a
base-:math:`N` decomposition of the key), arranging nodes into an ordered
D-dimensional grid: a node's children array has one slot per dimension, and
coordinate order equals priority order.  Operations:

* ``push`` — descend dimension-by-dimension (one integer quotient per
  dimension) to the predecessor and splice the new node in (one CAS at the
  attach point).  Cost is O(D + N^(1/D)) hops — logarithmic-ish, matching
  Table I's ``L·log(N) + W`` for push.
* ``pop_min`` — the minimum is the first live node in preorder (hops: the
  marked nodes before it, plus one); nodes are *logically* deleted (marked)
  and a **purge pass** physically unlinks them once their count passes a
  threshold, exactly the paper's background-purge behaviour.  Each purged
  node is spliced out Zhang-Dechev style — its successor takes its slot and
  adopts its children — and found through its parent link, so a purge
  costs O(D) relinks per purged node, not a pass over the live ones.  Stats
  expose hops and purged counts.
* ``push_many`` / ``pop_many`` — the vector forms, one call and one
  :class:`OpStats` per batch (the sum of the per-op ones); ``push`` and
  ``pop_min`` are their one-element case.

Duplicate priorities are allowed (each node carries a FIFO list of values,
resolving "conflicts based on arrival time and priority").
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.structures.stats import OpStats

__all__ = ["MDListPriorityQueue", "PriorityQueueEmpty"]


class PriorityQueueEmpty(Exception):
    """pop on an empty priority queue."""


class _MNode:
    __slots__ = ("key", "values", "children", "marked", "parent", "pdim")

    def __init__(self, key: int, dims: int):
        self.key = key
        self.values: List[Any] = []  # FIFO among equal priorities
        self.children: List[Optional[_MNode]] = [None] * dims
        self.marked = False
        # the node this one hangs from, at ``parent.children[pdim]``
        self.parent: Optional[_MNode] = None
        self.pdim = 0


class MDListPriorityQueue:
    """Min-priority queue over integer priorities (lower pops first).

    ``dims`` and ``base`` set the coordinate space: priorities must fit in
    ``base ** dims``.  The default (8 dims, base 16) covers 32-bit
    priorities with at most ``8 + 16`` hops per operation.
    """

    PURGE_THRESHOLD = 64

    def __init__(self, dims: int = 8, base: int = 16):
        if dims < 1 or base < 2:
            raise ValueError("dims must be >= 1 and base >= 2")
        self.dims = dims
        self.base = base
        self.key_limit = base ** dims
        # key // _divs[d] is the coordinate prefix through dimension d
        self._divs = tuple(base ** (dims - 1 - d) for d in range(dims))
        # key -1 floors below every real prefix in every dimension
        self._head = _MNode(-1, dims)  # sentinel below all keys
        self._head.marked = True
        self._count = 0
        self._marked: List[_MNode] = []  # logically deleted, not yet purged
        # the suspended min walk: (last node visited, preorder stack, hops)
        self._walk: Optional[Tuple[_MNode, List[_MNode], int]] = None
        self.purges_total = 0

    def __len__(self) -> int:
        return self._count

    # -- coordinates ------------------------------------------------------------
    def coordinate(self, key: int) -> Tuple[int, ...]:
        """Base-N decomposition, most-significant dimension first."""
        if not 0 <= key < self.key_limit:
            raise ValueError(
                f"priority {key} outside [0, {self.key_limit}) for "
                f"dims={self.dims}, base={self.base}"
            )
        return tuple(key // div % self.base for div in self._divs)

    # -- push -----------------------------------------------------------------------
    def push(self, key: int, value: Any) -> OpStats:
        return self.push_many(((key, value),))

    def push_many(self, entries: Iterable[Tuple[int, Any]]) -> OpStats:
        """Push each ``(priority, value)`` in order; one :class:`OpStats`
        for the batch, the sum of the per-push ones: the descent's hops,
        and one write and one CAS per push (the append, or the
        attach-point CAS)."""
        limit = self.key_limit
        dims = self.dims
        locate = self._locate
        splice = self._splice
        hops = pushed = 0
        try:
            for key, value in entries:
                if not 0 <= key < limit:
                    self.coordinate(key)  # raises the range error
                node, parent, dim, adopt_dim, h = locate(key)
                hops += h
                if node is not None:
                    # Same priority: append in arrival order.
                    node.values.append(value)
                    if node.marked:
                        node.marked = False
                        self._marked.remove(node)
                else:
                    node = _MNode(key, dims)
                    node.values.append(value)
                    splice(node, parent, dim, adopt_dim)
                pushed += 1
        finally:  # a range error mid-batch keeps the pushed prefix counted
            if pushed:
                self._walk = None
                self._count += pushed
        return OpStats(local_ops=hops, writes=pushed, cas_ops=pushed)

    def _splice(self, fresh: _MNode, pred: _MNode, pred_dim: int,
                adopt_dim: int) -> None:
        """Install ``fresh`` at ``pred.children[pred_dim]``.

        The displaced occupant (if any) is pushed down to
        ``fresh.children[adopt_dim]``, and — the *child adoption* step of
        the Zhang-Dechev algorithm — its children in dimensions
        ``[pred_dim, adopt_dim)`` are transferred to ``fresh``, because a
        node attached at dimension ``adopt_dim`` may only keep children in
        dimensions >= ``adopt_dim``.
        """
        curr = pred.children[pred_dim]
        if curr is not None:
            for j in range(pred_dim, adopt_dim):
                child = curr.children[j]
                if child is not None:
                    fresh.children[j] = child
                    child.parent = fresh
                    curr.children[j] = None
            fresh.children[adopt_dim] = curr
            curr.parent = fresh
            curr.pdim = adopt_dim
        pred.children[pred_dim] = fresh
        fresh.parent = pred
        fresh.pdim = pred_dim

    def _locate(self, key: int):
        """The Zhang-Dechev predecessor search.

        Returns ``(exact_node_or_None, pred, pred_dim, adopt_dim, hops)``:
        a new node for ``key`` belongs in ``pred.children[pred_dim]``
        (the slot ``curr`` currently occupies), adopting the displaced
        ``curr`` at dimension ``adopt_dim``.

        The walk advances one dimension at a time: while the key exceeds
        the current node in dimension ``d``, follow ``children[d]``; on a
        tie, *stay on the node* and move to dimension ``d+1`` (the node's
        higher-dimension children cover keys sharing its coordinate
        prefix); when the key is smaller, the insertion point is found.
        Every node on the walk shares the key's prefix before ``d``, so
        comparing digit ``d`` is comparing prefixes ``key // _divs[d]``.
        """
        pred = curr = self._head
        pred_dim = 0
        hops = 0
        for d, div in enumerate(self._divs):
            q = key // div
            while curr is not None:
                cq = curr.key // div
                if q < cq:
                    return None, pred, pred_dim, d, hops
                if q == cq:
                    break  # equal in dimension d: descend a dimension in place
                pred, pred_dim = curr, d
                curr = curr.children[d]
                hops += 1
            else:
                return None, pred, pred_dim, d, hops
        return curr, pred, pred_dim, self.dims - 1, hops

    # -- pop ---------------------------------------------------------------------------
    def pop_min(self) -> Tuple[int, Any, OpStats]:
        """Remove and return ``(priority, value)`` of the minimum."""
        if self._count == 0:
            raise PriorityQueueEmpty()
        ((key, value),), stats = self.pop_many(1)
        return key, value, stats

    def pop_many(self, count: int) -> Tuple[List[Tuple[int, Any]], OpStats]:
        """Pop up to ``count`` minima, in order, as ``(priority, value)``
        pairs; one :class:`OpStats` for the batch, the sum of the per-pop
        ones: the walk's hops, one read and one deletion-mark CAS per pop,
        and the nodes any purge removed."""
        out: List[Tuple[int, Any]] = []
        append = out.append
        find_min = self._find_min
        marked = self._marked
        threshold = self.PURGE_THRESHOLD
        hops = purged = 0
        for _ in range(min(count, self._count)):
            node, h = find_min()
            hops += h
            values = node.values
            append((node.key, values.pop(0)))
            if not values:
                node.marked = True
                marked.append(node)
                if len(marked) >= threshold:
                    purged += self._purge()
        popped = len(out)
        self._count -= popped
        return out, OpStats(local_ops=hops, reads=popped, cas_ops=popped,
                            relocations=purged)

    def peek_min(self) -> Tuple[int, Any]:
        if self._count == 0:
            raise PriorityQueueEmpty()
        node, _hops = self._find_min()
        return node.key, node.values[0]

    def _preorder(self) -> List[_MNode]:
        """Every node in *sorted key order*, the head first.

        Pre-order with children visited from the highest dimension down
        enumerates coordinates lexicographically: a node precedes all its
        children, the dimension-``d`` child subtree precedes the
        dimension-``d-1`` one.
        """
        out = []
        stack = [self._head]
        while stack:
            node = stack.pop()
            out.append(node)
            # Push dim 0 first so the highest dimension pops (visits) first.
            stack.extend(filter(None, node.children))
        return out

    def _find_min(self) -> Tuple[Optional[_MNode], int]:
        """First unmarked node in sorted order and the preorder hops to it.

        Skips logically-deleted nodes, whose accumulation the purge pass
        bounds.  Pops only mark nodes, so the walk resumes from where it
        last stopped (the hops are what a walk from the head would count);
        a push or purge drops it and the next call starts from the head.
        """
        if self._walk is None:
            node, stack, hops = self._head, [], 0
        else:
            node, stack, hops = self._walk
            if not node.marked:
                return node, hops
        while True:
            stack.extend(filter(None, node.children))
            if not stack:
                self._walk = None
                return None, hops
            node = stack.pop()
            hops += 1
            if not node.marked:
                self._walk = (node, stack, hops)
                return node, hops

    def _purge(self) -> int:
        """Physically unlink the marked nodes (the background purge pass).

        Zhang-Dechev deletion with child adoption.  A marked node ``N`` at
        ``pred.children[j]`` whose highest child is in dimension ``k`` is
        replaced there by that child ``S`` — its sorted successor, sharing
        its prefix through dimension ``k-1`` — and ``S`` adopts ``N``'s
        children in dimensions ``[j, k)``; a childless ``N`` just empties
        its slot.  Every other node keeps its parent and the result is the
        canonical shape ``check_invariants`` checks, so the nodes go in any
        order, each found through its parent link: O(D) relinks per purged
        node, whatever the live count.  Returns the number of nodes removed.
        """
        top = self.dims - 1
        for node in self._marked:
            pred = node.parent
            j = node.pdim
            children = node.children
            k = top
            while k >= j and children[k] is None:
                k -= 1
            if k < j:
                pred.children[j] = None
            else:
                succ = children[k]
                for d in range(j, k):
                    child = children[d]
                    if child is not None:
                        succ.children[d] = child
                        child.parent = succ
                pred.children[j] = succ
                succ.parent = pred
                succ.pdim = j
        removed = len(self._marked)
        self._marked.clear()  # in place: pop_many holds this list
        self._walk = None
        self.purges_total += 1
        return removed

    # -- introspection ----------------------------------------------------------------
    def items(self) -> Iterator[Tuple[int, Any]]:
        """All live (priority, value) pairs, in priority order."""
        for node in self._preorder():
            if not node.marked:
                for v in node.values:
                    yield node.key, v

    def check_invariants(self) -> None:
        """Order, counts, and the canonical shape: the shape is a function
        of the key set — a node whose coordinate first differs from its
        sorted predecessor's in dimension ``j`` is ``children[j]`` of the
        first node of the block it shares with that predecessor — and
        every node's ``parent``/``pdim`` link names that slot."""
        nodes = self._preorder()
        parents = {}
        for node in nodes:
            for d, child in enumerate(node.children):
                if child is not None:
                    assert child not in parents, "node linked twice"
                    parents[child] = (node, d)
        live = 0
        marked = []
        firsts = [self._head] * self.dims
        prev = tuple([-1] * self.dims)
        for node in nodes[1:]:
            coord = self.coordinate(node.key)
            assert coord > prev, f"preorder not sorted: {coord} after {prev}"
            j = next(d for d in range(self.dims) if coord[d] != prev[d])
            parent, dim = parents[node]
            assert parent is firsts[j] and dim == j, (
                f"{node.key} hangs at {parent.key}[{dim}], "
                f"not {firsts[j].key}[{j}]"
            )
            assert node.parent is parent and node.pdim == dim, (
                f"{node.key}'s parent link says "
                f"{getattr(node.parent, 'key', None)}[{node.pdim}], "
                f"it hangs at {parent.key}[{dim}]"
            )
            firsts[j:] = [node] * (self.dims - j)
            prev = coord
            if node.marked:
                marked.append(node)
            else:
                live += len(node.values)
        assert live == self._count, f"live values {live} != count {self._count}"
        assert len(set(self._marked)) == len(self._marked), (
            "a node listed as marked twice"
        )
        assert set(marked) == set(self._marked), (
            f"marked nodes {sorted(n.key for n in marked)} != marked list "
            f"{sorted(n.key for n in self._marked)}"
        )
