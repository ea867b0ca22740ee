"""The MDList purge: physical unlink with child adoption, against a rebuild.

``MDListPriorityQueue._purge`` splices each marked node out of the list
(Zhang-Dechev deletion: the node's successor takes its slot and adopts its
children).  The oracle below is the purge it replaced: take the live nodes
in sorted order and re-link them into the canonical shape from scratch.  Both must leave the same preorder — key,
marked flag, values and child keys of every node — after every purge, for
any marked set: re-pushes of popped keys and pushes below popped keys make
the marked set something other than a sorted prefix of the keys.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.structures.mdlist import MDListPriorityQueue, _MNode

GEOMETRIES = [(2, 4), (3, 4), (9, 8), (8, 16)]


def rebuilt(dims, base, live):
    """Oracle: the rebuild purge, re-linking ``live`` (key -> values) in
    sorted order — a node first differing from its predecessor in
    dimension ``j`` hangs at ``children[j]`` of the first node of the block
    it shares with that predecessor.  Returns the new head."""
    divs = tuple(base ** (dims - 1 - d) for d in range(dims))
    head = _MNode(-1, dims)
    head.marked = True
    firsts = [head] * dims  # firsts[d]: first node of the current d-block
    prev = -1
    for key in sorted(live):
        node = _MNode(key, dims)
        node.values = list(live[key])
        j = 0
        for div in divs:
            if key // div != prev // div:
                break
            j += 1
        firsts[j].children[j] = node
        firsts[j:] = [node] * (dims - j)
        prev = key
    return head


def shape(head):
    """Every node in preorder, head first: key, marked, values, children."""
    out = []
    stack = [head]
    while stack:
        node = stack.pop()
        out.append((node.key, node.marked, list(node.values),
                    [None if c is None else c.key for c in node.children]))
        stack.extend(c for c in node.children if c is not None)
    return out


def play(dims, base, threshold, keys, ops):
    """Run ``ops`` — ``(pop?, index into keys)`` — on a queue purging every
    ``threshold`` marks, checking every pop against a model and every purge
    against the oracle.  Returns the purge count and how many of those
    purges removed a marked set that was not a sorted prefix."""
    pq = MDListPriorityQueue(dims=dims, base=base)
    pq.PURGE_THRESHOLD = threshold
    live = {}  # the model: key -> values still queued, in arrival order
    purges = non_prefix = 0
    for value, (is_pop, i) in enumerate(ops):
        if not is_pop:
            pq.push(keys[i], value)
            live.setdefault(keys[i], []).append(value)
            continue
        if not live:
            continue
        marked = [node.key for node in pq._marked]
        key, got, stats = pq.pop_min()
        want = min(live)
        assert (key, got) == (want, live[want].pop(0))
        if not live[want]:
            del live[want]
        if not stats.relocations:
            continue
        purges += 1
        assert stats.relocations == len(marked) + 1
        if live and max(marked + [key]) > min(live):
            non_prefix += 1
        assert shape(pq._head) == shape(rebuilt(dims, base, live))
        assert pq._marked == []
        pq.check_invariants()
    pq.check_invariants()
    assert pq.purges_total == purges
    return purges, non_prefix


@st.composite
def traces(draw):
    dims, base = draw(st.sampled_from(GEOMETRIES))
    threshold = draw(st.integers(2, 12))
    # keys from a window spanning the last one, two or three dimensions,
    # so they share coordinate prefixes and nodes have children in several
    span = min(draw(st.sampled_from([base, base ** 2, base ** 3])),
               base ** dims)
    lo = draw(st.integers(0, base ** dims - span))
    keys = draw(st.lists(st.integers(lo, lo + span - 1), min_size=1,
                         max_size=3 * threshold, unique=True))
    ops = draw(st.lists(st.tuples(st.booleans(),
                                  st.integers(0, len(keys) - 1)),
                        min_size=10, max_size=300))
    return dims, base, threshold, keys, ops


@given(traces())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_unlink_purge_equals_rebuild(trace):
    play(*trace)


def test_seeded_traces_purge_non_prefix_marked_sets():
    """The property's driver reaches what it claims to: on every geometry,
    at threshold 2 and above, purges of marked sets that are not a sorted
    prefix, each matching the rebuild."""
    rng = random.Random(26)
    for dims, base in GEOMETRIES:
        for threshold in (2, 3, 8):
            keys = rng.sample(range(base ** dims), min(base ** dims,
                                                       3 * threshold))
            ops = [(rng.random() < 0.45, rng.randrange(len(keys)))
                   for _ in range(600)]
            purges, non_prefix = play(dims, base, threshold, keys, ops)
            assert purges >= 3 and non_prefix >= 1, (dims, base, threshold)


def test_unmark_leaves_the_marked_list():
    """A push that revives a marked node takes it off ``_marked``: one key
    pushed and popped 10 000 times never holds more than one mark, and
    never reaches the purge threshold."""
    pq = MDListPriorityQueue(dims=3, base=4)
    for i in range(10_000):
        pq.push(7, i)
        assert pq.pop_min()[:2] == (7, i)
        assert len(pq._marked) <= 1
    assert pq.purges_total == 0
    pq.check_invariants()

