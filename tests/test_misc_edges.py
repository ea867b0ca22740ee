"""Edge-case coverage: container count, MDList sizing, simnet corner paths."""

import pytest

from repro.structures.mdlist import MDListPriorityQueue


class TestContainerCount:
    def test_hash_count(self, hcl4, drive):
        m = hcl4.unordered_map("m", partitions=4)

        def body(rank):
            for i in range(5):
                yield from m.insert(rank, (rank, i), i)

        hcl4.run_ranks(body)

        def counter(rank):
            return (yield from m.count(rank))

        proc = hcl4.cluster.spawn(counter(0))
        hcl4.cluster.run()
        assert proc.result == 16 * 5

    def test_ordered_count(self, hcl, drive):
        om = hcl.map("om", partitions=2)

        def body():
            for i in range(9):
                yield from om.insert(0, i, i)
            return (yield from om.count(0))

        assert drive(hcl, body()) == 9

    def test_empty_count(self, hcl, drive):
        m = hcl.unordered_map("m")

        def body():
            return (yield from m.count(0))

        assert drive(hcl, body()) == 0


class TestMDListSizing:
    """``dims`` base-16 digits cover a key space: the fewest that hold
    ``max_key`` take it as a priority, one fewer cannot."""

    @pytest.mark.parametrize("max_key,expect_dims", [
        (0, 1), (15, 1), (16, 2), (255, 2), (256, 3), (1 << 32, 9),
    ])
    def test_for_key_space(self, max_key, expect_dims):
        pq = MDListPriorityQueue(dims=expect_dims)
        assert pq.key_limit > max_key
        if expect_dims > 1:
            assert MDListPriorityQueue(dims=expect_dims - 1).key_limit <= max_key
        pq.push(max_key, "edge")
        assert pq.pop_min()[:2] == (max_key, "edge")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MDListPriorityQueue().push(-1, "below")


class TestSimnetEdges:
    def test_resource_use_releases_on_exception(self, sim):
        from repro.simnet import Resource

        res = Resource(sim, capacity=1)

        def failing():
            try:
                yield res.claim()
                try:
                    yield sim.timeout(1.0)
                    raise RuntimeError("boom")
                finally:
                    res.release_slot()
            except RuntimeError:
                return "handled"

        assert sim.run_process(failing()) == "handled"
        assert res.in_use == 0  # released despite the exception

    def test_store_get_cancel_not_supported_but_harmless(self, sim):
        """A dangling getter simply never fires; the sim drains clean."""
        from repro.simnet import Store

        store = Store(sim)
        ev = store.get()
        sim.run()
        assert not ev.triggered

    def test_gauge_negative_values(self):
        from repro.simnet import Gauge

        g = Gauge("g")
        g.add(-5)
        assert g.value == -5 and g.peak == 0

    def test_event_repr_and_process_repr(self, sim):
        ev = sim.event()
        assert "pending" in repr(ev)

        def body():
            yield sim.timeout(0)

        proc = sim.process(body(), name="p1")
        assert "p1" in repr(proc)
        sim.run()
        assert "done" in repr(proc)
