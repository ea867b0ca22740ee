"""The op table, the policy validator and the single bind path.

Every container family is described by one table in ``core/container.py``;
these tests keep the table, the bound functions and the derived views in
agreement, drive ``ContainerPolicy.validate`` through all six factories,
and pin the ``add_partition`` replica-handler regression.
"""

import pytest

from repro.core import (
    HCLMap,
    HCLPriorityQueue,
    HCLQueue,
    HCLSet,
    HCLUnorderedMap,
    HCLUnorderedSet,
)
from repro.core.container import OP_TABLES, DistributedContainer

FAMILIES = {
    "unordered_map": HCLUnorderedMap,
    "unordered_set": HCLUnorderedSet,
    "map": HCLMap,
    "set": HCLSet,
    "queue": HCLQueue,
    "priority_queue": HCLPriorityQueue,
}
KEYED = ("unordered_map", "unordered_set", "map", "set")


class TestOpTable:
    def test_one_table_per_factory(self):
        assert set(OP_TABLES) == set(FAMILIES)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rows_agree_with_class(self, family):
        cls = FAMILIES[family]
        table = OP_TABLES[family]
        assert cls.OPS is table
        assert cls.OPERATIONS == tuple(row.name for row in table)
        assert len(set(cls.OPERATIONS)) == len(table), "duplicate row"
        for row in table:
            assert callable(getattr(cls, f"_do_{row.name}")), row.name
            assert row.write == (row.name not in cls.READ_ONLY_OPS)
            assert row.keyed == (row.name in cls.KEYED_MUTATIONS)
            if row.keyed:
                assert row.write and row.arity >= 1
            if row.cached:
                assert not row.write and row.arity >= 1

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_row_is_bound_on_every_hosting_node(self, hcl, family):
        container = getattr(hcl, family)("c")
        for part in container.partitions:
            registry = hcl.server(part.node_id).registry
            for op in container.OPERATIONS:
                assert f"c.{op}" in registry

    def test_views_are_derived_from_the_tables(self):
        rows = [row for table in OP_TABLES.values() for row in table]
        assert DistributedContainer.READ_ONLY_OPS == {
            r.name for r in rows if not r.write}
        assert DistributedContainer.KEYED_MUTATIONS == {
            r.name for r in rows if r.keyed}

    @pytest.mark.parametrize("family", KEYED)
    def test_async_find_spellings_are_one_function(self, family):
        cls = FAMILIES[family]
        assert cls.async_find is cls.find_async

    def test_wrong_arity_is_a_type_error_at_the_call_site(self, hcl):
        m = hcl.unordered_map("m")
        s = hcl.unordered_set("s")
        with pytest.raises(TypeError):
            m.insert(0, "key-without-value")
        with pytest.raises(TypeError):
            s.insert(0, "key", "unexpected-value")


BAD_POLICIES = [
    dict(write_failover=True),
    dict(concurrency="optimistic"),
    dict(aggregation=-1),
    dict(aggregation=2.5),
    dict(aggregation="adaptive"),
    dict(recover=True),
]


class TestContainerPolicy:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize(
        "bad", BAD_POLICIES, ids=lambda kw: ",".join(sorted(kw)))
    def test_incompatible_switches_rejected(self, hcl, family, bad):
        with pytest.raises(ValueError):
            getattr(hcl, family)("c", **bad)
        # Rejected before anything was allocated: the name is still free.
        assert "c" not in hcl.containers
        getattr(hcl, family)("c")

    @pytest.mark.parametrize("family", ["queue", "priority_queue"])
    @pytest.mark.parametrize(
        "bad", [dict(replication=1),
                dict(replication=1, write_failover=True)],
        ids=["replication", "write_failover"])
    def test_single_partition_families_cannot_replicate(self, hcl, family,
                                                        bad):
        with pytest.raises(ValueError, match="single-partition"):
            getattr(hcl, family)("q", **bad)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_unknown_switch_is_a_type_error(self, hcl, family):
        # codec= is a removed knob: msgpack is the only DataBox backend
        for unknown in (dict(batch_size=4), dict(codec="msgpack")):
            with pytest.raises(TypeError):
                getattr(hcl, family)("c", **unknown)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_keywords_land_in_the_policy(self, hcl, family):
        c = getattr(hcl, family)("c", aggregation="auto", read_cache=True,
                                 aggregation_bytes=4096)
        assert c.policy.aggregation == "auto"
        assert c.policy.aggregation_bytes == 4096
        assert c._coalescer.auto and c._coalescer.max_bytes == 4096
        assert c._cache is not None


class TestAddPartitionBindsReplicaHandlers:
    """``add_partition`` onto a node that hosted nothing used to bind the
    primary handlers only, so every fire-and-forget replica write aimed at
    the new partition was dropped as "no such op"."""

    @pytest.mark.parametrize("family", ["unordered_map", "unordered_set"])
    def test_replicas_reach_a_partition_added_on_a_fresh_node(self, hcl4,
                                                              family):
        c = getattr(hcl4, family)("c", partitions=2, nodes=[0, 1],
                                  replication=1)

        def body(rank):
            yield from c.add_partition(rank, 2)
            for i in range(200):
                entry = (f"k{i}", i) if c.STORES_VALUES else (f"k{i}",)
                yield from c.insert(rank, *entry)

        hcl4.run_ranks(body, ranks=range(1))
        registry = hcl4.server(2).registry
        assert "c.insert:replica" in registry
        # Each key lives on its primary and on the next partition.
        assert c.total_entries() == 400
