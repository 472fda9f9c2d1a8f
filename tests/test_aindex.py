"""Tests for the A' index: insertion, consistency, deletion, lineage."""

import pytest

from repro.core.aindex import AIndex
from repro.model.objects import GlobalKey
from repro.model.prelations import PRelation, RelationType


def key(name: str) -> GlobalKey:
    return GlobalKey("db" + name, "c", name)


A, B, C, D = key("a"), key("b"), key("c"), key("d")


class TestBasics:
    def test_empty(self):
        index = AIndex()
        assert index.node_count() == 0
        assert index.edge_count() == 0
        assert index.neighbors(A) == []

    def test_add_and_neighbors(self):
        index = AIndex()
        index.add(PRelation.identity(A, B, 0.9))
        assert index.node_count() == 2
        assert index.edge_count() == 1
        neighbors = index.neighbors(A)
        assert neighbors[0].key == B
        assert neighbors[0].probability == 0.9
        assert neighbors[0].type is RelationType.IDENTITY

    def test_neighbors_filtered_by_type(self):
        index = AIndex()
        index.add(PRelation.identity(A, B, 0.9))
        index.add(PRelation.matching(A, C, 0.7))
        assert len(index.neighbors(A, RelationType.IDENTITY)) == 1
        assert len(index.neighbors(A, RelationType.MATCHING)) == 1

    def test_relation_lookup_both_directions(self):
        index = AIndex()
        index.add(PRelation.matching(A, B, 0.6))
        assert index.relation(A, B).probability == 0.6
        assert index.relation(B, A).probability == 0.6
        assert index.relation(A, C) is None

    def test_contains_and_degree(self):
        index = AIndex()
        index.add(PRelation.identity(A, B, 0.9))
        assert A in index and B in index and C not in index
        assert index.degree(A) == 1
        assert index.degree(C) == 0

    def test_reinsert_keeps_higher_probability(self):
        index = AIndex()
        index.add(PRelation.matching(A, B, 0.6))
        index.add(PRelation.matching(A, B, 0.8))
        assert index.relation(A, B).probability == 0.8
        index.add(PRelation.matching(A, B, 0.3))
        assert index.relation(A, B).probability == 0.8

    def test_identity_supersedes_matching(self):
        index = AIndex()
        index.add(PRelation.matching(A, B, 0.8))
        index.add(PRelation.identity(A, B, 0.92))
        assert index.relation(A, B).type is RelationType.IDENTITY
        # And matching cannot demote an identity.
        index.add(PRelation.matching(A, B, 0.99))
        assert index.relation(A, B).type is RelationType.IDENTITY


class TestConsistencyCondition:
    def test_identity_transitivity_materialized(self):
        """Example 7: probabilities multiply along the inferring path."""
        index = AIndex()
        index.add(PRelation.identity(A, B, 0.85))
        index.add(PRelation.identity(B, C, 0.8))
        inferred = index.relation(A, C)
        assert inferred is not None
        assert inferred.type is RelationType.IDENTITY
        assert inferred.probability == pytest.approx(0.68)

    def test_identity_clique_forms(self):
        index = AIndex()
        index.add(PRelation.identity(A, B, 0.9))
        index.add(PRelation.identity(B, C, 0.9))
        index.add(PRelation.identity(C, D, 0.9))
        # All six pairs of the 4-clique exist.
        assert index.edge_count() == 6

    def test_matching_propagates_over_new_identity(self):
        """o1 = o2 and o2 ~ o3 implies o1 = o3."""
        index = AIndex()
        index.add(PRelation.matching(A, B, 0.7))
        index.add(PRelation.identity(B, C, 0.9))
        propagated = index.relation(A, C)
        assert propagated is not None
        assert propagated.type is RelationType.MATCHING
        assert propagated.probability == pytest.approx(0.63)

    def test_new_matching_propagates_over_existing_identity(self):
        index = AIndex()
        index.add(PRelation.identity(B, C, 0.9))
        index.add(PRelation.matching(A, B, 0.7))
        propagated = index.relation(A, C)
        assert propagated is not None
        assert propagated.type is RelationType.MATCHING

    def test_matching_reaches_whole_identity_class(self):
        index = AIndex()
        index.add(PRelation.identity(B, C, 0.9))
        index.add(PRelation.identity(C, D, 0.9))
        index.add(PRelation.matching(A, B, 0.7))
        assert index.relation(A, C) is not None
        assert index.relation(A, D) is not None

    def test_enforcement_can_be_disabled(self):
        index = AIndex(enforce_consistency=False)
        index.add(PRelation.identity(A, B, 0.9))
        index.add(PRelation.identity(B, C, 0.9))
        assert index.relation(A, C) is None

    def test_inferred_edges_marked(self):
        index = AIndex()
        index.add(PRelation.identity(A, B, 0.9))
        index.add(PRelation.identity(B, C, 0.9))
        assert index.is_inferred(A, C)
        assert not index.is_inferred(A, B)


class TestDeletion:
    def build(self) -> AIndex:
        index = AIndex()
        index.add(PRelation.identity(A, B, 0.9))
        index.add(PRelation.identity(B, C, 0.8))
        index.add(PRelation.matching(C, D, 0.6))
        return index

    def test_remove_object_drops_incident_edges(self):
        index = self.build()
        # B is connected to A and C (identities) and to D (the matching
        # propagated over the identity class by the Consistency Condition).
        removed = index.remove_object(B)
        assert removed == 3
        assert B not in index
        assert index.neighbors(A) != []  # A -- C inferred edge survives
        assert index.relation(A, B) is None

    def test_remove_object_keeps_inferred_edges(self):
        """The paper's strategy: relations inferred via x survive x."""
        index = self.build()
        assert index.relation(A, C) is not None
        index.remove_object(B)
        assert index.relation(A, C) is not None

    def test_remove_missing_object_is_noop(self):
        index = self.build()
        assert index.remove_object(key("zz")) == 0

    def test_remove_relation(self):
        index = self.build()
        assert index.remove_relation(C, D) == 1
        assert index.relation(C, D) is None
        assert index.remove_relation(C, D) == 0

    def test_cascading_delete_follows_lineage(self):
        """The 'data oblivion' extension: cascade inferred relations."""
        index = self.build()
        removed = index.remove_relation(A, B, cascade=True)
        # A--B itself plus the A--C (and possibly A--D) edges inferred
        # through it.
        assert removed >= 2
        assert index.relation(A, C) is None

    def test_non_cascading_delete_keeps_inferred(self):
        index = self.build()
        index.remove_relation(A, B, cascade=False)
        assert index.relation(A, C) is not None


class TestExcise:
    """``excise`` is the rebuild primitive of incremental maintenance:
    nodes, incident edges, and every lineage trace of them go at once."""

    def build(self) -> AIndex:
        index = AIndex()
        index.add(PRelation.identity(A, B, 0.9))
        index.add(PRelation.identity(B, C, 0.8))  # infers A ~ C via B
        index.add(PRelation.matching(C, D, 0.6))  # propagates to A, B
        return index

    def test_nodes_and_incident_edges_are_gone(self):
        index = self.build()
        assert index.excise([B, C]) == 2
        assert B not in index and C not in index
        assert set(index.nodes()) == {A, D}
        # No stub of an excised node survives on a kept neighbour,
        # whichever partition that neighbour lives in.
        for kept in (A, D):
            assert {n.key for n in index.neighbors(kept)} <= {A, D}
            assert index.relation(kept, B) is None
            assert index.relation(kept, C) is None
        assert index.relation(A, D) is not None
        assert index.edge_count() == 1
        assert index.frozen().neighbors(B) == []

    def test_missing_keys_are_skipped_not_counted(self):
        index = self.build()
        assert index.excise([B, key("zz")]) == 1

    def test_lineage_records_touching_a_target_are_pruned(self):
        index = self.build()
        assert index.is_inferred(A, C)
        assert index.is_inferred(A, D)
        index.excise([C])
        # The record *of* an edge into C is gone with the edge ...
        assert not index.is_inferred(A, C)
        assert not index.is_inferred(B, C)
        # ... and A = D, whose only support was C = D, lost its lineage
        # entry once that support was pruned, though the edge stays.
        assert index.relation(A, D) is not None
        assert not index.is_inferred(A, D)
        for pair, supports in index._lineage.items():
            assert C not in pair
            assert supports
            assert all(C not in support for support in supports)

    def test_stale_supports_go_but_the_record_survives(self):
        """A ~ C derived twice — weakly via B, then strongly via E —
        carries supports through both; excising B prunes only B's."""
        E = key("e")
        index = AIndex()
        index.add(PRelation.identity(A, B, 0.5))
        index.add(PRelation.identity(B, C, 0.5))
        index.add(PRelation.identity(A, E, 0.9))
        index.add(PRelation.identity(C, E, 0.9))
        before = set(index._lineage[(A, C)])
        via_b = {support for support in before if B in support}
        assert via_b and before - via_b
        index.excise([B])
        assert index._lineage[(A, C)] == before - via_b
        assert index.is_inferred(A, C)

    def test_exactly_one_generation_bump(self):
        index = self.build()
        before = index.generation
        index.excise([B, C, D])
        assert index.generation == before + 1

    def test_empty_set_is_a_noop_without_bump(self):
        index = self.build()
        before = index.generation
        snapshot = index.frozen()
        assert index.excise([]) == 0
        assert index.excise(iter(())) == 0
        assert index.generation == before
        assert index.frozen() is snapshot

    def test_unknown_keys_do_not_bump(self):
        index = self.build()
        before = index.generation
        assert index.excise([key("zz")]) == 0
        assert index.generation == before

    def test_rebuild_after_excise_matches_fresh_build(self):
        """The maintainer's use: excise a component, re-add its base
        relations, land on the state a fresh build produces."""
        index = self.build()
        index.excise([A, B, C, D])
        assert index.node_count() == 0 and index.edge_count() == 0
        index.add(PRelation.identity(A, B, 0.9))
        index.add(PRelation.identity(B, C, 0.8))
        index.add(PRelation.matching(C, D, 0.6))
        fresh = self.build()
        for node in (A, B, C, D):
            assert index.neighbors(node) == fresh.neighbors(node)
        assert index._lineage == fresh._lineage

