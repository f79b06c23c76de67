"""Tests for relations, predicates, the catalog builder, and cardinality
estimation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, JoinPredicate, Query, Relation
from repro.core.bitset import iter_subsets, mask_of
from repro.core.joingraph import JoinGraph
from repro.workloads import chain, random_connected_graph, star
from repro.workloads.weights import weighted_query


class TestRelation:
    def test_pages(self):
        r = Relation("R", 1000, tuples_per_page=100)
        assert r.pages == 10.0

    def test_pages_minimum_one(self):
        assert Relation("R", 5).pages == 1.0

    def test_negative_cardinality_rejected(self):
        with pytest.raises(ValueError):
            Relation("R", -1)
        for card in (math.nan, math.inf, -math.inf, float("1e400")):
            with pytest.raises(ValueError, match="non-finite"):
                Relation("R", card)

    def test_bad_packing_rejected(self):
        with pytest.raises(ValueError):
            Relation("R", 10, tuples_per_page=0)


class TestJoinPredicate:
    def test_endpoints_normalized(self):
        assert JoinPredicate(3, 1, 0.5).endpoints() == (1, 3)

    def test_self_join_rejected(self):
        with pytest.raises(ValueError):
            JoinPredicate(2, 2, 0.5)

    def test_selectivity_bounds(self):
        with pytest.raises(ValueError):
            JoinPredicate(0, 1, 0.0)
        with pytest.raises(ValueError):
            JoinPredicate(0, 1, 1.5)
        JoinPredicate(0, 1, 1.0)  # inclusive upper bound is allowed


class TestCatalog:
    def test_build_and_freeze(self):
        cat = Catalog()
        a = cat.add_relation("A", 1000)
        b = cat.add_relation("B", 2000)
        c = cat.add_relation("C", 500)
        cat.add_predicate(a, b, 0.01)
        cat.add_predicate(b, c, 0.1)
        q = Query.from_catalog(cat)
        assert q.n == 3
        assert q.graph.has_edge(a, b)
        assert q.cardinality(mask_of([a, b])) == pytest.approx(1000 * 2000 * 0.01)

    def test_duplicate_relation_rejected(self):
        cat = Catalog()
        cat.add_relation("A", 10)
        with pytest.raises(ValueError):
            cat.add_relation("A", 20)

    def test_duplicate_predicate_rejected(self):
        cat = Catalog()
        cat.add_relation("A", 10)
        cat.add_relation("B", 10)
        cat.add_predicate(0, 1, 0.5)
        with pytest.raises(ValueError):
            cat.add_predicate(1, 0, 0.5)

    def test_unknown_relation_rejected(self):
        cat = Catalog()
        cat.add_relation("A", 10)
        with pytest.raises(ValueError):
            cat.add_predicate(0, 3, 0.5)

    def test_disconnected_catalog_rejected(self):
        cat = Catalog()
        for name in "ABCD":
            cat.add_relation(name, 10)
        cat.add_predicate(0, 1, 0.5)
        cat.add_predicate(2, 3, 0.5)
        with pytest.raises(ValueError):
            Query.from_catalog(cat)

    def test_index_of(self):
        cat = Catalog()
        cat.add_relation("A", 10)
        cat.add_relation("B", 10)
        assert cat.index_of("B") == 1
        with pytest.raises(KeyError):
            cat.index_of("Z")


class TestQuery:
    def test_uniform_constructor(self):
        q = Query.uniform(chain(4), cardinality=100, selectivity=0.1)
        assert q.cardinality(1) == 100
        assert q.cardinality(0b11) == pytest.approx(1000)

    def test_mismatched_relations_rejected(self):
        with pytest.raises(ValueError):
            Query(chain(3), [Relation("A", 1)], {})

    def test_missing_selectivity_rejected(self):
        rels = [Relation(f"R{i}", 10) for i in range(3)]
        with pytest.raises(ValueError):
            Query(chain(3), rels, {(0, 1): 0.5})

    def test_extra_selectivity_rejected(self):
        rels = [Relation(f"R{i}", 10) for i in range(3)]
        with pytest.raises(ValueError):
            Query(chain(3), rels, {(0, 1): 0.5, (1, 2): 0.5, (0, 2): 0.5})

    def test_predicates_roundtrip(self):
        q = Query.uniform(star(4), selectivity=0.25)
        preds = q.predicates()
        assert len(preds) == 3
        assert all(p.selectivity == 0.25 for p in preds)

    def test_describe(self):
        assert "n=4" in Query.uniform(chain(4)).describe()


class TestCardinalityEstimation:
    def test_empty_set(self):
        q = Query.uniform(chain(3))
        assert q.cardinality(0) == 1.0  # empty product

    def test_independence_assumption(self):
        q = Query.uniform(chain(3), cardinality=10, selectivity=0.5)
        # |{0,1,2}| = 10^3 * 0.5^2
        assert q.cardinality(0b111) == pytest.approx(250)

    def test_cartesian_product_no_reduction(self):
        q = Query.uniform(chain(3), cardinality=10, selectivity=0.5)
        assert q.cardinality(0b101) == pytest.approx(100)

    def test_caching_returns_same_value(self):
        """Cached cardinality and pages equal a fresh query's first answer."""
        q = weighted_query(star(6), 3)
        for subset in iter_subsets(q.graph.all_vertices):
            fresh = weighted_query(star(6), 3)
            card, pages = q.cardinality(subset), q.pages(subset)
            assert q.cardinality(subset) == card == fresh.cardinality(subset)
            assert q.pages(subset) == pages == fresh.pages(subset)

    def test_join_selectivity_cross_edges_only(self):
        q = Query.uniform(chain(4), selectivity=0.5)
        assert q.join_selectivity(0b0011, 0b1100) == pytest.approx(0.5)  # edge 1-2
        assert q.join_selectivity(0b0101, 0b1010) == pytest.approx(0.125)  # all 3 edges cross
        assert q.join_selectivity(0b0001, 0b0100) == pytest.approx(1.0)  # no edge crosses

    @given(st.integers(0, 3000))
    @settings(max_examples=40)
    def test_composition_consistency(self, seed):
        """card(S) == card(L) * card(R) * sel(L, R) for any split."""
        g = random_connected_graph(6, 0.4, seed)
        q = weighted_query(g, seed)
        full = g.all_vertices
        for left in iter_subsets(full, proper=True):
            right = full ^ left
            combined = q.cardinality(left) * q.cardinality(right)
            combined *= q.join_selectivity(left, right)
            assert math.isclose(q.cardinality(full), combined, rel_tol=1e-9)

    def test_pages_of_base_and_intermediate(self):
        q = Query.uniform(chain(2), cardinality=1000)
        assert q.pages(0b01) == 10.0
        # Intermediate result: 1000*1000*0.01 = 10000 tuples.
        assert q.pages(0b11) == pytest.approx(100.0)
