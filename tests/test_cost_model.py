"""Tests for the I/O cost model and the predicted-cost lower bound."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Query
from repro.core.bitset import iter_subsets
from repro.cost.io_model import CostModel, DEFAULT_BUFFER_PAGES, external_sort_cost
from repro.cost.lower_bounds import scan_lower_bound, subtree_lower_bound
from repro.workloads import chain, cycle, random_connected_graph, star
from repro.workloads.weights import weighted_query


@pytest.fixture
def model():
    return CostModel()


@pytest.fixture
def query():
    return Query.uniform(chain(4), cardinality=10_000, selectivity=0.001)


class TestSortCost:
    def test_in_memory(self):
        assert external_sort_cost(50, 102) == 100.0

    def test_external_single_merge(self):
        # 1000 pages, 102-page buffer: 10 runs, one merge pass.
        assert external_sort_cost(1000, 102) == 4000.0

    def test_monotone_in_pages(self):
        costs = [external_sort_cost(p, 102) for p in (10, 100, 1000, 100_000)]
        assert costs == sorted(costs)

    def test_buffer_validation(self):
        with pytest.raises(ValueError):
            CostModel(buffer_pages=2)


class TestScans:
    def test_scan_cost_is_pages(self, model, query):
        [scan] = model.scan_plans(query, 0b0001, None)
        assert scan.cost == query.relations[0].pages
        assert scan.cardinality == 10_000
        assert scan.op == "scan"
        assert scan.relation == "R0"

    def test_ordered_scan_unavailable(self, model, query):
        assert model.scan_plans(query, 0b0001, order=0) == []


class TestJoins:
    def test_three_methods(self, model):
        assert [m.op for m in model.JOIN_METHODS] == ["bnl", "hash", "smj"]

    def test_bnl_formula(self, model):
        # 100 outer pages fit in one buffer load (B-2 = 100).
        assert model.join_operator_cost(model.JOIN_METHODS[0], 100, 50) == 150.0
        # 101 pages need two loads.
        assert model.join_operator_cost(model.JOIN_METHODS[0], 101, 50) == 201.0

    def test_hash_formula(self, model):
        assert model.join_operator_cost(model.JOIN_METHODS[1], 10, 20) == 90.0

    def test_smj_includes_sorts(self, model):
        smj = model.JOIN_METHODS[2]
        expected = external_sort_cost(10, DEFAULT_BUFFER_PAGES) + external_sort_cost(
            20, DEFAULT_BUFFER_PAGES
        ) + 30
        assert model.join_operator_cost(smj, 10, 20) == expected

    def test_bnl_asymmetry(self, model):
        """Nested loops prefers the smaller input as the outer side."""
        small_outer = model.join_operator_cost(model.JOIN_METHODS[0], 100, 10_000)
        large_outer = model.join_operator_cost(model.JOIN_METHODS[0], 10_000, 100)
        assert small_outer != large_outer

    def test_build_join_accumulates_children(self, model, query):
        [left] = model.scan_plans(query, 0b0001, None)
        [right] = model.scan_plans(query, 0b0010, None)
        for method in model.JOIN_METHODS:
            plan = model.build_join(query, method, left, right)
            operator = model.join_operator_cost(
                method, query.pages(0b0001), query.pages(0b0010)
            )
            assert plan.cost == pytest.approx(left.cost + right.cost + operator)
            assert plan.vertices == 0b0011
            assert plan.cardinality == pytest.approx(query.cardinality(0b0011))

    def test_smj_output_order(self, model, query):
        smj = model.JOIN_METHODS[2]
        assert model.join_output_order(query, smj, 0b0001, 0b0010) == 0
        assert model.join_output_order(query, smj, 0b0010, 0b0001) == 1
        # Unordered methods produce no order.
        assert model.join_output_order(query, model.JOIN_METHODS[0], 1, 2) is None

    def test_output_order_matches_sorted_selectivity_walk(self, model):
        """Walking ``query.edge_items`` finds the same first crossing
        predicate as sorting ``query.selectivity`` on every call did."""

        def reference(query, left, right):
            for (u, v), _sel in sorted(query.selectivity.items()):
                if left >> u & 1 and right >> v & 1:
                    return u
                if left >> v & 1 and right >> u & 1:
                    return v
            return None

        q = weighted_query(cycle(6), 11)
        smj = model.JOIN_METHODS[2]
        full = q.graph.all_vertices
        pairs = 0
        for left in iter_subsets(full, proper=True):
            for right in iter_subsets(full & ~left):
                assert model.join_output_order(q, smj, left, right) == reference(
                    q, left, right
                ), (left, right)
                pairs += 1
        assert pairs == 3**6 - 2 * 2**6 + 1  # every ordered disjoint pair

    def test_sort_enforcer(self, model, query):
        [scan] = model.scan_plans(query, 0b0001, None)
        sorted_plan = model.build_sort(query, scan, order=0)
        assert sorted_plan.order == 0
        assert sorted_plan.op == "sort"
        assert sorted_plan.cost > scan.cost


class TestLowerBound:
    def test_base_relations_free(self, model, query):
        assert model.lower_bound(query, 0b0001, 0b0010) == 0.0
        assert scan_lower_bound(query, 0b0001) == 0.0

    def test_intermediates_pay_pages(self, model, query):
        bound = model.lower_bound(query, 0b0011, 0b0100)
        assert bound == pytest.approx(query.pages(0b0011))
        assert subtree_lower_bound(query, 0b0011, 0b1100) == pytest.approx(
            query.pages(0b0011) + query.pages(0b1100)
        )

    @given(st.integers(0, 3000))
    @settings(max_examples=30, deadline=None)
    def test_conservative_for_every_method(self, seed):
        """The Section 4.2 bound never exceeds any join operator's cost."""
        graph = random_connected_graph(6, 0.3, seed)
        query = weighted_query(graph, seed)
        model = CostModel()
        full = graph.all_vertices
        from repro.core.bitset import iter_subsets

        for left in iter_subsets(full, proper=True):
            right = full ^ left
            bound = model.lower_bound(query, left, right)
            for method in model.JOIN_METHODS:
                cost = model.join_operator_cost(
                    method, query.pages(left), query.pages(right)
                )
                assert bound <= cost + 1e-9

    def test_bound_is_finite(self, model):
        q = weighted_query(star(8), 2)
        assert math.isfinite(model.lower_bound(q, 0b0110, 0b1001))
