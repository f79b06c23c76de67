"""Tests for ``repro.fastpath``: batched costing behind the oracle's back.

The contract under test is *bit-identical parity*: every batch kernel
value equals the scalar model's output exactly (``==``, no tolerance),
every fast-path plan compares equal to the oracle's, and the enumeration
metrics are conserved.  The one selection surface — the ``!fast`` name
suffix — is covered alongside, as is the promise that the fast path
imports nothing beyond the standard library.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.metrics import Metrics
from repro.cost import CostModel, CoutCostModel
from repro.enumerator import TopDownEnumerator
from repro.fastpath import BatchCostKernel, FastTopDownEnumerator, OperandStats
from repro.obs.profile import RecordingProfiler
from repro.partition import MinCutLazy, NaiveBushyCPFree
from repro.registry import make_optimizer, parse_name, resolve_alias, split_fastpath
from repro.workloads import chain, clique, cycle, star
from repro.workloads.skewed import PROFILES, skewed_query
from repro.workloads.weights import weighted_query

#: The directory holding the ``repro`` package, for child interpreters.
SRC_ROOT = os.path.dirname(os.path.dirname(repro.__file__))

TOPOLOGIES = {
    "chain": chain,
    "star": star,
    "cycle": cycle,
    "clique": clique,
}


def _frontier_pairs(query, max_pairs=400):
    """Every (left, right) candidate an enumeration would cost."""
    graph = query.graph
    strategy = MinCutLazy()
    metrics = Metrics()
    pairs = []
    from repro.core.bitset import iter_subsets

    for subset in iter_subsets(graph.all_vertices):
        if subset.bit_count() < 2 or not graph.is_connected(subset):
            continue
        pairs.extend(strategy.partitions(graph, subset, metrics))
        if len(pairs) >= max_pairs:
            break
    return pairs


class TestBatchKernelParity:
    @settings(max_examples=25, deadline=None)
    @given(
        topology=st.sampled_from(sorted(TOPOLOGIES)),
        n=st.integers(min_value=4, max_value=7),
        profile=st.sampled_from(PROFILES),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        model_kind=st.sampled_from(["io", "cout"]),
    )
    def test_batch_equals_scalar_bitwise(
        self, topology, n, profile, seed, model_kind
    ):
        """Batch costs and bounds == scalar model outputs, bit for bit."""
        query = skewed_query(TOPOLOGIES[topology](n), profile, seed)
        model = CoutCostModel() if model_kind == "cout" else CostModel()
        kernel = BatchCostKernel(query, model)
        pairs = _frontier_pairs(query)
        costs = kernel.operator_costs(pairs)
        bounds = kernel.lower_bounds(pairs)
        for (left, right), row, bound in zip(pairs, costs, bounds):
            expected = tuple(
                model.operator_cost(query, method, left, right)
                for method in model.JOIN_METHODS
            )
            assert row == expected, (left, right)
            assert bound == model.lower_bound(query, left, right)

    def test_generic_model_falls_back_to_scalar_hooks(self):
        class DoubledCout(CoutCostModel):
            def operator_cost(self, query, method, left, right):
                return 2.0 * super().operator_cost(query, method, left, right)

        query = weighted_query(clique(5), 7)
        model = DoubledCout()
        kernel = BatchCostKernel(query, model)
        assert kernel.mode == "generic"
        pairs = _frontier_pairs(query)
        for (left, right), row in zip(pairs, kernel.operator_costs(pairs)):
            assert row[0] == 2.0 * query.cardinality(left | right)

    def test_mode_and_backend_selection(self):
        query = weighted_query(star(5), 1)
        assert BatchCostKernel(query, CoutCostModel()).mode == "cout"
        io_kernel = BatchCostKernel(query, CostModel())
        assert io_kernel.mode == "io"
        # One backend for every mode; perfbench reads (mode, backend).
        assert io_kernel.backend == "python"
        assert BatchCostKernel(query, CoutCostModel()).backend == "python"

    def test_operand_stats_memoize(self):
        query = weighted_query(chain(4), 2)
        stats = OperandStats(query, CostModel())
        assert len(stats) == 0
        first = stats.sort_cost(0b0011)
        assert first == stats.sort_cost(0b0011)
        assert stats.pages(0b0011) == query.pages(0b0011)
        assert len(stats) == 2  # one pages cell + one sort cell


class TestEnumeratorParity:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("suffix", ["", "AP"])
    @pytest.mark.parametrize("backend", [BatchCostKernel.backend])
    def test_plan_and_metrics_parity(self, topology, suffix, backend):
        n = 6 if topology == "clique" else 7
        query = weighted_query(TOPOLOGIES[topology](n), n)
        oracle_metrics = Metrics()
        oracle = make_optimizer(
            f"TBNmc{suffix}", query, metrics=oracle_metrics
        ).optimize()
        fast_metrics = Metrics()
        optimizer = make_optimizer(
            f"TBNmc{suffix}!fast", query, metrics=fast_metrics
        )
        assert optimizer._batch.backend == backend
        fast = optimizer.optimize()
        assert fast == oracle
        for counter in (
            "logical_joins_enumerated",
            "join_operators_costed",
            "predicted_prunes",
            "memo_lookups",
            "peak_memo_cells",
        ):
            assert getattr(fast_metrics, counter) == getattr(
                oracle_metrics, counter
            ), counter

    def test_parity_across_runtime_variants(self):
        """!fast composes with @N workers and %policy memos unchanged."""
        query = weighted_query(clique(6), 6)
        reference = make_optimizer("TBNmc", query).optimize()
        for variant in ("TBNmc%cost:24!fast", "TBNmc@2!fast"):
            assert make_optimizer(variant, query).optimize() == reference, variant

    def test_io_model_parity(self):
        query = weighted_query(star(7), 7)
        oracle = make_optimizer("TBNmc", query, CostModel()).optimize()
        fast = make_optimizer("TBNmc!fast", query, CostModel()).optimize()
        assert fast == oracle

    def test_ordered_requests_delegate_to_oracle(self):
        query = weighted_query(chain(5), 5)
        fast = FastTopDownEnumerator(query, MinCutLazy(), CostModel())
        oracle = TopDownEnumerator(query, MinCutLazy(), CostModel())
        order = 0  # "sorted on relation 0's join key"
        assert fast.optimize(order) == oracle.optimize(order)

    def test_refuses_kernel_profiler(self):
        query = weighted_query(chain(4), 4)
        with pytest.raises(ValueError, match="profil"):
            FastTopDownEnumerator(
                query, MinCutLazy(), CostModel(), profiler=RecordingProfiler()
            )


class TestGrammar:
    def test_split_fastpath(self):
        assert split_fastpath("TBNmc") == ("TBNmc", False)
        assert split_fastpath("TBNmc!fast") == ("TBNmc", True)
        assert split_fastpath("TBNmc!FAST") == ("TBNmc", True)
        assert split_fastpath("TBNmc!fast@2") == ("TBNmc@2", True)
        assert split_fastpath("TBNmc!fast%cost:64") == ("TBNmc%cost:64", True)
        assert split_fastpath("TBNmc%cost:64!fast") == ("TBNmc%cost:64", True)

    def test_split_fastpath_rejects_unknown_suffix(self):
        for bad in ("TBNmc!", "TBNmc!turbo", "TBNmc!fast2"):
            with pytest.raises(ValueError):
                split_fastpath(bad)

    def test_resolve_alias_canonicalizes_suffix_order(self):
        assert resolve_alias("mincutlazy!fast") == "TBNmc!fast"
        assert resolve_alias("TBNmc!fast@2%cost:64") == "TBNmc@2%cost:64!fast"
        assert resolve_alias("parallel!fast") == "TBNmc@4!fast"

    def test_parse_name_ignores_fast(self):
        spec = parse_name("TBNmcAP!fast")
        assert spec.name == "TBNmcAP"
        assert spec.top_down

    def test_bottom_up_fast_is_an_error(self):
        query = weighted_query(chain(4), 4)
        with pytest.raises(ValueError, match="top-down"):
            make_optimizer("BBNccp!fast", query)


class TestSelection:
    def test_fast_path_imports_no_numpy(self):
        """``!fast`` runs on the standard library alone: a fresh
        interpreter that imports the CLI and runs a fast-path search has
        not loaded numpy, even where numpy is installed."""
        script = (
            "import sys\n"
            "import repro.cli\n"
            "from repro.registry import make_optimizer\n"
            "from repro.workloads import clique\n"
            "from repro.workloads.weights import weighted_query\n"
            "q = weighted_query(clique(6), 6)\n"
            "make_optimizer('TBNmc!fast', q).optimize()\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC_ROOT},
        )
        assert result.returncode == 0, result.stderr


class TestConformanceIntegration:
    def test_invariant_is_registered(self):
        from repro.conformance.invariants import INVARIANTS, QUERY_INVARIANTS

        assert "fastpath-parity" in INVARIANTS
        assert "fastpath-parity" in QUERY_INVARIANTS

    def test_invariant_holds_on_probes(self):
        from repro.conformance.invariants import check_fastpath_parity

        for graph in (chain(6), clique(5)):
            query = weighted_query(graph, graph.n)
            assert check_fastpath_parity(query) == []

    def test_matrix_lists_fast_configurations(self):
        from repro.registry import conformance_matrix

        matrix = conformance_matrix()
        assert "TBNmc!fast" in matrix["bushy-cp-free"]
        assert "TBNmcAP!fast" in matrix["bushy-cp-free"]
        assert "TLNmc!fast" in matrix["left-deep-cp-free"]


class TestCli:
    def test_optimize_json_reports_backend(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(
            [
                "optimize",
                "--algorithm",
                "TBNmc!fast",
                "--topology",
                "clique",
                "--n",
                "6",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fastpath"] == {"mode": "io"}

    def test_fastpath_flag_matches_oracle(self, capsys):
        """The ``!fast`` suffix is the CLI's only fast-path switch."""
        from repro.cli import main as cli_main

        results = {}
        for label, algorithm in (("fast", "TBNmc!fast"), ("oracle", "TBNmc")):
            code = cli_main(
                [
                    "optimize",
                    "--algorithm",
                    algorithm,
                    "--topology",
                    "star",
                    "--n",
                    "7",
                    "--json",
                ]
            )
            assert code == 0
            results[label] = json.loads(capsys.readouterr().out)
        assert results["fast"]["cost"] == results["oracle"]["cost"]
        assert results["fast"]["plan"] == results["oracle"]["plan"]
        assert "fastpath" in results["fast"]
        assert "fastpath" not in results["oracle"]
