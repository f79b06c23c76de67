"""The fast-path enumerator: batched costing inside Algorithm 1/7.

:class:`FastTopDownEnumerator` is a drop-in subclass of the oracle
:class:`~repro.enumerator.TopDownEnumerator` that replaces the two
measured hot loops (``_calc_best_join`` and its Algorithm 7 budgeted
variant, where ``repro profile`` bills the ``cost.eval`` and
``enum.recurse`` kernels) with a frontier-batched equivalent:

1. materialise the partition frontier of the expression once;
2. evaluate every candidate's operator costs (and, under predicted
   bounding, lower bounds) in one :class:`~repro.fastpath.batch.BatchCostKernel`
   call over the query's cached per-subset stats;
3. scan the candidates in the oracle's order with the oracle's exact
   comparison semantics (strict ``<``, first wins ties), building a
   :class:`~repro.plans.physical.Plan` node **only when a candidate
   improves on the incumbent** — the oracle builds one per
   (candidate, method), which is most of the recursion glue it pays for.

Conformance contract: because the batch kernel is bit-identical to the
scalar model and the scan preserves iteration order and tie-breaking,
the fast path returns plans that compare equal (``Plan.__eq__``, i.e.
shape, operators, and exact costs) to the oracle's — enforced per fuzz
case by the ``fastpath-parity`` invariant of :mod:`repro.conformance`.

Metrics (``logical_joins_enumerated``, ``join_operators_costed``,
``predicted_prunes``, the partition and time-between-joins histograms)
match the oracle's on every search that runs to completion, so the
Table 2 closed-form gates hold unchanged under ``!fast``.  Known
exception: when an anytime budget interrupts the unbudgeted loop below,
the interrupted frames have already emitted their whole partition
frontier, and their ``join_operators_costed`` is lost because the loop
adds it after the scan (``perfbench``'s constrained clique-7 query under
``?31n`` reports 288 operators costed against the oracle's 372).

Interesting orders (``order is not None``) and kernel profiling keep the
oracle code paths: ordered requests hit method-filtered loops the batch
layout does not model, and a profiler attributing ``cost.eval`` frames
must see the scalar calls it documents.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.catalog.query import Query
from repro.cost.io_model import CostModel
from repro.enumerator import BUDGET_HEADROOM, Bounding, TopDownEnumerator
from repro.partition.base import PartitionStrategy
from repro.plans.physical import Plan, plan_cost
from repro.fastpath.batch import BatchCostKernel

__all__ = ["FastTopDownEnumerator"]


class FastTopDownEnumerator(TopDownEnumerator):
    """Top-down partition search with frontier-batched costing.

    Accepts every :class:`TopDownEnumerator` parameter.  Refuses a
    kernel profiler: profiled runs must use the oracle so ``cost.eval``
    attribution reflects the scalar calls being profiled.
    """

    def __init__(
        self,
        query: Query,
        partition: PartitionStrategy,
        cost_model: CostModel | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(query, partition, cost_model, **kwargs)
        if self._profiling:
            raise ValueError(
                "the fast path batches cost evaluation and cannot honour "
                "per-call kernel attribution; profile the oracle path "
                "(drop the !fast suffix) instead"
            )
        self._batch = BatchCostKernel(query, self.cost_model)

    @property
    def batch_mode(self) -> str:
        """The batch kernel's specialisation (``io``, ``cout``, ``generic``)."""
        return self._batch.mode

    def _topk_operator_cost_rows(
        self, pairs: Sequence[tuple[int, int]]
    ) -> Sequence[Sequence[float]]:
        # One batched kernel call replaces the oracle's per-(pair, method)
        # scalar costing; the kernel is bit-identical to the scalar model,
        # so ranked cells agree exactly (the `topk-soundness` invariant).
        return self._batch.operator_costs(pairs)

    # -- Algorithm 1, batched ----------------------------------------------------

    def _calc_best_join(
        self, subset: int, order: int | None, seed: Plan | None
    ) -> Plan | None:
        if order is not None:
            # Ordered requests filter methods by produced order; rare by
            # construction (the paper's experiments run unordered) and
            # not modelled by the batch layout — delegate to the oracle.
            return super()._calc_best_join(subset, order, seed)
        query = self.query
        metrics = self.metrics
        metrics.note_expansion((subset, None))
        # Root-incumbent watch for anytime mode, as in the oracle loops.
        watching = subset == self._root_watch and self._root_order is None
        tracing = self._tracing
        h_join_gap = self._h_join_gap
        get_best = self._get_best
        predicted = Bounding.PREDICTED in self.bounding

        batch = self._batch
        pairs = list(self.partition.partitions(query.graph, subset, metrics))
        operator_costs = batch.operator_costs(pairs)
        bounds = batch.lower_bounds(pairs) if predicted else None

        cost_model = self.cost_model
        methods = cost_model.JOIN_METHODS
        method_count = len(methods)
        build_join = cost_model.build_join
        best = seed
        best_cost = plan_cost(seed)
        joins_costed = 0
        for index, (left, right) in enumerate(pairs):
            metrics.logical_joins_enumerated += 1
            if predicted and bounds is not None and bounds[index] >= best_cost:
                metrics.predicted_prunes += 1
                if tracing:
                    self.tracer.predicted_prune(left, right, bounds[index])
                continue
            left_plan = get_best(left, None)
            right_plan = get_best(right, None)
            if left_plan is None or right_plan is None:
                continue
            child_cost = left_plan.cost + right_plan.cost
            joins_costed += method_count
            if h_join_gap is not None:
                for _ in range(method_count):
                    self._note_join_costed()
            candidate = operator_costs[index]
            for method_index in range(method_count):
                # Same strict-< and same addition order as the oracle's
                # `plan.cost < plan_cost(best)`: the Plan node is only
                # assembled for genuine improvements.
                if child_cost + candidate[method_index] < best_cost:
                    best = build_join(
                        query, methods[method_index], left_plan, right_plan
                    )
                    best_cost = best.cost
                    if watching:
                        self._anytime_best = best
        metrics.join_operators_costed += joins_costed
        if self._h_partitions is not None:
            self._h_partitions.observe(len(pairs))
        return best

    # -- Algorithm 7, batched ----------------------------------------------------

    def _calc_best_join_budgeted(
        self, subset: int, order: int | None, budget: float, seed: Plan | None
    ) -> Plan | None:
        if order is not None:
            return super()._calc_best_join_budgeted(subset, order, budget, seed)
        query = self.query
        metrics = self.metrics
        metrics.note_expansion((subset, None))
        # Root-incumbent watch for anytime mode, as in the oracle loops.
        watching = subset == self._root_watch and self._root_order is None
        tracing = self._tracing
        h_join_gap = self._h_join_gap
        get_best_budgeted = self._get_best_budgeted
        predicted = Bounding.PREDICTED in self.bounding

        batch = self._batch
        pairs = list(self.partition.partitions(query.graph, subset, metrics))
        operator_costs = batch.operator_costs(pairs)
        bounds = batch.lower_bounds(pairs) if predicted else None

        cost_model = self.cost_model
        methods = cost_model.JOIN_METHODS
        build_join = cost_model.build_join
        best: Plan | None = None
        if seed is not None and seed.cost <= budget:
            best = seed
        best_cost = plan_cost(best)
        for index, (left, right) in enumerate(pairs):
            metrics.logical_joins_enumerated += 1
            cap = min(budget, best_cost)
            if predicted and bounds is not None and bounds[index] > cap:
                metrics.predicted_prunes += 1
                if tracing:
                    self.tracer.predicted_prune(left, right, bounds[index])
                continue
            candidate = operator_costs[index]
            # BUDGET_HEADROOM: see the oracle's `_calc_best_join_budgeted` —
            # exploration slack against subtraction rounding; the accept
            # test below stays exact.
            remaining = cap * BUDGET_HEADROOM - min(candidate)
            if remaining < 0:
                continue
            left_plan = get_best_budgeted(left, None, remaining)
            if left_plan is None:
                continue
            remaining -= left_plan.cost
            right_plan = get_best_budgeted(right, None, remaining)
            if right_plan is None:
                continue
            child_cost = left_plan.cost + right_plan.cost
            for method_index, operator_cost in enumerate(candidate):
                total = child_cost + operator_cost
                metrics.join_operators_costed += 1
                if h_join_gap is not None:
                    self._note_join_costed()
                if total <= min(budget, best_cost) and total < best_cost:
                    best = build_join(
                        query, methods[method_index], left_plan, right_plan
                    )
                    best_cost = best.cost
                    if watching:
                        self._anytime_best = best
        if self._h_partitions is not None:
            self._h_partitions.observe(len(pairs))
        return best
