"""Batched cost kernel: one evaluation over a whole candidate frontier.

``repro profile`` bills ~50 % of wall time to ``cost.eval``: the scalar
model is called three times (once per join method) for every candidate
pair the partition strategy emits.  :class:`BatchCostKernel` replaces
those per-candidate calls with one evaluation over the full frontier of
an expression, specialised by exact cost-model type:

* :class:`~repro.cost.io_model.CostModel` (the textbook I/O model) —
  the bnl/hash formulas are evaluated over memoized operand pages in
  the *same operation order* as the scalar code (add, multiply, divide,
  and ceil are exact IEEE-754 operations, so same inputs + same order =
  bit-identical outputs); sort-merge costs are gathered from per-subset
  scalars memoized in :class:`~repro.fastpath.stats.OperandStats`
  (``external_sort_cost`` contains a logarithm, so it is computed once
  per subset by the scalar model and never re-derived).
* :class:`~repro.cost.cout_model.CoutCostModel` — an operator's cost is
  its output cardinality, so the batch is a pure gather of memoized
  cardinalities.
* any other subclass — per-candidate scalar fallback through the
  model's own ``operator_cost``/``lower_bound`` hooks, so exotic models
  keep working under ``!fast`` unchanged.

Predicted-bound batches use the scalar formulas over memoized stats for
every mode: they are single additions, where gather cost dominates and
exactness is free.

The kernel is pure python: with only a few operations per candidate,
array round-trips would cost more than they save.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.catalog.query import Query
from repro.cost.cout_model import CoutCostModel
from repro.cost.io_model import CostModel
from repro.fastpath.stats import OperandStats

__all__ = ["BatchCostKernel"]

#: The operator layout the I/O specialisation is hard-wired for.
_IO_METHOD_OPS = ("bnl", "hash", "smj")


class BatchCostKernel:
    """Batched operator costs and lower bounds over candidate pairs.

    ``operator_costs(pairs)`` returns, per candidate ``(left, right)``,
    one tuple of operator costs aligned with ``model.JOIN_METHODS`` —
    each bit-identical to ``model.operator_cost(query, method, left,
    right)``.  ``lower_bounds(pairs)`` mirrors ``model.lower_bound``.
    ``mode`` names the specialisation (``io``, ``cout`` or ``generic``).
    """

    __slots__ = ("query", "model", "stats", "mode")

    #: The one batch implementation; reported next to ``mode``.
    backend = "python"

    def __init__(self, query: Query, model: CostModel) -> None:
        self.query = query
        self.model = model
        self.stats = OperandStats(query, model)
        kind = type(model)
        if kind is CoutCostModel:
            self.mode = "cout"
        elif kind is CostModel and tuple(
            method.op for method in model.JOIN_METHODS
        ) == _IO_METHOD_OPS:
            self.mode = "io"
        else:
            self.mode = "generic"

    # -- operator costs ----------------------------------------------------------

    def operator_costs(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[tuple[float, ...]]:
        """Per-candidate operator costs, aligned with ``JOIN_METHODS``."""
        if self.mode == "cout":
            cardinality = self.stats.cardinality
            return [
                (cost, cost, cost)
                for cost in [cardinality(left | right) for left, right in pairs]
            ]
        if self.mode == "io":
            return self._io_costs(pairs)
        model = self.model
        query = self.query
        methods = model.JOIN_METHODS
        return [
            tuple(
                model.operator_cost(query, method, left, right)
                for method in methods
            )
            for left, right in pairs
        ]

    def _io_costs(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[tuple[float, ...]]:
        pages = self.stats.pages
        sort_cost = self.stats.sort_cost
        loads_divisor = self.model.buffer_pages - 2
        out: list[tuple[float, ...]] = []
        for left, right in pairs:
            left_pages = pages(left)
            right_pages = pages(right)
            bnl = left_pages + math.ceil(left_pages / loads_divisor) * right_pages
            hash_cost = 3.0 * (left_pages + right_pages)
            smj = sort_cost(left) + sort_cost(right) + left_pages + right_pages
            out.append((bnl, hash_cost, smj))
        return out

    # -- predicted-cost lower bounds ---------------------------------------------

    def lower_bounds(self, pairs: Sequence[tuple[int, int]]) -> list[float]:
        """Per-candidate Section 4.2 lower bounds (scalar-exact)."""
        if self.mode == "cout":
            cardinality = self.stats.cardinality
            out: list[float] = []
            for left, right in pairs:
                bound = cardinality(left | right)
                if left & (left - 1):
                    bound += cardinality(left)
                if right & (right - 1):
                    bound += cardinality(right)
                out.append(bound)
            return out
        if self.mode == "io":
            pages = self.stats.pages
            out = []
            for left, right in pairs:
                bound = 0.0
                if left & (left - 1):
                    bound += pages(left)
                if right & (right - 1):
                    bound += pages(right)
                out.append(bound)
            return out
        model = self.model
        query = self.query
        return [
            model.lower_bound(query, left, right) for left, right in pairs
        ]
