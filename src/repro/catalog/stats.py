"""Relations, join predicates, and the catalog that owns them.

The optimizer's statistical inputs are deliberately simple, mirroring the
paper's experimental apparatus (Section 4.3): each relation carries a
cardinality, and each join edge carries a selectivity in ``[0, 1)``.
Cardinality estimation uses the classic independence assumption: the size
of a join over a vertex set ``S`` is the product of the base cardinalities
times the product of the selectivities of all predicates internal to ``S``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["Catalog", "JoinPredicate", "Relation"]

#: Default number of tuples that fit on one disk page in the I/O cost model.
DEFAULT_TUPLES_PER_PAGE = 100


@dataclass(frozen=True)
class Relation:
    """A base relation participating in the join.

    ``tuples_per_page`` feeds the I/O cost model's page-count computation;
    the default matches a typical textbook setting.  ``cardinality`` must be
    finite and non-negative: the catalog, the query DSL and the plan
    service's inline graphs all build relations here, so this is their
    one shared rule.
    """

    name: str
    cardinality: float
    tuples_per_page: int = DEFAULT_TUPLES_PER_PAGE

    def __post_init__(self) -> None:
        if not math.isfinite(self.cardinality):
            raise ValueError(
                f"relation {self.name!r} has non-finite cardinality "
                f"{self.cardinality!r}"
            )
        if self.cardinality < 0:
            raise ValueError(f"relation {self.name!r} has negative cardinality")
        if self.tuples_per_page <= 0:
            raise ValueError(f"relation {self.name!r} needs tuples_per_page > 0")

    @property
    def pages(self) -> float:
        """Number of disk pages occupied by the relation (at least 1)."""
        return max(1.0, self.cardinality / self.tuples_per_page)


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join predicate between two relations with a fixed selectivity."""

    left: int
    right: int
    selectivity: float

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise ValueError("join predicate must relate two distinct relations")
        if not 0.0 < self.selectivity <= 1.0:
            raise ValueError(
                f"selectivity must be in (0, 1], got {self.selectivity}"
            )

    def endpoints(self) -> tuple[int, int]:
        """Return the endpoints normalized so the smaller index is first."""
        if self.left < self.right:
            return (self.left, self.right)
        return (self.right, self.left)


@dataclass
class Catalog:
    """A named collection of relations and predicates.

    This is the mutable builder used by workload generators and examples;
    :class:`~repro.catalog.query.Query` freezes it into the optimizer input.
    """

    relations: list[Relation] = field(default_factory=list)
    predicates: list[JoinPredicate] = field(default_factory=list)

    def add_relation(
        self,
        name: str,
        cardinality: float,
        tuples_per_page: int = DEFAULT_TUPLES_PER_PAGE,
    ) -> int:
        """Register a relation; returns its vertex index."""
        if any(r.name == name for r in self.relations):
            raise ValueError(f"duplicate relation name {name!r}")
        self.relations.append(Relation(name, cardinality, tuples_per_page))
        return len(self.relations) - 1

    def add_predicate(self, left: int, right: int, selectivity: float) -> None:
        """Register a join predicate between relation indices."""
        size = len(self.relations)
        if not (0 <= left < size and 0 <= right < size):
            raise ValueError(f"predicate ({left}, {right}) references unknown relation")
        key = (min(left, right), max(left, right))
        if any(p.endpoints() == key for p in self.predicates):
            raise ValueError(f"duplicate predicate between {left} and {right}")
        self.predicates.append(JoinPredicate(left, right, selectivity))

    def index_of(self, name: str) -> int:
        """Return the vertex index of the relation called ``name``."""
        for i, r in enumerate(self.relations):
            if r.name == name:
                return i
        raise KeyError(name)
