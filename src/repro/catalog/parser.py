"""A tiny textual DSL for describing join queries.

Not part of the paper, but indispensable for playing with the optimizer:
a query is one line of relations and one of predicates, e.g.::

    orders(1e6) customer(100000) nation(25) region(5);
    orders-customer:1e-5 customer-nation:0.04 nation-region:0.2

Grammar (whitespace-separated tokens, ``;`` splits the two sections)::

    relations  := relation+
    relation   := NAME '(' CARDINALITY ')'
    predicates := predicate+
    predicate  := NAME '-' NAME ':' SELECTIVITY

Numbers accept scientific notation.  Cardinalities must be finite and
non-negative, relation names unique, and the resulting join graph
connected.

Parse failures raise :class:`QuerySyntaxError` carrying the character
offset (and derived line/column) of the offending token, so callers that
relay queries on behalf of others — the ``repro.serve`` tier returning
400-style structured errors — can point at the exact input span instead
of echoing a bare message.
"""

from __future__ import annotations

import math
import re
from typing import Iterator, Optional

from repro.catalog.query import Query
from repro.catalog.stats import Catalog

__all__ = ["parse_query", "QuerySyntaxError"]

_RELATION = re.compile(r"^(?P<name>[A-Za-z_]\w*)\((?P<card>[^)]+)\)$")
_PREDICATE = re.compile(
    r"^(?P<left>[A-Za-z_]\w*)-(?P<right>[A-Za-z_]\w*):(?P<sel>\S+)$"
)
_TOKEN = re.compile(r"\S+")


class QuerySyntaxError(ValueError):
    """Raised when the query text cannot be parsed.

    ``str(exc)`` is the bare human-readable message (unchanged from the
    pre-positional era); :attr:`position`, :attr:`line`, and
    :attr:`column` locate the offending token in the original text when
    known (``position`` is a 0-based character offset, ``line`` and
    ``column`` are 1-based).  :meth:`to_dict` is the structured form the
    serve tier embeds in error responses.
    """

    def __init__(
        self,
        message: str,
        *,
        position: Optional[int] = None,
        text: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.position = position
        self.line: Optional[int] = None
        self.column: Optional[int] = None
        if position is not None and text is not None:
            prefix = text[:position]
            self.line = prefix.count("\n") + 1
            self.column = position - (prefix.rfind("\n") + 1) + 1

    def to_dict(self) -> dict[str, object]:
        """Structured form for machine-readable error responses."""
        return {
            "message": self.message,
            "position": self.position,
            "line": self.line,
            "column": self.column,
        }


def _tokens(section: str, base: int) -> Iterator[tuple[str, int]]:
    """Whitespace-separated tokens of ``section`` with absolute offsets."""
    for match in _TOKEN.finditer(section):
        yield match.group(), base + match.start()


def _number(text: str, what: str, *, position: int, source: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise QuerySyntaxError(
            f"bad {what}: {text!r}", position=position, text=source
        ) from None


def parse_query(text: str) -> Query:
    """Parse the DSL described in the module docstring into a Query."""
    parts = text.split(";")
    if len(parts) != 2:
        # Two semicolons: the second one is the surplus; none: unknown spot.
        position = None
        if len(parts) > 2:
            position = len(parts[0]) + 1 + len(parts[1])
        raise QuerySyntaxError(
            "expected exactly one ';' between relations and predicates",
            position=position,
            text=text,
        )
    relation_section, predicate_section = parts
    predicate_base = len(relation_section) + 1
    relation_tokens = list(_tokens(relation_section, 0))
    if not relation_tokens:
        raise QuerySyntaxError("no relations given", position=0, text=text)

    catalog = Catalog()
    for token, offset in relation_tokens:
        match = _RELATION.match(token)
        if match is None:
            raise QuerySyntaxError(
                f"bad relation {token!r}; expected name(card)",
                position=offset,
                text=text,
            )
        name = match.group("name")
        card_text = match.group("card")
        card_offset = offset + match.start("card")
        cardinality = _number(
            card_text, "cardinality", position=card_offset, source=text
        )
        if not (math.isfinite(cardinality) and cardinality >= 0):
            raise QuerySyntaxError(
                f"bad cardinality: {card_text!r}; expected a finite "
                "number >= 0",
                position=card_offset,
                text=text,
            )
        try:
            catalog.add_relation(name, cardinality)
        except ValueError as exc:
            raise QuerySyntaxError(str(exc), position=offset, text=text) from None

    for token, offset in _tokens(predicate_section, predicate_base):
        match = _PREDICATE.match(token)
        if match is None:
            raise QuerySyntaxError(
                f"bad predicate {token!r}; expected left-right:selectivity",
                position=offset,
                text=text,
            )
        try:
            left = catalog.index_of(match.group("left"))
        except KeyError as exc:
            raise QuerySyntaxError(
                f"unknown relation {exc.args[0]!r}",
                position=offset + match.start("left"),
                text=text,
            ) from None
        try:
            right = catalog.index_of(match.group("right"))
        except KeyError as exc:
            raise QuerySyntaxError(
                f"unknown relation {exc.args[0]!r}",
                position=offset + match.start("right"),
                text=text,
            ) from None
        selectivity = _number(
            match.group("sel"), "selectivity",
            position=offset + match.start("sel"), source=text,
        )
        try:
            catalog.add_predicate(left, right, selectivity)
        except ValueError as exc:
            raise QuerySyntaxError(
                f"bad predicate {token!r}: {exc}", position=offset, text=text
            ) from None

    try:
        return Query.from_catalog(catalog)
    except ValueError as exc:
        raise QuerySyntaxError(str(exc), text=text) from None
