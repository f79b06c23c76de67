"""Seeded inputs of the four benchmark workloads.

Every request starts from query text in the repository's DSL
(``repro.catalog.parser``), so the same seed gives byte-identical inputs
in any process.  Query graphs are fixed per workload (a ``randcyc`` graph
is drawn once per shape, independently of the seed) and the seed draws
the Section 4.3 weights, so the search work per request barely moves
between seeds while the answers do.

A query drawn for one shape and seed is the same in every workload
(``parallel`` reruns the dense queries of ``exhaustive``), because its
random stream is keyed by ``(seed, query id)`` only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.analysis.counting import count_connected_subgraphs
from repro.catalog.query import Query
from repro.workloads import (
    chain,
    clique,
    cycle,
    generate_weights,
    random_connected_graph,
    star,
)

WORKLOADS = ("exhaustive", "constrained", "serve", "parallel")

#: The repository's own default workload seed (``repro.workloads.seeding``).
DEFAULT_SEED = 20070611
#: A seed kept out of tuning, for confirming a claim made on the default.
HELD_OUT_SEED = 4242

_TOPOLOGIES = {"chain": chain, "star": star, "cycle": cycle, "clique": clique}

#: Shapes of ``exhaustive``: the paper's topologies, 8-20 relations.
#: ``randcyc-N`` is a random connected graph with N + 2 edges.
EXHAUSTIVE_SHAPES = (
    "chain-12", "chain-16", "chain-20", "cycle-10", "cycle-12", "cycle-14",
    "star-8", "star-9", "star-10", "clique-8",
    "randcyc-9", "randcyc-10", "randcyc-11",
)
EXHAUSTIVE_ALGORITHMS = ("TBNmc", "TBNmc!fast", "BBNccp")

#: Dense shapes of ``exhaustive`` rerun by ``parallel``.
PARALLEL_SHAPES = ("star-9", "star-10", "clique-8", "randcyc-10", "randcyc-11")
PARALLEL_ALGORITHMS = ("TBNmc@2", "TBNmc@2!fast")

#: Shapes of ``constrained``: small enough for bounded memos (7-11).
CONSTRAINED_SHAPES = (
    "chain-9", "chain-11", "cycle-8", "cycle-10",
    "star-7", "star-8", "clique-7", "randcyc-9",
)
#: Weight draws per constrained shape: bounding and budgets depend on
#: the weights, so more draws steady the round's totals across seeds.
CONSTRAINED_DRAWS = 3
TOPK = 3

#: Shapes of ``serve`` (5-10 relations), each drawn SERVE_DRAWS times.
SERVE_SHAPES = (
    "chain-6", "chain-10", "cycle-5", "cycle-8",
    "star-6", "star-8", "clique-5", "clique-6", "randcyc-7", "randcyc-9",
)
SERVE_DRAWS = 2
SERVE_CONNECTIONS = 2
#: One dispatch thread: the connections take turns, so a second would
#: only contend with the event loop for the interpreter lock.
SERVE_DISPATCH_WORKERS = 1

#: Extra edges of a ``randcyc`` graph beyond its spanning tree.
RANDCYC_EXTRA_EDGES = 2


@dataclass(frozen=True)
class QueryInput:
    """One generated query: its id, shape, and DSL text."""

    qid: str
    topology: str
    n: int
    text: str


@dataclass(frozen=True)
class Request:
    """One library optimize request of a round."""

    rid: str
    qid: str
    algorithm: str
    path: str
    kind: str = "exact"  # exact | budget | topk
    top_k: int | None = None


@dataclass(frozen=True)
class ServeRequest:
    """One line a serve client sends; ``payload`` lacks only the ``id``."""

    rid: str
    qid: str
    kind: str  # exact | budget | topk
    payload: dict[str, Any]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    queries: dict[str, QueryInput]
    requests: tuple[Request, ...] = ()
    #: ``serve`` only: the request sequence of each client connection.
    lanes: tuple[tuple[ServeRequest, ...], ...] = ()


def parse_shape(shape: str) -> tuple[str, int]:
    topology, size = shape.rsplit("-", 1)
    return topology, int(size)


def _graph(topology: str, n: int, rng: random.Random):
    if topology in _TOPOLOGIES:
        return _TOPOLOGIES[topology](n)
    # Random cyclic graph with a fixed edge count, so the search work per
    # query stays close across seeds; redraw until the count matches.
    edges = n - 1 + RANDCYC_EXTRA_EDGES
    cyclicity = RANDCYC_EXTRA_EDGES / edges
    while True:
        graph = random_connected_graph(n, cyclicity, rng)
        if graph.edge_count() == edges:
            return graph


def to_dsl(query: Query) -> str:
    """The DSL text of ``query`` (floats in ``repr`` form, so exact)."""
    relations = " ".join(
        f"{r.name}({r.cardinality!r})" for r in query.relations
    )
    predicates = " ".join(
        f"{query.relations[u].name}-{query.relations[v].name}:{sel!r}"
        for (u, v), sel in sorted(query.selectivity.items())
    )
    return f"{relations}; {predicates}"


def make_query(seed: int, shape: str, draw: int = 0) -> QueryInput:
    topology, n = parse_shape(shape)
    qid = shape if draw == 0 else f"{shape}#{draw}"
    graph = _graph(topology, n, random.Random(f"perfbench/graph/{shape}"))
    query = generate_weights(graph, random.Random(f"perfbench/{seed}/{qid}")).query
    return QueryInput(qid=qid, topology=topology, n=n, text=to_dsl(query))


def _path(algorithm: str) -> str:
    if algorithm.startswith("BBN"):
        return "dpccp"
    if "@" in algorithm:
        return "par2"
    return "fast" if algorithm.endswith("!fast") else "oracle"


def _library(name: str, seed: int, shapes, variants, draws: int = 1) -> Workload:
    queries: dict[str, QueryInput] = {}
    requests: list[Request] = []
    for shape in shapes:
        for draw in range(draws):
            q = make_query(seed, shape, draw)
            queries[q.qid] = q
            requests += [
                Request(
                    rid=f"{q.qid}/{algorithm}",
                    qid=q.qid,
                    algorithm=algorithm,
                    path=_path(algorithm),
                    kind=kind,
                    top_k=top_k,
                )
                for algorithm, kind, top_k in variants(q)
            ]
    return Workload(name, seed, queries, tuple(requests))


def connected_subsets(query: QueryInput) -> int:
    from repro.catalog.parser import parse_query

    return count_connected_subgraphs(parse_query(query.text).graph)


def _constrained_variants(q: QueryInput):
    """The paper's Section 4-5 limits, each on the oracle or fast path."""
    csg = connected_subsets(q)
    half = csg // 2
    quarter = csg // 4
    return (
        ("TBNmcAP", "exact", None),
        ("TBNmcAP!fast", "exact", None),
        (f"TBNmc%lru:{half}", "exact", None),
        (f"TBNmc%cost:{half}:{half}!fast", "exact", None),
        (f"TBNmc?{quarter}n", "budget", None),
        (f"TBNmc?{quarter}n!fast", "budget", None),
        (f"TBNmc^{TOPK}", "topk", TOPK),
        (f"TBNmc^{TOPK}!fast", "topk", TOPK),
    )


def _graph_payload(text: str) -> dict[str, Any]:
    """The inline-graph form of a DSL query (same canonical key)."""
    from repro.catalog.parser import parse_query

    query = parse_query(text)
    names = [r.name for r in query.relations]
    return {
        "relations": [[r.name, r.cardinality] for r in query.relations],
        "predicates": [
            [names[u], names[v], sel]
            for (u, v), sel in sorted(query.selectivity.items())
        ],
    }


def _serve(seed: int) -> Workload:
    """One round's request lanes, one per client connection.

    Both lanes open with the same query, sent at once, so one of the two
    waits on the other's in-flight optimization (single-flight dedup);
    after it the lanes take turns, one request in flight.  Each lane then
    sends its own fresh queries (two node-budgeted, two top-k), and after
    two of every three a repeat of one of its earlier answered queries, in
    DSL or inline-graph form (same cache key).  A repeat follows its
    original on the same closed-loop connection, so it is always a cache
    hit: the hit share of a round does not depend on timing.
    """
    rng = random.Random("perfbench/serve-stream")
    queries: dict[str, QueryInput] = {}
    for draw in range(SERVE_DRAWS):
        for shape in SERVE_SHAPES:
            q = make_query(seed, shape, draw)
            queries[q.qid] = q
    # The arrival order, the repeats and each request's form are fixed
    # (drawn once, not per seed), so every seed sends the same mix of
    # misses and hits in the same order; the seed draws the weights.
    order = list(queries)
    random.Random("perfbench/serve-order").shuffle(order)
    opener, rest = order[0], order[1:]

    def request(lane: list[ServeRequest], qid: str, kind: str) -> None:
        text = queries[qid].text
        if rng.random() < 0.5:
            payload: dict[str, Any] = {"query": text}
        else:
            payload = {"graph": _graph_payload(text)}
        if kind == "budget":
            payload["budget_nodes"] = max(1, connected_subsets(queries[qid]) // 4)
        elif kind == "topk":
            payload["top_k"] = TOPK
        rid = f"{len(lanes)}.{len(lane)}:{qid}"
        lane.append(ServeRequest(rid, qid, kind, payload))

    lanes: list[tuple[ServeRequest, ...]] = []
    for index in range(SERVE_CONNECTIONS):
        lane: list[ServeRequest] = []
        request(lane, opener, "exact")
        answered = [opener]
        for position, qid in enumerate(rest[index::SERVE_CONNECTIONS]):
            kind = {1 + index: "budget", 4 + index: "topk"}.get(position, "exact")
            request(lane, qid, kind)
            if kind != "budget":
                answered.append(qid)  # an exhausted budget caches no plan
            if position % 3 != 2:
                request(lane, rng.choice(answered), "exact")
        lanes.append(tuple(lane))
    return Workload("serve", seed, queries, lanes=tuple(lanes))


def build(name: str, seed: int) -> Workload:
    """The seeded inputs of workload ``name``."""
    if name == "exhaustive":
        return _library(
            name, seed, EXHAUSTIVE_SHAPES,
            lambda q: [(a, "exact", None) for a in EXHAUSTIVE_ALGORITHMS],
        )
    if name == "parallel":
        return _library(
            name, seed, PARALLEL_SHAPES,
            lambda q: [(a, "exact", None) for a in PARALLEL_ALGORITHMS],
        )
    if name == "constrained":
        return _library(
            name, seed, CONSTRAINED_SHAPES, _constrained_variants, CONSTRAINED_DRAWS
        )
    if name == "serve":
        return _serve(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
