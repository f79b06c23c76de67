"""Run one workload's rounds, check every answer, and compute the metrics.

A *round* is the workload's fixed request list, run once in order
(``serve``: streamed over its client connections to a fresh server).
Counts and times per round are what the per-layer metrics report.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import check
import workloads
from layers import PATHS, LayerTrace

#: At least this many timed requests per run, so that ten samples lie
#: above the 90th percentile.
MIN_REQUESTS = 110
#: Stop starting rounds after this long, whatever the request count.
MAX_SECONDS = 90.0

#: Per-layer times split by execution path: metric -> trace layer.
PATH_TIMES = {
    "enumerator.self_s": "enumerator",
    "partition.self_s": "partition",
    "biconnection.self_s": "biconnection",
    "memo.self_s": "memo",
    "cost.self_s": "cost",
    "fastpath.batch_s": "fastpath",
    "anytime.seed_s": "anytime.seed",
    "topk.compose_s": "topk.compose",
    "catalog.parse_s": "catalog",
}

#: Program counters summed per round (``Metrics`` fields).
SUMMED = (
    "partitions_emitted", "join_operators_costed", "memo_lookups", "memo_hits",
    "memo_evictions", "memo_demotions", "expressions_reexpanded",
    "bcc_trees_built", "usability_tests", "usability_hits",
    "predicted_prunes", "logical_joins_enumerated", "budget_failures",
    "anytime_nodes_spent", "topk_candidates_ranked", "parallel_tasks",
    "parallel_entries_merged",
)


@dataclass
class Outcome:
    """One request's answer, latency, and program counters."""

    rid: str
    latency: float = 0.0
    error: str | None = None
    cost: float | None = None
    signature: Any = None
    ranked_costs: list[float] | None = None
    floor: float | None = None
    gap: float | None = None
    metrics: dict[str, int] = field(default_factory=dict)
    cache: dict[str, int] = field(default_factory=dict)


def _counters(optimizer: Any) -> tuple[dict[str, int], dict[str, int]]:
    metrics = optimizer.metrics.as_dict()
    memo = getattr(optimizer, "memo", None)
    stats = getattr(memo, "stats", None)
    cache = {}
    if stats is not None:
        cache = {
            "cold_hits": stats.cold_hits,
            "shared_hits": stats.shared_hits,
            "misses": stats.misses,
        }
    return metrics, cache


def run_request(
    request: workloads.Request, text: str, trace: LayerTrace | None = None
) -> Outcome:
    """Parse, build, and optimize one library request (latency: optimize only)."""
    import repro.catalog.parser as parser
    from repro.registry import make_optimizer

    if trace is not None:
        trace.path = request.path
    outcome = Outcome(request.rid)
    try:
        optimizer = make_optimizer(request.algorithm, parser.parse_query(text))
        started = perf_counter()
        if request.top_k is not None:
            ranked = optimizer.optimize_topk(request.top_k)
            outcome.latency = perf_counter() - started
            plan = ranked[0]
            outcome.ranked_costs = [p.cost for p in ranked]
        else:
            plan = optimizer.optimize()
            outcome.latency = perf_counter() - started
    except Exception as exc:  # a failed request is counted, not fatal
        outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome
    outcome.cost = plan.cost
    outcome.metrics, outcome.cache = _counters(optimizer)
    report = getattr(optimizer, "anytime", None)
    if report is not None:
        outcome.floor = report.certified_floor
        outcome.gap = None if math.isinf(report.gap_bound) else report.gap_bound
    batch = getattr(optimizer, "_batch", None)
    outcome.signature = (
        plan.to_wire(),
        tuple(outcome.ranked_costs or ()),
        outcome.floor,
        outcome.gap,
        tuple(sorted(outcome.metrics.items())),
        None if batch is None else (batch.mode, batch.backend),
    )
    return outcome


class Checker:
    """Checks answers against the expected optima and counts, and that a
    request's plan and counts never change between rounds or passes."""

    def __init__(self, workload: workloads.Workload) -> None:
        self.workload = workload
        expected = check.load_expected(workload.name, workload.seed)
        self.covered = expected is not None
        if expected is not None:
            self.optima = {k: float(v) for k, v in expected["optima"].items()}
            self.counts = expected.get("counts", {})
        else:
            self.optima = check.reference_optima(workload)
            self.counts = {}
        self.requests = {r.rid: r for r in workload.requests}
        self.signatures: dict[str, Any] = {}
        self.errors: list[str] = []

    def library(self, outcome: Outcome) -> bool:
        request = self.requests[outcome.rid]
        error = outcome.error or self._library_error(request, outcome)
        if error is not None:
            self.errors.append(f"{outcome.rid}: {error}")
        return error is None

    def _library_error(self, request: workloads.Request, outcome: Outcome) -> str | None:
        optimum = self.optima[request.qid]
        assert outcome.cost is not None
        if request.kind == "budget":
            if outcome.floor is None:
                return "budgeted request returned no gap report"
            error = check.check_budgeted(outcome.cost, outcome.floor, outcome.gap, optimum)
        elif request.kind == "topk":
            error = check.check_ranked(outcome.ranked_costs or [], optimum)
        else:
            error = None if outcome.cost == optimum else (
                f"cost {outcome.cost!r} != optimum {optimum!r}"
            )
        if error is not None:
            return error
        mode = outcome.signature[-1]
        if mode is not None and mode[0] != "io":
            return f"fast-path batch kernel left io mode: {mode}"
        if self.workload.name in ("exhaustive", "parallel"):
            query = self.workload.queries[request.qid]
            operators = check.ono_lohman_operators(query.topology, query.n)
            got = outcome.metrics["join_operators_costed"]
            if operators is not None and got != operators:
                return f"costed {got} operators, Ono-Lohman says {operators}"
        expected = self.counts.get(request.rid)
        if expected is not None:
            for name, field_name in check.GATED_COUNTS.items():
                if outcome.metrics[field_name] != expected[name]:
                    return (
                        f"{name} = {outcome.metrics[field_name]}, "
                        f"expected {expected[name]}"
                    )
        first = self.signatures.setdefault(request.rid, outcome.signature)
        if first != outcome.signature:
            return "plan or counts differ from this request's first run"
        return None

    def round(self, outcomes: list[Outcome]) -> None:
        """Cross-request checks: exhaustive algorithms agree exactly, and
        the fast path returns the oracle's plan."""
        if self.workload.name != "exhaustive":
            return
        by_query: dict[str, dict[str, Outcome]] = {}
        for outcome in outcomes:
            request = self.requests[outcome.rid]
            by_query.setdefault(request.qid, {})[request.algorithm] = outcome
        for qid, runs in by_query.items():
            costs = {o.cost for o in runs.values()}
            if len(costs) != 1:
                self.errors.append(f"{qid}: algorithms disagree: {sorted(map(str, costs))}")
            oracle, fast = runs.get("TBNmc"), runs.get("TBNmc!fast")
            if oracle and fast and oracle.signature and fast.signature:
                if oracle.signature[0] != fast.signature[0]:
                    self.errors.append(f"{qid}: fast path plan differs from oracle")

    def served(self, request: workloads.ServeRequest, response: dict[str, Any]) -> bool:
        error = self._served_error(request, response)
        if error is not None:
            self.errors.append(f"{request.rid}: {error}")
        return error is None

    def _served_error(self, request: workloads.ServeRequest, response: dict[str, Any]) -> str | None:
        if response.get("status") != "ok":
            return f"status {response.get('status')}: {response.get('error') or response.get('reason')}"
        optimum = self.optima[request.qid]
        cost = response["plan"]["cost"]
        if request.kind == "budget":
            report = response.get("anytime")
            if report is None:
                return "budgeted request returned no anytime block"
            return check.check_budgeted(cost, report["lower_bound"], report["gap_bound"], optimum)
        if request.kind == "topk":
            return check.check_ranked([p["cost"] for p in response["topk"]["plans"]], optimum)
        return None if cost == optimum else f"cost {cost!r} != optimum {optimum!r}"


@dataclass
class RoundResult:
    #: Wall seconds per request of the round, by request id.
    latencies: dict[str, float]
    wall: float
    attempted: int
    failed: int
    log_ratios: list[float]
    outcomes: list[Outcome] = field(default_factory=list)
    served: dict[str, int] = field(default_factory=dict)


def library_round(
    workload: workloads.Workload, checker: Checker, trace: LayerTrace | None
) -> RoundResult:
    outcomes = []
    latencies: dict[str, float] = {}
    log_ratios = []
    failed = 0
    started = perf_counter()
    for request in workload.requests:
        outcome = run_request(request, workload.queries[request.qid].text, trace)
        outcomes.append(outcome)
        latencies[request.rid] = outcome.latency
        if checker.library(outcome):
            log_ratios.append(math.log(outcome.cost / checker.optima[request.qid]))
        else:
            failed += 1
    wall = perf_counter() - started
    errors_before = len(checker.errors)
    checker.round(outcomes)
    failed += len(checker.errors) - errors_before
    return RoundResult(latencies, wall, len(outcomes), failed, log_ratios, outcomes)


async def _serve_round(
    workload: workloads.Workload, checker: Checker, trace: LayerTrace | None
) -> RoundResult:
    from repro.serve.server import PlanServer

    if trace is not None:
        trace.path = "serve"
    server = PlanServer(dispatch_workers=workloads.SERVE_DISPATCH_WORKERS)
    await server.start()
    host, port = server.address
    latencies: dict[str, float] = {}
    log_ratios: list[float] = []
    failed = 0

    connections: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def exchange(lane: int, request: workloads.ServeRequest) -> None:
        nonlocal failed
        reader, writer = connections[lane]
        line = json.dumps({"id": request.rid, **request.payload}) + "\n"
        sent = perf_counter()
        writer.write(line.encode())
        await writer.drain()
        reply = await reader.readline()
        latencies[request.rid] = perf_counter() - sent
        response = json.loads(reply)
        if response.get("id") != request.rid:
            raise RuntimeError(f"reply for {response.get('id')} to {request.rid}")
        if checker.served(request, response):
            cost = response["plan"]["cost"]
            log_ratios.append(math.log(cost / checker.optima[request.qid]))
        else:
            failed += 1

    try:
        for _ in workload.lanes:
            connections.append(await asyncio.open_connection(host, port))
        started = perf_counter()
        # The lanes' shared opener goes out on every connection at once
        # (single-flight dedup); after it the connections take turns, one
        # request in flight at a time, so a request's round trip is its
        # own work and not how it happened to overlap the other lane's.
        await asyncio.gather(*(exchange(i, lane[0]) for i, lane in enumerate(workload.lanes)))
        for turn in itertools.zip_longest(*(lane[1:] for lane in workload.lanes)):
            for lane, request in enumerate(turn):
                if request is not None:
                    await exchange(lane, request)
        wall = perf_counter() - started
    finally:
        for _reader, writer in connections:
            writer.close()
            await writer.wait_closed()
        await server.stop()
    stats = server.stats
    served = {
        "requests": stats.requests,
        "hits": stats.hits,
        "dedup_saves": stats.dedup_saves,
        "rejected": stats.rejected,
    }
    return RoundResult(
        latencies, wall, sum(map(len, workload.lanes)), failed, log_ratios, served=served
    )


def run_round(
    workload: workloads.Workload, checker: Checker, trace: LayerTrace | None
) -> RoundResult:
    if workload.name == "serve":
        return asyncio.run(_serve_round(workload, checker, trace))
    return library_round(workload, checker, trace)


def warm_up(workload: workloads.Workload, checker: Checker) -> None:
    """Finish lazy set-up (numpy probe, imports, first fork) untimed."""
    if workload.name == "serve":
        asyncio.run(_serve_round(workload, checker, None))
        return
    smallest = min(workload.queries.values(), key=lambda q: q.n)
    for request in workload.requests:
        if request.qid == smallest.qid:
            run_request(request, smallest.text)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (median of five), so rows
    from different machines can be compared."""
    times = []
    for _ in range(5):
        started = perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(perf_counter() - started)
    return statistics.median(times)


def _passes(
    workload: workloads.Workload,
    checker: Checker,
    trace: LayerTrace | None,
    *,
    seconds: float,
    min_requests: int = 0,
    rounds: int | None = None,
    on_round: Any = None,
) -> list[RoundResult]:
    results: list[RoundResult] = []
    started = perf_counter()
    while True:
        if trace is not None:
            trace.reset()
        result = run_round(workload, checker, trace)
        results.append(result)
        if on_round is not None:
            on_round(result)
        # Checked and counted by now; kept, they would grow peak_rss_mb
        # with the number of rounds, that is with the machine's speed.
        result.outcomes = []
        if rounds is not None:
            if len(results) >= rounds:
                return results
            continue
        elapsed = perf_counter() - started
        attempted = sum(r.attempted for r in results)
        if elapsed >= MAX_SECONDS or (elapsed >= seconds and attempted >= min_requests):
            return results


def typical_latencies(rounds: list[RoundResult]) -> list[float]:
    """Each request's typical wall time: the mean of its samples over the
    rounds with the fastest and slowest quarter left out.

    ``latency_p50_ms`` is the median of these, one value per request of
    the round, not the median of every sample pooled: a round mixes
    requests whose times differ severalfold, so a pooled median can fall
    in the gap between two of them and then jumps with the extreme
    samples on either side, while a median of per-request values moves
    only as the requests' own times move.  Trimming keeps a stall of the
    shared machine inside one round from moving a request's value.
    """
    samples: dict[str, list[float]] = {}
    for result in rounds:
        for rid, latency in result.latencies.items():
            samples.setdefault(rid, []).append(latency)
    typical = []
    for values in samples.values():
        values.sort()
        trim = len(values) // 4
        typical.append(statistics.fmean(values[trim:len(values) - trim]))
    return typical


def end_to_end(workload: workloads.Workload, checker: Checker, seconds: float) -> dict[str, Any]:
    rounds = _passes(workload, checker, None, seconds=seconds, min_requests=MIN_REQUESTS)
    samples = [x for r in rounds for x in r.latencies.values()]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    log_ratios = [x for r in rounds for x in r.log_ratios]
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    metrics = {
        "queries_per_s": (attempted / sum(r.wall for r in rounds), "1/s"),
        "latency_p50_ms": (statistics.median(typical_latencies(rounds)) * 1e3, "ms"),
        "latency_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "plan_cost_ratio": (math.exp(statistics.fmean(log_ratios)) if log_ratios else 1.0, "x"),
        "success_frac": ((attempted - failed) / attempted, "fraction"),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": {"rounds": len(rounds), "requests": attempted},
    }


class _LayerTotals:
    """Per-round sums of traced figures and program counters."""

    def __init__(self) -> None:
        self.self_s: dict[tuple[str, str], float] = {}
        self.incl_s: dict[tuple[str, str], float] = {}
        self.counts: dict[str, int] = {}
        self.program: dict[str, int] = {}
        self.cache: dict[str, int] = {}
        self.served: dict[str, int] = {}
        self.peak_cells = 0
        self.gaps: list[float] = []
        self.queue_wait_s = 0.0

    def add(self, trace: LayerTrace, result: RoundResult) -> None:
        self_s, incl_s, counts = trace.totals()
        for target, source in ((self.self_s, self_s), (self.incl_s, incl_s), (self.counts, counts)):
            for key, value in source.items():
                target[key] = target.get(key, 0) + value
        self.queue_wait_s += trace.queue_wait_s
        counters = [(o.metrics, o.cache) for o in result.outcomes if o.error is None]
        counters += [_counters(opt) for opt in trace.served_optimizers]
        for metrics, cache in counters:
            for name in SUMMED:
                self.program[name] = self.program.get(name, 0) + metrics[name]
            for name, value in cache.items():
                self.cache[name] = self.cache.get(name, 0) + value
            self.peak_cells = max(self.peak_cells, metrics["peak_memo_cells"])
        self.gaps += [o.gap for o in result.outcomes if o.gap is not None]
        for name, value in result.served.items():
            self.served[name] = self.served.get(name, 0) + value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload: workloads.Workload, checker: Checker, seconds: float) -> dict[str, Any]:
    """Untraced rounds for half the time, then as many traced rounds."""
    plain = _passes(workload, checker, None, seconds=seconds / 2)
    trace = LayerTrace()
    totals = _LayerTotals()
    trace.install()
    try:
        traced = _passes(
            workload, checker, trace, seconds=0, rounds=len(plain),
            on_round=lambda result: totals.add(trace, result),
        )
    finally:
        trace.uninstall()
    calib = calibrate()
    n = len(traced)

    def self_time(layer: str, path: str | None = None) -> float:
        return sum(
            v for (l, p), v in totals.self_s.items()
            if l == layer and (path is None or p == path)
        ) / n

    def incl_time(layer: str) -> float:
        return sum(v for (l, _p), v in totals.incl_s.items() if l == layer) / n

    prog = {k: v / n for k, v in totals.program.items()}
    counts = {k: v / n for k, v in totals.counts.items()}
    cache = totals.cache
    served = totals.served
    values: dict[str, tuple[float, str]] = {}
    for metric, layer in PATH_TIMES.items():
        values[metric] = (self_time(layer), "s")
        for path in PATHS:
            values[f"{metric}.{path}"] = (self_time(layer, path), "s")
    hot_misses = cache.get("cold_hits", 0) + cache.get("shared_hits", 0) + cache.get("misses", 0)
    values.update({
        "partition.calls": (counts.get("partition.calls", 0), "count"),
        "partition.pairs": (prog.get("partitions_emitted", 0), "count"),
        "biconnection.builds": (prog.get("bcc_trees_built", 0), "count"),
        "biconnection.reuse_ratio": (_ratio(prog.get("usability_hits", 0), prog.get("usability_tests", 0)), "fraction"),
        "memo.lookups": (prog.get("memo_lookups", 0), "count"),
        "memo.stores": (counts.get("memo.store_plan", 0) + counts.get("memo.store_lower_bound", 0), "count"),
        "memo.hit_ratio": (_ratio(prog.get("memo_hits", 0), prog.get("memo_lookups", 0)), "fraction"),
        "memo.decodes_per_store": (_ratio(counts.get("memo.plan_for_query", 0), counts.get("memo.store_plan", 0)), "ratio"),
        "memo.evictions": (prog.get("memo_evictions", 0), "count"),
        "memo.demotions": (prog.get("memo_demotions", 0), "count"),
        "memo.cold_hit_ratio": (_ratio(cache.get("cold_hits", 0), hot_misses), "fraction"),
        "memo.reexpanded": (prog.get("expressions_reexpanded", 0), "count"),
        "memo.peak_cells": (totals.peak_cells, "count"),
        "cost.operators": (prog.get("join_operators_costed", 0), "count"),
        "cost.lower_bound_calls": (counts.get("cost.lower_bound", 0), "count"),
        "fastpath.batch_pairs": (counts.get("fastpath.pairs", 0), "count"),
        "bottomup.cost_s": (self_time("cost", "dpccp"), "s"),
        "bottomup.enum_s": (self_time("bottomup"), "s"),
        "bnb.prune_ratio": (_ratio(prog.get("predicted_prunes", 0), prog.get("logical_joins_enumerated", 0)), "fraction"),
        "bnb.budget_failures": (prog.get("budget_failures", 0), "count"),
        "anytime.nodes": (prog.get("anytime_nodes_spent", 0), "count"),
        "anytime.gap_bound": (statistics.fmean(totals.gaps) if totals.gaps else 0.0, "fraction"),
        "topk.candidates": (prog.get("topk_candidates_ranked", 0), "count"),
        "serve.decode_s": (incl_time("serve.decode"), "s"),
        "serve.queue_wait_s": (totals.queue_wait_s / n, "s"),
        "serve.lookup_s": (incl_time("serve.lookup"), "s"),
        "serve.optimize_s": (incl_time("serve.optimize"), "s"),
        "serve.encode_s": (incl_time("serve.encode"), "s"),
        "serve.hit_ratio": (_ratio(served.get("hits", 0), served.get("requests", 0)), "fraction"),
        "serve.dedup_saves": (served.get("dedup_saves", 0) / n, "count"),
        "serve.rejected": (served.get("rejected", 0) / n, "count"),
        "parallel.total_s": (incl_time("parallel"), "s"),
        "parallel.merge_s": (incl_time("parallel.merge"), "s"),
        "parallel.tasks": (prog.get("parallel_tasks", 0), "count"),
        "parallel.entries_merged": (prog.get("parallel_entries_merged", 0), "count"),
        "trace.overhead_frac": (
            sum(r.wall for r in traced) / sum(r.wall for r in plain) - 1.0, "fraction"
        ),
        "calib.loop_s": (calib, "s"),
    })
    rounds = plain + traced
    return {
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": values,
        "info": {"rounds": n, "calib_loop_s": calib},
    }
