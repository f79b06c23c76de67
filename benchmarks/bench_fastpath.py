"""Fast path vs oracle: the acceptance gate for ``repro.fastpath``.

For each workload the scalar oracle (``TBNmc``) and the batched fast
path (``TBNmc!fast``) run the same serial search under the ``C_out`` cost
model — the combination ``repro profile`` bills ~81 % of wall time to
(``cost.eval`` + ``enum.recurse``).  Every fast-path plan is asserted
*bit-identical* to the oracle's (``Plan.__eq__``: shape, operators,
exact costs) before any timing is reported, so the speedup table can
never hide a correctness regression.

The gate: the fast path must reach ``SPEEDUP_BAR`` (1.5x) over the
oracle on the dense gate workloads (clique-10, star-10).

Results go to ``BENCH_fastpath.json`` via :mod:`benchmarks.bench_io`.
"""

from __future__ import annotations

import json

from repro.cost import CoutCostModel
from repro.obs.timing import clock
from repro.registry import make_optimizer
from repro.workloads import clique, star
from repro.workloads.weights import weighted_query

from benchmarks.bench_io import write_bench_json

ALGORITHM = "TBNmc"

#: (name, query, gate): the acceptance gate applies to the dense rows
#: named by the issue; the smaller rows document scaling, not the bar.
WORKLOADS = (
    ("clique8", weighted_query(clique(8), 3), False),
    ("clique10", weighted_query(clique(10), 3), True),
    ("star10", weighted_query(star(10), 3), True),
    ("star12", weighted_query(star(12), 3), False),
)

#: Minimum fast-path speedup over the serial oracle on gate rows.
SPEEDUP_BAR = 1.5


def _time_once(build) -> tuple[float, object]:
    optimizer = build()
    start = clock()
    plan = optimizer.optimize()
    return clock() - start, plan


def _best_of(build, repeats: int = 3) -> tuple[float, object]:
    best, plan = _time_once(build)
    for _ in range(repeats - 1):
        elapsed, plan = _time_once(build)
        best = min(best, elapsed)
    return best, plan


def test_emit_fastpath_speedup_json():
    rows = {}
    for name, query, gate in WORKLOADS:
        oracle_s, oracle_plan = _best_of(
            lambda q=query: make_optimizer(ALGORITHM, q, CoutCostModel())
        )
        fast_s, fast_plan = _best_of(
            lambda q=query: make_optimizer(
                f"{ALGORITHM}!fast", q, CoutCostModel()
            )
        )
        assert fast_plan.cost == oracle_plan.cost, name
        assert fast_plan == oracle_plan, name
        rows[name] = {
            "n": query.n,
            "oracle_s": oracle_s,
            "fast_s": fast_s,
            "speedup": oracle_s / fast_s if fast_s > 0 else None,
            "gate": gate,
        }

    payload = {
        "algorithm": f"{ALGORITHM}!fast",
        "cost_model": "cout",
        "speedup_bar": SPEEDUP_BAR,
        "workloads": rows,
    }
    path = write_bench_json("fastpath", payload)
    with open(path, encoding="utf-8") as handle:
        loaded = json.load(handle)
    assert set(loaded["workloads"]) == {name for name, _, _ in WORKLOADS}

    gate_ratios = {
        name: row["speedup"] for name, row in rows.items() if row["gate"]
    }
    worst = min(gate_ratios, key=gate_ratios.get)
    assert gate_ratios[worst] >= SPEEDUP_BAR, (
        f"the fast path must be >={SPEEDUP_BAR}x the oracle on "
        f"every gate workload; {worst} measured {gate_ratios[worst]:.2f}x "
        f"(all: { {k: round(v, 2) for k, v in gate_ratios.items()} })"
    )
