"""The optimizer benchmark: end-to-end and per-layer metrics per workload.

Run from the repository root::

    python3 perfbench/run.py --workload exhaustive --seed 20070611 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced;
``--trace 1`` prints the per-layer metrics of a traced run (see
``layers.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a readable
table goes to standard error.  Workloads, metrics and the layer ->
end-to-end metric map are described in ``BENCHMARK.json`` and
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
SOURCE = Path.cwd() / "src"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


def _import_program() -> None:
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no optimizer sources at {SOURCE}; "
            "run from the repository root"
        )
    sys.path.insert(0, str(SOURCE))


def _setup_probe(workload_name: str, seed: int) -> None:
    """Child process: import, build inputs (server/pool), one warm-up call,
    then report READY and tear down."""
    import asyncio

    import repro  # noqa: F401  (the import is part of what is timed)
    import workloads
    from measure import run_request

    workload = workloads.build(workload_name, seed)
    if workload_name == "serve":
        from repro.serve.server import PlanServer

        async def warm() -> None:
            server = PlanServer(dispatch_workers=workloads.SERVE_DISPATCH_WORKERS)
            await server.start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            first = workload.lanes[0][0]
            writer.write((json.dumps({"id": 0, **first.payload}) + "\n").encode())
            await writer.drain()
            reply = json.loads(await reader.readline())
            if reply.get("status") != "ok":
                raise SystemExit(f"perfbench: warm-up request failed: {reply}")
            print("READY", flush=True)
            writer.close()
            await writer.wait_closed()
            await server.stop()

        asyncio.run(warm())
        return
    smallest = min(workload.queries.values(), key=lambda q: q.n)
    fast = [r for r in workload.requests if r.qid == smallest.qid and r.path != "oracle"]
    outcome = run_request(fast[0], smallest.text)
    if outcome.error is not None:
        raise SystemExit(f"perfbench: warm-up call failed: {outcome.error}")
    print("READY", flush=True)


def _time_setup(workload: str, seed: int) -> float:
    """Wall seconds from spawning a fresh interpreter to its READY line."""
    command = [
        sys.executable, str(HERE / "run.py"), "--role", "setup",
        "--workload", workload, "--seed", str(seed),
    ]
    started = perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        try:
            assert child.stdout is not None
            line = child.stdout.readline()
            elapsed = perf_counter() - started
            child.stdout.read()
            code = child.wait(timeout=SETUP_TIMEOUT_S)
        except BaseException:
            child.kill()
            child.wait()
            raise
    if line.strip() != "READY" or code != 0:
        raise SystemExit(f"perfbench: set-up probe failed (exit {code})")
    return elapsed


def _measure(args: argparse.Namespace) -> dict[str, Any]:
    import measure
    import workloads

    workload = workloads.build(args.workload, args.seed)
    checker = measure.Checker(workload)
    measure.warm_up(workload, checker)
    if args.trace:
        result = measure.per_layer(workload, checker, args.seconds)
    else:
        result = measure.end_to_end(workload, checker, args.seconds)
        result["info"]["calib_loop_s"] = measure.calibrate()
    result["info"]["expected_file"] = checker.covered
    result["errors"] = checker.errors[:20]
    return result


def _report(workload: str, trace: int, result: dict[str, Any]) -> None:
    width = max(len(name) for name in result["metrics"])
    print(f"# {workload} (trace {trace}): {json.dumps(result['info'])}", file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit}", file=sys.stderr)
    for error in result["errors"]:
        print(f"  ERROR {error}", file=sys.stderr)


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict[str, Any] | None:
    """Set-up probes (untraced runs only), then the workload's own run."""
    setups = []
    if not trace:
        setups = [_time_setup(workload, seed) for _ in range(SETUP_REPEATS)]
    # The workload runs in its own interpreter so that peak_rss_mb is the
    # workload's alone, not the set-up probes' or this launcher's.
    command = [
        sys.executable, str(HERE / "run.py"), "--role", "measure",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=170)
    if child.returncode != 0:
        print(f"perfbench: {workload} run failed (exit {child.returncode})", file=sys.stderr)
        return None
    result = json.loads(child.stdout.strip().splitlines()[-1])
    if setups:
        result["metrics"]["setup_s"] = (statistics.median(setups), "s")
        result["info"]["setup_runs_s"] = setups
    _report(workload, trace, result)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="optimizer benchmark")
    parser.add_argument(
        "--workload", required=True,
        help="a workload name, or 'all' to run each in turn (metrics then "
        "read <workload>.<metric>)",
    )
    parser.add_argument("--seed", type=int, default=20070611)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup", "measure"), default="main")
    args = parser.parse_args()
    _import_program()
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS} or all")
    if args.role == "setup":
        _setup_probe(args.workload, args.seed)
        return 0
    if args.role == "measure":
        print(json.dumps(_measure(args)))
        return 0

    summary: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = _run(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        summary["correct"] &= result["failed"] == 0 and not result["errors"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, unit) in result["metrics"].items():
            summary["metrics"][prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
