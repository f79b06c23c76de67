"""Per-layer timing by wrapping the program's entry points from outside.

:class:`LayerTrace` swaps timing wrappers onto the classes and module
namespaces listed in :meth:`LayerTrace.install` and puts the originals
back in :meth:`LayerTrace.uninstall`; nothing in ``src/`` changes.  Each
thread keeps its own frame stack, so a layer's *self* time is its
wrappers' wall time minus the time of wrapped calls nested inside them,
and its *inclusive* time counts only outermost frames of that layer.
Every figure is also keyed by the execution path the benchmark declares
around the request (:data:`PATHS`).

Cost-model methods are wrapped on the ``CostModel`` class itself, never
through a subclass, so ``type(model) is CostModel`` still holds and the
fast path's batch kernel keeps its ``io`` mode (``measure.py`` checks it).
Forked parallel workers get the original functions back at fork time, so
only the driving process is traced.
"""

from __future__ import annotations

import functools
import os
import threading
from time import perf_counter
from typing import Any, Callable

PATHS = ("oracle", "fast", "dpccp", "par2", "serve")


class _ThreadState:
    __slots__ = ("stack", "depth", "self_s", "incl_s", "counts")

    def __init__(self) -> None:
        self.stack: list[list[Any]] = []
        self.depth: dict[str, int] = {}
        self.self_s: dict[tuple[str, str], float] = {}
        self.incl_s: dict[tuple[str, str], float] = {}
        self.counts: dict[str, int] = {}


class LayerTrace:
    """Self/inclusive seconds per (layer, path) plus entry-point counts."""

    def __init__(self) -> None:
        #: Execution path billed for frames closing from now on.
        self.path = "oracle"
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self._queued: dict[Any, float] = {}
        self.queue_wait_s = 0.0
        #: Optimizers the serve dispatcher built (their metrics are read
        #: after each round, since the dispatcher does not expose them).
        self.served_optimizers: list[Any] = []
        os.register_at_fork(after_in_child=self.uninstall)

    # -- accounting ---------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _enter(self, state: _ThreadState, layer: str) -> tuple[list[Any], int]:
        depth = state.depth.get(layer, 0)
        state.depth[layer] = depth + 1
        frame = [0.0]
        state.stack.append(frame)
        return frame, depth

    def _exit(
        self,
        state: _ThreadState,
        layer: str,
        frame: list[Any],
        depth: int,
        elapsed: float,
    ) -> None:
        stack = state.stack
        stack.pop()
        state.depth[layer] = depth
        key = (layer, self.path)
        self_s = state.self_s
        self_s[key] = self_s.get(key, 0.0) + elapsed - frame[0]
        if stack:
            stack[-1][0] += elapsed
        if depth == 0:
            incl = state.incl_s
            incl[key] = incl.get(key, 0.0) + elapsed

    def _count(self, state: _ThreadState, name: str, amount: int = 1) -> None:
        state.counts[name] = state.counts.get(name, 0) + amount

    def timed(
        self,
        layer: str,
        fn: Callable[..., Any],
        counter: str | None = None,
        size_arg: int | None = None,
    ) -> Callable[..., Any]:
        """Wrap ``fn`` as a frame of ``layer``.

        ``counter`` counts outermost calls; with ``size_arg`` it instead
        adds ``len(args[size_arg])`` (a batch size).
        """
        trace = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = trace._state()
            frame, depth = trace._enter(state, layer)
            if counter is not None and depth == 0:
                trace._count(
                    state, counter, 1 if size_arg is None else len(args[size_arg])
                )
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                trace._exit(state, layer, frame, depth, perf_counter() - started)

        return wrapper

    def timed_iter(
        self, layer: str, fn: Callable[..., Any], counter: str
    ) -> Callable[..., Any]:
        """Wrap a generator function: each ``next()`` is a frame."""
        trace = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return trace._iterate(layer, fn(*args, **kwargs), counter)

        return wrapper

    def _iterate(self, layer: str, iterator: Any, counter: str) -> Any:
        state = self._state()
        advance = iter(iterator).__next__
        while True:
            frame, depth = self._enter(state, layer)
            self._count(state, counter)
            started = perf_counter()
            try:
                item = advance()
            except StopIteration:
                return
            finally:
                self._exit(state, layer, frame, depth, perf_counter() - started)
            yield item

    # -- serve queue wait (submit -> picked up by a dispatch worker) ----------------

    def _wrap_submit(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        trace = self

        @functools.wraps(fn)
        def submit(queue: Any, key: Any, request: Any) -> Any:
            future, deduped = fn(queue, key, request)
            if not deduped:
                trace._queued[key] = perf_counter()
            return future, deduped

        return submit

    def _wrap_next_batch(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        trace = self

        @functools.wraps(fn)
        async def next_batch(queue: Any, batch_size: int) -> Any:
            batch = await fn(queue, batch_size)
            now = perf_counter()
            for item in batch or ():
                queued = trace._queued.pop(item.key, None)
                if queued is not None:
                    trace.queue_wait_s += now - queued
            return batch

        return next_batch

    def _wrap_make_optimizer(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        trace = self

        @functools.wraps(fn)
        def make_optimizer(*args: Any, **kwargs: Any) -> Any:
            optimizer = fn(*args, **kwargs)
            with trace._lock:
                trace.served_optimizers.append(optimizer)
            return optimizer

        return make_optimizer

    # -- patching -----------------------------------------------------------------

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap every layer's entry points (idempotent)."""
        if self._patches:
            return
        import repro.catalog.parser as parser
        import repro.enumerator as enumerator
        import repro.partition as partition
        import repro.partition.mincut_lazy as mincut_lazy
        import repro.parallel.scheduler as scheduler
        import repro.serve.dispatch as dispatch
        import repro.serve.protocol as protocol
        import repro.serve.server as server
        from repro.bottomup.base import BottomUpOptimizer
        from repro.cost.io_model import CostModel
        from repro.fastpath.batch import BatchCostKernel
        from repro.memo import GlobalPlanCache, MemoTable
        from repro.serve.queue import RequestQueue

        patch = self._patch
        timed = self.timed
        top_down = enumerator.TopDownEnumerator
        patch(top_down, "optimize", timed("enumerator", top_down.optimize))
        patch(top_down, "optimize_topk", timed("enumerator", top_down.optimize_topk))

        strategies = {
            cls
            for name in partition.__all__
            for cls in [getattr(partition, name)]
            if isinstance(cls, type)
            and "partitions" in cls.__dict__
            and not getattr(cls.__dict__["partitions"], "__isabstractmethod__", False)
        }
        for cls in sorted(strategies, key=lambda c: c.__name__):
            patch(
                cls,
                "partitions",
                self.timed_iter("partition", cls.__dict__["partitions"], "partition.calls"),
            )
        patch(
            mincut_lazy,
            "build_bcc_tree",
            timed("biconnection", mincut_lazy.build_bcc_tree),
        )

        for cls in (MemoTable, GlobalPlanCache):
            for name in ("get", "plan_for_query", "store_plan", "store_lower_bound"):
                if name in cls.__dict__:
                    patch(cls, name, timed("memo", cls.__dict__[name], f"memo.{name}"))

        # The enumerators' entry points only: the model's internal helpers
        # (join_operator_cost, join_output_order) are billed to their caller
        # without paying for a wrapper each.
        for name in (
            "scan_plans", "operator_cost", "build_join", "sort_cost",
            "build_sort", "lower_bound",
        ):
            patch(CostModel, name, timed("cost", CostModel.__dict__[name], f"cost.{name}"))

        for name in ("operator_costs", "lower_bounds"):
            patch(
                BatchCostKernel,
                name,
                timed("fastpath", BatchCostKernel.__dict__[name], "fastpath.pairs", 1),
            )
        patch(
            BottomUpOptimizer,
            "optimize",
            timed("bottomup", BottomUpOptimizer.optimize),
        )
        patch(enumerator, "greedy_plan", timed("anytime.seed", enumerator.greedy_plan))
        patch(
            enumerator,
            "kbest_join_plans",
            timed("topk.compose", enumerator.kbest_join_plans),
        )
        patch(parser, "parse_query", timed("catalog", parser.parse_query))
        patch(protocol, "parse_query", timed("catalog", protocol.parse_query))

        for name in ("decode_line", "build_request"):
            patch(server, name, timed("serve.decode", getattr(server, name)))
        for name in ("plan_payload", "encode"):
            patch(server, name, timed("serve.encode", getattr(server, name)))
        dispatcher = dispatch.Dispatcher
        patch(dispatcher, "lookup", timed("serve.lookup", dispatcher.lookup))
        patch(dispatcher, "optimize", timed("serve.optimize", dispatcher.optimize))
        patch(dispatch, "make_optimizer", self._wrap_make_optimizer(dispatch.make_optimizer))
        patch(RequestQueue, "submit", self._wrap_submit(RequestQueue.submit))
        patch(RequestQueue, "next_batch", self._wrap_next_batch(RequestQueue.next_batch))

        parallel = scheduler.ParallelEnumerator
        patch(parallel, "optimize", timed("parallel", parallel.optimize))
        for name in ("merge_worker_results", "merge_entries"):
            patch(scheduler, name, timed("parallel.merge", getattr(scheduler, name)))

    def uninstall(self) -> None:
        """Restore every original (also run in forked children)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- readout ------------------------------------------------------------------

    def reset(self) -> None:
        """Zero every accumulator (between rounds)."""
        with self._lock:
            for state in self._states:
                state.self_s.clear()
                state.incl_s.clear()
                state.counts.clear()
            self.served_optimizers.clear()
        self._queued.clear()
        self.queue_wait_s = 0.0

    def totals(self) -> tuple[dict[tuple[str, str], float], dict[tuple[str, str], float], dict[str, int]]:
        """Summed (self seconds, inclusive seconds, counts) over threads."""
        self_s: dict[tuple[str, str], float] = {}
        incl_s: dict[tuple[str, str], float] = {}
        counts: dict[str, int] = {}
        with self._lock:
            for state in self._states:
                for key, value in state.self_s.items():
                    self_s[key] = self_s.get(key, 0.0) + value
                for key, value in state.incl_s.items():
                    incl_s[key] = incl_s.get(key, 0.0) + value
                for name, value in state.counts.items():
                    counts[name] = counts.get(name, 0) + value
        return self_s, incl_s, counts
