"""Determinism rules: seeded randomness and order-stable iteration.

The parallel runtime requires workers to rebuild bit-identical queries
from seeds, and CI regression baselines pin exact counter values — both
break the moment an unseeded generator or an ordering-sensitive iteration
over a hash-ordered container slips into the reproducible paths.  These
rules are the static counterpart of the dynamic guarantees in
``repro.workloads.seeding`` and ``repro.parallel.merge``.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator

from repro.lint.engine import ERROR, Finding, ModuleSource, Rule

__all__ = ["IdentityOrderingRule", "SetIterationOrderRule", "UnseededRandomRule"]

#: Module-level ``random`` functions that draw from the hidden global RNG.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
    }
)


#: Calls whose results differ per run or per process: a seed computed
#: from one is no seed.  Dotted prefixes match the import-resolved name,
#: bare names its last component.
_NONDET_CALLS = (
    "time.", "os.urandom", "os.getpid", "uuid.", "secrets.",
    "datetime.now", "datetime.datetime.now",
)
_NONDET_BARE = frozenset({"id", "hash", "perf_counter", "monotonic", "time_ns"})


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        owner = _dotted(node.value)
        return None if owner is None else f"{owner}.{node.attr}"
    return None


def _seed_problem(
    call: ast.Call, resolve: Callable[[ast.expr], str]
) -> str | None:
    """Why ``call``'s seed is not reproducible, or None when it is."""
    seeds = call.args[:1] + [k.value for k in call.keywords if k.arg == "x"]
    if not seeds or (
        isinstance(seeds[0], ast.Constant) and seeds[0].value is None
    ):
        return "without a seed"
    for sub in ast.walk(seeds[0]):
        if isinstance(sub, ast.Call):
            name = resolve(sub.func)
            if name.startswith(_NONDET_CALLS) or (
                name.rpartition(".")[2] in _NONDET_BARE
            ):
                return f"seeded from {name}()"
    return None


class UnseededRandomRule(Rule):
    """No unseeded randomness outside ``repro.workloads.seeding``.

    Flags a ``random.Random()`` (or ``Random()`` imported from
    ``random``) constructed without a seed or with a seed computed from
    a nondeterministic source (``time.*``, ``os.urandom``, ``os.getpid``,
    ``uuid.*``, ``secrets.*``, ``datetime.now``, ``id()``, ``hash()``),
    and every call to the module-level ``random.*`` functions (which
    share one hidden, unseeded global generator).  Any other seed —
    a literal, a constant, a parameter, an imported name — is clean.
    All stochastic code must thread a ``random.Random`` resolved through
    :func:`repro.workloads.seeding.coerce_rng`.
    """

    name = "unseeded-random"
    severity = ERROR
    description = (
        "random.Random() without a seed or seeded from time/pid/entropy, "
        "or a global random.* call, outside repro.workloads.seeding"
    )

    _EXEMPT = ("repro.workloads.seeding",)

    def applies_to(self, module: ModuleSource) -> bool:
        return module.module not in self._EXEMPT

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        # Local alias -> dotted origin, so ``from time import time`` and
        # ``from random import Random as R`` resolve like the module form.
        imports: dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imports[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

        def resolve(func: ast.expr) -> str:
            name = _dotted(func) or ""
            head, _, rest = name.partition(".")
            origin = imports.get(head, head)
            return f"{origin}.{rest}" if rest else origin

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = resolve(node.func)
                if name == "random.Random":
                    problem = _seed_problem(node, resolve)
                    if problem is not None:
                        yield module.finding(
                            self,
                            node,
                            f"Random() {problem} draws a fresh sequence "
                            "per process; pass a seed or use "
                            "repro.workloads.seeding.coerce_rng",
                        )
                elif (
                    name.startswith("random.")
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _GLOBAL_RANDOM_FNS
                ):
                    yield module.finding(
                        self,
                        node,
                        f"random.{node.func.attr}() uses the hidden global "
                        "generator; thread a seeded random.Random "
                        "instead (see repro.workloads.seeding)",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = sorted(
                    alias.name
                    for alias in node.names
                    if alias.name in _GLOBAL_RANDOM_FNS
                )
                if bad:
                    yield module.finding(
                        self,
                        node,
                        f"importing global-generator functions {bad} from "
                        "random; import the module and thread a seeded "
                        "random.Random instead",
                    )


def _is_set_expression(node: ast.expr) -> bool:
    """True for expressions that are unambiguously hash-ordered sets."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        # set algebra on set expressions (a | {x}, set(a) - set(b), ...)
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


class SetIterationOrderRule(Rule):
    """No set iteration feeding ordering-sensitive sinks.

    Within the deterministic-merge subsystems (``parallel``, ``cache``,
    ``memo``, ``conformance``), iterating a ``set``/``frozenset`` into
    anything that preserves order — a ``for`` loop, ``list()``,
    ``enumerate()``, a list comprehension, ``str.join`` — makes results
    depend on hash seeding.  Wrap the set in ``sorted(...)`` or keep a
    deterministically ordered container instead.  Building another *set*
    from set iteration is order-free and allowed.
    """

    name = "set-iteration-order"
    severity = ERROR
    description = (
        "set/frozenset iterated into an ordering-sensitive sink in an "
        "order-critical package"
    )
    scope = ("repro.parallel", "repro.cache", "repro.memo", "repro.conformance")

    _ORDER_SINKS = frozenset({"list", "tuple", "enumerate", "iter"})

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For) and _is_set_expression(node.iter):
                yield module.finding(
                    self,
                    node.iter,
                    "for-loop over a set: iteration order depends on hash "
                    "seeding; wrap in sorted(...)",
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for generator in node.generators:
                    if _is_set_expression(generator.iter):
                        yield module.finding(
                            self,
                            generator.iter,
                            "comprehension over a set builds an ordered "
                            "result from hash order; wrap in sorted(...)",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in self._ORDER_SINKS
                    and node.args
                    and _is_set_expression(node.args[0])
                ):
                    yield module.finding(
                        self,
                        node,
                        f"{func.id}() over a set materializes hash order; "
                        "wrap in sorted(...)",
                    )
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "join"
                    and node.args
                    and _is_set_expression(node.args[0])
                ):
                    yield module.finding(
                        self,
                        node,
                        "str.join over a set concatenates in hash order; "
                        "wrap in sorted(...)",
                    )


class IdentityOrderingRule(Rule):
    """No ``id()`` / ``hash()`` inside ordering keys.

    ``sorted(xs, key=lambda x: id(x))`` (or ``hash``) orders by allocation
    address or hash seed — different in every process, so any downstream
    consumer of the order diverges between the driver and its workers.
    """

    name = "identity-ordering"
    severity = ERROR
    description = "id()/hash() used inside a sort key"

    _SORTERS = frozenset({"sorted", "min", "max"})

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_sorter = (
                isinstance(func, ast.Name) and func.id in self._SORTERS
            ) or (isinstance(func, ast.Attribute) and func.attr == "sort")
            if not is_sorter:
                continue
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                for sub in ast.walk(keyword.value):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id in {"id", "hash"}
                    ):
                        yield module.finding(
                            self,
                            sub,
                            f"{sub.func.id}() in a sort key orders by "
                            "process-specific identity; key on stable "
                            "content instead",
                        )
