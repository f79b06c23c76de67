"""Rule registry: every built-in rule, instantiated once.

Adding a rule = subclass :class:`repro.lint.engine.Rule` in one of the
rule modules (or a new one) and list an instance here; the CLI, the JSON
reporter, ``--select``/``--ignore`` validation, and the documentation
catalog all read this tuple.  Every rule checks one module at a time.
"""

from __future__ import annotations

from repro.lint.engine import Rule
from repro.lint.rules.bitset import (
    BinPopcountRule,
    BitsetMaterializationRule,
    PerBitLoopRule,
)
from repro.lint.rules.determinism import (
    IdentityOrderingRule,
    SetIterationOrderRule,
    UnseededRandomRule,
)
from repro.lint.rules.hotpath import HotPathPurityRule
from repro.lint.rules.layering import LAYERS, ImportLayeringRule
from repro.lint.rules.locks import LockDisciplineRule
from repro.lint.rules.metrics import InstrumentNameRule, MetricsFieldRule

__all__ = ["ALL_RULES", "LAYERS", "rule_by_name"]

#: Every built-in rule, in catalog order (determinism, bitset, hot path,
#: metrics, layering, locks).
ALL_RULES: tuple[Rule, ...] = (
    UnseededRandomRule(),
    SetIterationOrderRule(),
    IdentityOrderingRule(),
    BinPopcountRule(),
    BitsetMaterializationRule(),
    PerBitLoopRule(),
    HotPathPurityRule(),
    MetricsFieldRule(),
    InstrumentNameRule(),
    ImportLayeringRule(),
    LockDisciplineRule(),
)


def rule_by_name(name: str) -> Rule:
    """Look up a built-in rule; raises ``KeyError`` on unknown names."""
    for rule in ALL_RULES:
        if rule.name == name:
            return rule
    raise KeyError(name)
