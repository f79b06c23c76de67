"""``repro.fastpath``: the conformance-checked accelerated substrate.

Two measured hot kernels (``cost.eval`` ~50 % and ``enum.recurse`` ~31 %
of wall, BENCH_profile.json) run here behind a drop-in fast path:

* :class:`BatchCostKernel` — operator costs over a whole candidate
  frontier in one pure-python batch, fed by :class:`OperandStats`
  per-subset memos;
* :class:`FastTopDownEnumerator` — the oracle's Algorithm 1/7 loops
  restructured around the batch kernel, building plan nodes only for
  improving candidates.

Selection: the registry's ``!fast`` name suffix (``TBNmc!fast``,
composing with ``@N``, ``%policy``, ``?budget`` and ``^k``) is the only
switch.  The pure-python oracle stays the default and the conformance
reference: ``repro verify`` pins bit-identical plans and 1e-9 cost
agreement between the paths on every fuzz case (the ``fastpath-parity``
invariant).

See ``docs/performance.md`` for the architecture and the oracle
contract.
"""

from __future__ import annotations

from repro.fastpath.batch import BatchCostKernel
from repro.fastpath.enumerator import FastTopDownEnumerator
from repro.fastpath.stats import OperandStats

__all__ = [
    "BatchCostKernel",
    "FastTopDownEnumerator",
    "OperandStats",
]
