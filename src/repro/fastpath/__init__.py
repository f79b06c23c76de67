"""``repro.fastpath``: the conformance-checked accelerated substrate.

The two kernels ``repro profile`` bills most oracle time to
(``cost.eval`` and ``enum.recurse``) run here behind a drop-in fast path:

* :class:`BatchCostKernel` — operator costs over a whole candidate
  frontier in one pure-python batch, fed by the query's per-subset
  pages/cardinality caches and a per-subset sort-cost memo;
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

__all__ = [
    "BatchCostKernel",
    "FastTopDownEnumerator",
]
