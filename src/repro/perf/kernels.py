"""Column forms of the affine label rules of §4.2, kept for the tracer.

The three rules of :mod:`~repro.contraction.labels` — rake-add
``(C, C·(B+c) + D)``, rake-mul ``(C·B, D)`` and compress
``(A·C, A·D + B)`` — applied across parallel operand columns.  No
library code calls them: the flat contraction evaluates rake-tree
labels in one scalar pass of its own
(:mod:`~repro.perf.flat_contraction`), and
:meth:`~repro.listprefix.structure.IncrementalListPrefix.batch_prefix`
folds sequentially.  They stay only because the repository benchmark's
tracer (``perfbench/tracing.py``) imports :func:`select_kernels` and
wraps ``rake_add``, ``rake_mul`` and ``compress`` by name to report
``perf.kernel_*``.  They go together with that tracer hook once the
single instrumentation seam (ROADMAP item 4) replaces it.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..algebra.rings import Ring

__all__ = ["PythonKernels", "select_kernels"]


def select_kernels(ring: Ring) -> "PythonKernels":
    """The kernel set for ``ring`` (there is one)."""
    return PythonKernels(ring)


class PythonKernels:
    """Elementwise label kernels.

    Each method mirrors one rule of :mod:`~repro.contraction.labels`
    with the identical per-element operation order, applied across
    parallel operand columns.
    """

    def __init__(self, ring: Ring) -> None:
        self.ring = ring

    # -- rake: (B leaf) into (C, D) parent --------------------------------
    def rake_add(
        self,
        b: Sequence[Any],
        c: Sequence[Any],
        d: Sequence[Any],
        consts: Optional[Sequence[Any]] = None,
    ) -> Tuple[List[Any], List[Any]]:
        """``(C, C·(B [+ const]) + D)`` for each column entry."""
        add, mul = self.ring.add, self.ring.mul
        if consts is None:
            return list(c), [
                add(mul(ci, bi), di) for bi, ci, di in zip(b, c, d)
            ]
        return list(c), [
            add(mul(ci, add(bi, ki)), di)
            for bi, ci, di, ki in zip(b, c, d, consts)
        ]

    def rake_mul(
        self, b: Sequence[Any], c: Sequence[Any], d: Sequence[Any]
    ) -> Tuple[List[Any], List[Any]]:
        """``(C·B, D)`` for each column entry."""
        mul = self.ring.mul
        return [mul(ci, bi) for bi, ci in zip(b, c)], list(d)

    # -- compress: (A, B) outer over (C, D) inner --------------------------
    def compress(
        self,
        a: Sequence[Any],
        b: Sequence[Any],
        c: Sequence[Any],
        d: Sequence[Any],
    ) -> Tuple[List[Any], List[Any]]:
        """``(A·C, A·D + B)`` for each column entry."""
        add, mul = self.ring.add, self.ring.mul
        return (
            [mul(ai, ci) for ai, ci in zip(a, c)],
            [add(mul(ai, di), bi) for ai, bi, di in zip(a, b, d)],
        )
