"""Column forms of the affine label rules of §4.2, kept for the tracer.

The three rules of :mod:`~repro.contraction.labels` — rake-add
``(C, C·(B+c) + D)``, rake-mul ``(C·B, D)`` and compress
``(A·C, A·D + B)`` — mapped across parallel operand columns by calling
the scalar rules (:func:`~repro.contraction.labels.rake_label`,
:func:`~repro.contraction.labels.compress_label`) per entry, so the
rules stay written once.  No library code calls them: the flat
contraction evaluates rake-tree labels with the row kernel
:func:`~repro.contraction.labels.relabel_rows`, and
:meth:`~repro.listprefix.structure.IncrementalListPrefix.batch_prefix`
folds sequentially.  They stay only because the repository benchmark's
tracer (``perfbench/tracing.py``) imports :func:`select_kernels` and
wraps ``rake_add``, ``rake_mul`` and ``compress`` by name to report
``perf.kernel_*``.  They go together with that tracer hook once the
single instrumentation seam (ROADMAP item 6) replaces it.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..algebra.rings import Ring
from ..contraction.labels import compress_label, rake_label
from ..trees.nodes import add_op, mul_op

__all__ = ["PythonKernels", "select_kernels"]

_MUL = mul_op()


def _columns(labels: List[Tuple[Any, Any]]) -> Tuple[List[Any], List[Any]]:
    """The ``A`` and ``B`` columns of a list of labels."""
    return [x for x, _ in labels], [y for _, y in labels]


def select_kernels(ring: Ring) -> "PythonKernels":
    """The kernel set for ``ring`` (there is one)."""
    return PythonKernels(ring)


class PythonKernels:
    """Elementwise label kernels: one scalar rule of
    :mod:`~repro.contraction.labels` per column entry."""

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
        ring, zero = self.ring, self.ring.zero
        ks = [None] * len(b) if consts is None else consts
        return _columns([
            rake_label(ring, add_op(ki), (zero, bi), (ci, di))
            for bi, ci, di, ki in zip(b, c, d, ks)
        ])

    def rake_mul(
        self, b: Sequence[Any], c: Sequence[Any], d: Sequence[Any]
    ) -> Tuple[List[Any], List[Any]]:
        """``(C·B, D)`` for each column entry."""
        ring, zero = self.ring, self.ring.zero
        return _columns([
            rake_label(ring, _MUL, (zero, bi), (ci, di))
            for bi, ci, di in zip(b, c, d)
        ])

    # -- compress: (A, B) outer over (C, D) inner --------------------------
    def compress(
        self,
        a: Sequence[Any],
        b: Sequence[Any],
        c: Sequence[Any],
        d: Sequence[Any],
    ) -> Tuple[List[Any], List[Any]]:
        """``(A·C, A·D + B)`` for each column entry."""
        ring = self.ring
        return _columns([
            compress_label(ring, (ai, bi), (ci, di))
            for ai, bi, ci, di in zip(a, b, c, d)
        ])
