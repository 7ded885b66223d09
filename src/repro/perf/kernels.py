"""Column kernels for the affine label rules of §4.2.

The three rules of :mod:`~repro.contraction.labels` — rake-add
``(C, C·(B+c) + D)``, rake-mul ``(C·B, D)`` and compress
``(A·C, A·D + B)`` — applied across parallel operand columns.  The §3
list-prefix scan (:func:`prefix_compose`) runs its doubling strides
through :meth:`PythonKernels.compress`.  The flat contraction evaluates
rake-tree labels in one scalar pass of its own
(:mod:`~repro.perf.flat_contraction`); no library code calls
``rake_add``/``rake_mul``, but ``perfbench/tracing.py`` wraps all three
rules by name to attribute kernel time.

Two interchangeable kernel sets:

* :class:`PythonKernels` — plain elementwise loops over the ring's
  ``add``/``mul``, preserving *exactly* the per-node operation order of
  :mod:`~repro.contraction.labels`.  Works for every ring (boolean,
  tropical, unbounded integers) and is the ground truth the vector path
  must match bit-for-bit.
* :class:`NumpyKernels` — NumPy-vectorized per-level arithmetic over
  *numeric* rings (see :data:`VECTOR_RING_BUILDERS`).  Guarded so it is
  only exact arithmetic: the integer ring falls back to the Python
  kernels for any level whose operands exceed the int64-safety bound
  (``|x| <= 2**30`` keeps every ``a*b + c*d + e`` below ``2**63``), and
  modular rings vectorize only for moduli below ``2**31``.  Float
  levels apply the identical IEEE-754 expression per element, so the
  two paths agree bitwise.

Selection (:func:`select_kernels`) is automatic — NumPy for registered
numeric rings, Python otherwise — and forceable via the
``REPRO_KERNELS`` environment variable (``auto`` | ``numpy`` |
``python``).  CI runs the tier-1 suite once per mode; the differential
fuzzer and ``tests/perf/test_kernels.py`` pin the two paths to
identical labels, values, and simulated costs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..algebra.rings import Ring
from ..errors import InvalidParameterError

try:  # pragma: no cover - exercised implicitly by selection
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None  # type: ignore[assignment]

__all__ = [
    "KERNEL_ENV",
    "VectorRing",
    "VECTOR_RING_BUILDERS",
    "PythonKernels",
    "NumpyKernels",
    "kernel_mode",
    "vector_ring_for",
    "select_kernels",
    "prefix_compose",
]

#: Environment variable controlling kernel dispatch.
KERNEL_ENV = "REPRO_KERNELS"

_MODES = ("auto", "numpy", "python")

#: Operand-magnitude bound for exact int64 level arithmetic: with every
#: |operand| <= 2**30, the largest kernel expression ``C*(B+c) + D``
#: stays below ``2**31 * 2**30 + 2**30 < 2**62`` — no wraparound.
INT64_SAFE_MAGNITUDE = 1 << 30

#: Largest modulus the modular rings vectorize under: residues live in
#: ``[0, p)`` so products stay below ``p**2 < 2**62``.
MAX_VECTOR_MODULUS = 1 << 31

#: Columns shorter than this take the scalar path even under
#: :class:`NumpyKernels`: array setup costs more than the loop, and the
#: two paths are exact so the answer cannot depend on the choice.
SCALAR_CUTOFF = 48


@dataclass(frozen=True)
class VectorRing:
    """How one numeric ring maps onto NumPy arrays.

    ``dtype`` is the array element type; ``modulus`` reduces every ring
    operation when set; ``guard`` is the per-level operand magnitude
    bound above which the level must take the Python fallback to stay
    exact (``None`` = always safe).
    """

    name: str
    dtype: Any
    modulus: Optional[int] = None
    guard: Optional[int] = None


def _vector_integer(ring: Ring) -> Optional[VectorRing]:
    return VectorRing("Z", "int64", guard=INT64_SAFE_MAGNITUDE)


def _vector_float(ring: Ring) -> Optional[VectorRing]:
    return VectorRing("R", "float64")


def _vector_modular(ring: Ring) -> Optional[VectorRing]:
    try:
        p = int(ring.name[2:])
    except ValueError:
        return None
    if p >= MAX_VECTOR_MODULUS:
        return None
    return VectorRing(ring.name, "int64", modulus=p)


#: Ring name -> builder returning its :class:`VectorRing` (or ``None``
#: when that particular instance cannot vectorize exactly).  Rings not
#: listed — boolean, tropical, user rings — always take the Python
#: kernels: their operations are not ``(+, *)`` array arithmetic.
VECTOR_RING_BUILDERS: Dict[str, Callable[[Ring], Optional[VectorRing]]] = {
    "Z": _vector_integer,
    "R": _vector_float,
}


def vector_ring_for(ring: Ring) -> Optional[VectorRing]:
    """The NumPy mapping for ``ring``, or ``None`` if it must stay on
    the Python kernels (non-numeric operations, oversized modulus)."""
    builder = VECTOR_RING_BUILDERS.get(ring.name)
    if builder is None and ring.name.startswith("Z/"):
        builder = _vector_modular
    if builder is None:
        return None
    return builder(ring)


def kernel_mode() -> str:
    """The dispatch mode from ``REPRO_KERNELS`` (default ``auto``)."""
    mode = os.environ.get(KERNEL_ENV, "auto").strip().lower() or "auto"
    if mode not in _MODES:
        raise InvalidParameterError(
            f"{KERNEL_ENV}={mode!r}: expected one of {_MODES}"
        )
    return mode


def select_kernels(ring: Ring) -> "PythonKernels":
    """Pick the kernel set for ``ring`` under the current mode.

    ``auto``/``numpy`` use :class:`NumpyKernels` when the ring has an
    exact vector mapping and NumPy is importable; non-numeric rings
    fall back to :class:`PythonKernels` in every mode (the fallback is
    what keeps differential tests honest, not an error).
    """
    mode = kernel_mode()
    if mode != "python" and _np is not None:
        vec = vector_ring_for(ring)
        if vec is not None:
            return NumpyKernels(ring, vec)
    return PythonKernels(ring)


class PythonKernels:
    """Elementwise label kernels: the ground-truth scalar path.

    Each method mirrors one rule of :mod:`~repro.contraction.labels`
    with the identical per-element operation order, applied across
    parallel operand columns.
    """

    vectorized = False

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


class NumpyKernels(PythonKernels):
    """NumPy column kernels over an exact :class:`VectorRing`.

    Any call whose operands cannot be represented exactly (int64
    overflow on conversion, or magnitudes beyond the guard bound)
    silently delegates to the inherited Python path for *that call
    only* — so answers never depend on which kernel set is selected.
    """

    vectorized = True

    def __init__(self, ring: Ring, vec: VectorRing) -> None:
        super().__init__(ring)
        self.vec = vec

    # -- exact array conversion -------------------------------------------
    def _arrays(self, *cols: Sequence[Any]) -> Optional[List[Any]]:
        """Convert operand columns, or ``None`` if the level must take
        the scalar fallback (tiny level, or exactness would be lost)."""
        if len(cols[0]) < SCALAR_CUTOFF:
            return None
        try:
            arrs = [_np.asarray(col, dtype=self.vec.dtype) for col in cols]
        except OverflowError:  # int64 cannot hold an operand
            return None
        guard = self.vec.guard
        if guard is not None:
            for arr in arrs:
                # Exact bound check (np.abs wraps on the int64 minimum).
                if arr.size and (
                    int(arr.max()) > guard or int(arr.min()) < -guard
                ):
                    return None
        return arrs

    def _out(self, arr: Any) -> List[Any]:
        if self.vec.modulus is not None:
            return [int(x) for x in arr.tolist()]
        return list(arr.tolist())

    def _mod(self, arr: Any) -> Any:
        if self.vec.modulus is not None:
            return arr % self.vec.modulus
        return arr

    # -- kernels ----------------------------------------------------------
    def rake_add(
        self,
        b: Sequence[Any],
        c: Sequence[Any],
        d: Sequence[Any],
        consts: Optional[Sequence[Any]] = None,
    ) -> Tuple[List[Any], List[Any]]:
        cols = (b, c, d) if consts is None else (b, c, d, consts)
        arrs = self._arrays(*cols)
        if arrs is None:
            return super().rake_add(b, c, d, consts)
        if consts is None:
            bb, cc, dd = arrs
        else:
            bb, cc, dd, kk = arrs
            bb = self._mod(bb + kk)
        out_b = self._mod(self._mod(cc * bb) + dd)
        return list(c), self._out(out_b)

    def rake_mul(
        self, b: Sequence[Any], c: Sequence[Any], d: Sequence[Any]
    ) -> Tuple[List[Any], List[Any]]:
        arrs = self._arrays(b, c)
        if arrs is None:
            return super().rake_mul(b, c, d)
        bb, cc = arrs
        return self._out(self._mod(cc * bb)), list(d)

    def compress(
        self,
        a: Sequence[Any],
        b: Sequence[Any],
        c: Sequence[Any],
        d: Sequence[Any],
    ) -> Tuple[List[Any], List[Any]]:
        arrs = self._arrays(a, b, c, d)
        if arrs is None:
            return super().compress(a, b, c, d)
        aa, bb, cc, dd = arrs
        out_a = self._mod(aa * cc)
        out_b = self._mod(self._mod(aa * dd) + bb)
        return self._out(out_a), self._out(out_b)


def _resident_compose_scan(
    vec: VectorRing, out_a: List[Any], out_b: List[Any]
) -> Optional[List[Tuple[Any, Any]]]:
    """Array-resident doubling scan over *exact* int64 rings, or
    ``None`` when the per-stride list path must be used.

    Same bracketing and expression order as the stride loop of
    :func:`prefix_compose`, but the labels stay in two NumPy arrays for
    the whole scan instead of round-tripping through Python lists every
    stride.  Eligibility is conservative and provably exact: ``Z/p``
    reduces every stride; ``Z`` requires every slope in ``{-1, 0, 1}``
    (so slope products never grow) and bounds the offset partial sums
    by ``n·max|B| < 2**62``.  Anything else — floats, big ints, steep
    slopes — falls back, and the fallback is element-for-element
    identical, so callers can never observe which path ran.
    """
    if _np is None or (vec.modulus is None and vec.guard is None):
        return None
    n = len(out_a)
    try:
        arr_a = _np.asarray(out_a, dtype=vec.dtype)
        arr_b = _np.asarray(out_b, dtype=vec.dtype)
    except (OverflowError, TypeError, ValueError):
        return None
    if arr_a.shape != (n,) or arr_b.shape != (n,):
        return None
    modulus = vec.modulus
    if modulus is None:
        if n and (int(arr_a.max()) > 1 or int(arr_a.min()) < -1):
            return None
        m = max(abs(int(arr_b.max(initial=0))), abs(int(arr_b.min(initial=0))))
        if m * n >= 1 << 62:
            return None
    stride = 1
    while stride < n:
        a = arr_a[stride:]
        b = arr_b[stride:]
        c = arr_a[:-stride]
        d = arr_b[:-stride]
        if modulus is None:
            na = a * c
            nb = (a * d) + b
        else:
            na = (a * c) % modulus
            nb = ((a * d) % modulus + b) % modulus
        arr_a[stride:] = na
        arr_b[stride:] = nb
        stride <<= 1
    return list(zip(arr_a.tolist(), arr_b.tolist()))


def prefix_compose(
    ring: Ring,
    labels: Sequence[Tuple[Any, Any]],
    kernels: Optional[PythonKernels] = None,
) -> List[Tuple[Any, Any]]:
    """Running left-fold of affine-label composition (the §3/§4.2
    prefix phase): ``out[i] = l_i ∘ l_{i-1} ∘ … ∘ l_0`` where
    ``(A, B) ∘ (C, D) = (A·C, A·D + B)`` — later labels applied outside
    earlier ones, exactly :func:`~repro.contraction.labels.compress_label`.

    Both kernel sets evaluate the *same* doubling-scan bracketing
    (``O(log n)`` strides of :meth:`PythonKernels.compress` /
    :meth:`NumpyKernels.compress` over identical index pairs), so the
    two modes produce identical results element-for-element.
    Composition is associative (labels.py), so over exact rings the
    scan equals the sequential left fold outright.
    """
    if kernels is None:
        kernels = select_kernels(ring)
    n = len(labels)
    out_a = [lab[0] for lab in labels]
    out_b = [lab[1] for lab in labels]
    if isinstance(kernels, NumpyKernels) and n >= SCALAR_CUTOFF:
        resident = _resident_compose_scan(kernels.vec, out_a, out_b)
        if resident is not None:
            return resident
    # Inclusive-scan by doubling: stride passes compose out[i] (outer)
    # over out[i - stride] (inner).  Composition is associative
    # (labels.py), so the doubling bracketing equals the left fold for
    # every ring where the kernels are exact — and the scalar kernels
    # are used per stride too, keeping the two modes in lockstep.
    stride = 1
    while stride < n:
        idx = range(stride, n)
        a = [out_a[i] for i in idx]
        b = [out_b[i] for i in idx]
        c = [out_a[i - stride] for i in idx]
        d = [out_b[i - stride] for i in idx]
        na, nb = kernels.compress(a, b, c, d)
        for j, i in enumerate(idx):
            out_a[i] = na[j]
            out_b[i] = nb[j]
        stride <<= 1
    return list(zip(out_a, out_b))
