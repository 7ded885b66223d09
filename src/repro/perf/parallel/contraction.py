"""``ParallelContraction`` — shared-slab rake-tree trace with cached
level schedules (``DynamicTreeContraction(..., backend="parallel")``).

Subclasses :class:`~repro.perf.flat_contraction.FlatContraction`; the
replay algorithm, memo rule, GC and trace protocol are all inherited.
Two things change, both only for *exact* vector rings (``Z``, ``Z/p``):

* the ``(A, B)`` label columns become shared-memory
  :class:`~repro.perf.parallel.slab.SlabColumn` slabs (inherited code
  mutates them through the list protocol; worker processes map the
  same bytes; out-of-range ints are boxed master-side and their
  sentinel cells deterministically fail every magnitude guard);
* :meth:`heal` gets a fast path: the Theorem 4.2 wound ``RT(W)`` —
  chain walk, topological sort, per-level family batching — depends
  only on the rake-tree *topology* and the token set, not on label
  values.  So it is computed once, converted to per-level NumPy index
  arrays, and cached keyed on ``(topology epoch, tokens)``.  Repeat
  heals of the same dirty set (the steady-state of a value-update
  workload, and exactly the E14 benchmark cell) skip all per-row
  Python work: each level is a handful of fancy-indexed array kernels
  executed inline or chunked across the worker pool by the
  :class:`~repro.perf.parallel.engine.ParallelEngine`.

Exactness: before evaluating a level the gathered operands are checked
against the same magnitude bound as
:class:`~repro.perf.kernels.NumpyKernels` (``Z``) or the residue range
(``Z/p``); sentinels of boxed/``None`` cells sit far outside both, so
any heal touching a boxed label falls back to the inherited single
pass, which reads exact Python values.  Every fallback
recomputes from level-0 inputs (rows *outside* the wound), so a
partially-evaluated fast path is always safely recomputable.  Answers
are therefore bit-for-bit the flat backend's on every ring.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Tuple

from ...algebra.rings import Ring
from ...pram.frames import SpanTracker
from ...trees.nodes import Op
from ..flat_contraction import _COMPRESS, _RAKE, FlatContraction
from .engine import ParallelEngine
from .rbsts import default_workers, exact_vector_ring
from .slab import SlabColumn

try:  # pragma: no cover - the image bakes numpy in
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None  # type: ignore[assignment]

__all__ = ["ParallelContraction"]

# One cached level: (family, out_rows, left_inputs, right_inputs, consts)
_Level = Tuple[str, Any, Any, Any, Optional[Any]]


class ParallelContraction(FlatContraction):
    """Rake-tree trace over shared slabs with pool-chunked heal rounds."""

    def __init__(
        self,
        ring: Ring,
        *,
        workers: Optional[int] = None,
        force_offload: bool = False,
    ) -> None:
        super().__init__(ring)
        self.engine = ParallelEngine(
            ring,
            workers=default_workers() if workers is None else workers,
            force_offload=force_offload,
        )
        self._vec = exact_vector_ring(self.engine)
        if self._vec is not None:
            self._labA = SlabColumn(
                self._vec.dtype, modulus=self._vec.modulus
            )
            self._labB = SlabColumn(
                self._vec.dtype, modulus=self._vec.modulus
            )
        # Heal-schedule cache: one entry, keyed on (epoch, tokens).
        self._epoch = 0
        self._heal_key: Optional[Tuple[int, Tuple[int, ...]]] = None
        self._heal_wound: List[int] = []
        self._heal_levels: List[_Level] = []

    def close(self) -> None:
        """Release label slabs and engine scratch (tests call this to
        assert the segment registry drains; GC finalizers are backup)."""
        if isinstance(self._labA, SlabColumn):
            col_a, col_b = self._labA, self._labB
            self._labA = list(col_a)
            self._labB = list(col_b)
            col_a.release()
            col_b.release()
        self._heal_key = None
        self.engine.close()

    # -- cache invalidation ---------------------------------------------
    def _finish(self, *args, **kwargs) -> None:
        # Any replay may change topology / row reuse: new epoch.
        self._epoch += 1
        self._heal_key = None
        super()._finish(*args, **kwargs)

    def set_rake_op(self, nid: int, op: Op) -> int:
        # Op swaps change a row's kernel family (add/addc/mul) and the
        # cached consts column.
        self._epoch += 1
        self._heal_key = None
        return super().set_rake_op(nid, op)

    # -- the cached, vectorized heal ------------------------------------
    def heal(
        self, tokens: List[int], tracker: Optional[SpanTracker] = None
    ) -> int:
        if self._vec is None or _np is None:
            return super().heal(tokens, tracker)
        key = (self._epoch, tuple(tokens))
        if self._heal_key != key:
            self._levelize(tokens)
            self._heal_key = key
        wound = self._heal_wound
        if not self._eval_levels_fast():
            # Operands out of vector range (or boxed): ground truth.
            # Recomputation is safe — every level's ultimate inputs are
            # rows outside the wound, untouched by the fast attempt.
            self._relabel(wound)
        if tracker is not None:
            k = len(wound) + 1
            tracker.charge(
                work=k, span=max(1, 2 * math.ceil(math.log2(k + 1)))
            )
        return len(wound)

    def _levelize(self, tokens: List[int]) -> None:
        """Chain-walk the wound and build per-level family index arrays
        (the one-off Python cost the cache amortises away)."""
        rparent = self._rparent
        seen = {}
        for row in tokens:
            while row >= 0 and row not in seen:
                seen[row] = True
                row = rparent[row]
        wound = sorted(seen, key=self._rid.__getitem__)
        kind, lch, rch, ops_col = (
            self._kind, self._lchild, self._rchild, self._op,
        )
        lvl = [0] * len(kind)
        levels: List[List[int]] = []
        for row in wound:
            if kind[row] < _RAKE:
                continue  # base rows already carry their labels
            a = lvl[lch[row]]
            b = lvl[rch[row]]
            v = (a if a > b else b) + 1
            lvl[row] = v
            if v > len(levels):
                levels.append([])
            levels[v - 1].append(row)
        out: List[_Level] = []
        for batch in levels:
            fams: dict = {"add": [], "addc": [], "mul": [], "cmp": []}
            for row in batch:
                if kind[row] == _COMPRESS:
                    fams["cmp"].append(row)
                else:
                    op = ops_col[row]
                    if op.kind == "add":
                        fams["addc" if op.const is not None else "add"].append(row)
                    else:
                        fams["mul"].append(row)
            for fam in ("add", "addc", "mul", "cmp"):
                rows = fams[fam]
                if not rows:
                    continue
                idx = _np.asarray(rows, dtype="int64")
                li = _np.asarray([lch[r] for r in rows], dtype="int64")
                ri = _np.asarray([rch[r] for r in rows], dtype="int64")
                consts = None
                if fam == "addc":
                    consts = _np.asarray(
                        [ops_col[r].const for r in rows], dtype="int64"
                    )
                out.append((fam, idx, li, ri, consts))
        self._heal_wound = wound
        self._heal_levels = out

    def _eval_levels_fast(self) -> bool:
        """Run the cached levels as array kernels; ``False`` aborts to
        the exact Python path (nothing committed is wrong — see class
        docstring on recomputability)."""
        la_col, lb_col = self._labA, self._labB
        if not isinstance(la_col, SlabColumn):  # pragma: no cover - guard
            return False
        la, lb = la_col.data, lb_col.data
        vec = self._vec
        guard, modulus = vec.guard, vec.modulus
        engine = self.engine
        for fam, idx, li, ri, consts in self._heal_levels:
            # Mirror the NumpyKernels magnitude guard on the gathered
            # operands of this level.  Sentinels (None/boxed cells) are
            # ±(2**63 - small) and always fail, by construction.
            if fam == "cmp":
                gathered = (la[li], lb[li], la[ri], lb[ri])
            elif consts is not None:
                gathered = (lb[li], la[ri], lb[ri], consts)
            else:
                gathered = (lb[li], la[ri], lb[ri])
            if guard is not None:
                for arr in gathered:
                    if arr.size and (
                        int(arr.max()) > guard or int(arr.min()) < -guard
                    ):
                        return False
            else:  # Z/p: residues live in [0, p); sentinels don't.
                for arr in gathered:
                    if arr.size and (
                        int(arr.min()) < 0 or int(arr.max()) >= modulus
                    ):
                        return False
            engine.eval_level(
                la_col.slab, lb_col.slab, la, lb, fam, idx, li, ri, consts
            )
        return True
