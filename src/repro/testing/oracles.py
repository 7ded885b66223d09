"""Pluggable oracles and invariant audits.

Three independent lines of defence, mapped to the paper in DESIGN.md §6:

1. **Naive recompute** — a :class:`repro.baselines.SequentialList`
   (list scenario) or direct ``ExprTree`` evaluation via
   :class:`repro.baselines.RecomputeBaseline` (contraction scenario)
   recomputes every answer from scratch.
2. **Lockstep twins** — reference and flat backends must be
   *bit-identical* for the same seed: :func:`shape_signature` pins
   shapes, ``n_leaves``/depth/height bookkeeping, shortcut lists (§2),
   exactly-maintained summaries (§3), and :func:`rng_parity` pins
   master-RNG consumption draw-for-draw.
3. **Self audits** — each structure's own ``check_invariants`` /
   ``check_consistency`` (structural soundness, slab hygiene, shortcut
   presence thresholds, stale activation state).

All violations raise :class:`OracleViolation` with a phase tag so the
executor can report *which* defence fired.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..perf.flat_rbsts import FlatRBSTS

__all__ = [
    "OracleViolation",
    "shape_signature",
    "assert_twins",
    "assert_model",
    "rng_parity",
]


class OracleViolation(AssertionError):
    """An oracle or invariant audit failed.

    ``phase`` names the defence that fired (``model``, ``twins``,
    ``invariants``, ``rng``, ``stats``, ``query``, ``contraction``).
    """

    def __init__(self, phase: str, message: str) -> None:
        super().__init__(f"[{phase}] {message}")
        self.phase = phase


def shape_signature(tree) -> List[Tuple]:
    """Backend-independent preorder signature of an RBSTS.

    One tuple per node: ``(is_leaf, n_leaves, depth, height, item,
    shortcut_target_depths, summary)`` — everything the paper's
    invariants constrain.  Works for both the pointer-graph reference
    and the struct-of-arrays :class:`~repro.perf.flat_rbsts.FlatRBSTS`.
    """
    sig: List[Tuple] = []
    if isinstance(tree, FlatRBSTS):
        left, right = tree._left, tree._right
        depth_arr = tree._depth
        stack = [tree.root_index]
        while stack:
            v = stack.pop()
            leaf = left[v] == -1
            sc = tree._shortcuts[v]
            sig.append(
                (
                    leaf,
                    tree._n_leaves[v],
                    depth_arr[v],
                    tree._height[v],
                    tree._item[v] if leaf else None,
                    None if sc is None else tuple(depth_arr[s] for s in sc),
                    tree._summary[v],
                )
            )
            if not leaf:
                stack.append(right[v])
                stack.append(left[v])
    else:
        stack = [tree.root]
        while stack:
            v = stack.pop()
            sc = v.shortcuts
            sig.append(
                (
                    v.is_leaf,
                    v.n_leaves,
                    v.depth,
                    v.height,
                    v.item if v.is_leaf else None,
                    None if sc is None else tuple(s.depth for s in sc),
                    v.summary,
                )
            )
            if not v.is_leaf:
                stack.append(v.right)
                stack.append(v.left)
    return sig


def _first_divergence(a: Sequence, b: Sequence) -> str:
    if len(a) != len(b):
        return f"node counts differ ({len(a)} vs {len(b)})"
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"first divergence at preorder node {i}: {x!r} != {y!r}"
    return "identical"  # pragma: no cover - callers check inequality first


def rng_parity(ref, flat) -> None:
    """The equivalence contract's strongest clause: both backends must
    have consumed their master RNG identically (same residual state)."""
    if ref.rng_state() != flat.rng_state():
        raise OracleViolation(
            "rng",
            "master-RNG consumption diverged between reference and flat "
            "backends (equivalence contract, flat_rbsts.py)",
        )


def assert_twins(ref, flat, *, where: str = "") -> None:
    """Full lockstep audit of a reference/flat RBSTS pair."""
    sig_r, sig_f = shape_signature(ref), shape_signature(flat)
    if sig_r != sig_f:
        raise OracleViolation(
            "twins", f"shape signatures diverged {where}: "
            + _first_divergence(sig_r, sig_f)
        )
    rng_parity(ref, flat)
    try:
        ref.check_invariants()
    except Exception as exc:
        raise OracleViolation("invariants", f"reference backend: {exc}") from exc
    try:
        flat.check_invariants()
    except Exception as exc:
        raise OracleViolation("invariants", f"flat backend: {exc}") from exc


def assert_model(
    tree,
    model: Sequence[Any],
    *,
    monoid=None,
    label: str,
    check_self: bool = True,
) -> None:
    """Naive-recompute oracle: the structure must agree with a plain
    list on contents, count, and (when summarised) the total fold."""
    got = [h.item for h in tree.leaves()]
    if got != list(model):
        raise OracleViolation(
            "model",
            f"{label}: sequence contents diverged from the naive model "
            f"(len {len(got)} vs {len(model)}): {got!r} != {list(model)!r}",
        )
    if tree.n_leaves != len(model):
        raise OracleViolation(
            "model",
            f"{label}: n_leaves {tree.n_leaves} != model length {len(model)}",
        )
    if monoid is not None:
        expect = monoid.fold(model)
        root_sum = (
            tree._summary[tree.root_index]
            if isinstance(tree, FlatRBSTS)
            else tree.root.summary
        )
        if root_sum != expect:
            raise OracleViolation(
                "model",
                f"{label}: root summary {root_sum!r} != naive fold "
                f"{expect!r} (SUM_v maintenance, §3)",
            )
    if check_self:
        try:
            tree.check_invariants()
        except Exception as exc:
            raise OracleViolation("invariants", f"{label}: {exc}") from exc
