"""Backend parity: the flat struct-of-arrays backend stays a drop-in
twin of the reference implementation.

The differential fuzzer replays one op stream against both backends in
lockstep, so a method that exists on one side only (or renames a
keyword) silently narrows fuzz coverage rather than failing loudly.
Each pair below is compared as Python reports it at run time: a
class's own public functions, properties and annotated fields
(``vars(cls)`` and ``__annotations__``), and every method's or
function's ``inspect.signature`` parameter names.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, NamedTuple, Tuple

import pytest

from repro.contraction.rake_tree import RakeTrace
from repro.perf.flat_activation import (
    FlatActivationResult,
    flat_activate,
    flat_deactivate,
)
from repro.perf.flat_contraction import FlatContraction
from repro.perf.flat_prefix import flat_extended_parse_tree
from repro.perf.flat_rbsts import FlatRBSTS
from repro.splitting.activation import ActivationResult, activate, deactivate
from repro.splitting.parse_tree import build_extended_parse_tree
from repro.splitting.rbsts import RBSTS


class ParityPair(NamedTuple):
    """One reference/flat surface that must stay in lockstep.

    ``allow_extra_ref``/``allow_extra_flat`` name members that may
    exist on one side only (each justified in ``notes``);
    ``param_renames`` maps reference parameter names to their accepted
    flat spelling.
    """

    name: str
    ref: Any
    flat: Any
    allow_extra_ref: FrozenSet[str] = frozenset()
    allow_extra_flat: FrozenSet[str] = frozenset()
    param_renames: Mapping[str, str] = {}
    notes: str = ""


PARITY_PAIRS: Tuple[ParityPair, ...] = (
    ParityPair(
        "rbsts",
        RBSTS,
        FlatRBSTS,
        allow_extra_flat=frozenset({"slab_size", "free_slots", "handle"}),
        notes=(
            "slab_size/free_slots expose struct-of-arrays capacity (no "
            "pointer-backend analogue); handle(idx) is the slot->FlatLeaf "
            "constructor the reference backend does not need."
        ),
    ),
    ParityPair("activate", activate, flat_activate),
    ParityPair("deactivate", deactivate, flat_deactivate),
    ParityPair(
        "activation-result",
        ActivationResult,
        FlatActivationResult,
        allow_extra_flat=frozenset({"deactivate", "tree"}),
        notes=(
            "FlatActivationResult.deactivate() is a convenience bound "
            "method (the reference API uses the free function); the "
            "`tree` field is the backing FlatRBSTS the column clears "
            "need — the reference result holds node objects instead."
        ),
    ),
    ParityPair(
        "contraction-trace",
        RakeTrace,
        FlatContraction,
        allow_extra_ref=frozenset({"new_node"}),
        allow_extra_flat=frozenset({"replay", "removal"}),
        notes=(
            "new_node is the reference trace's RTNode allocator (the "
            "slab allocates rows inline); replay() is the flat "
            "backend's build entry point (the reference uses the free "
            "function build_trace); the removal property materialises "
            "the reference-shaped removal dict on demand (the "
            "reference keeps it as a plain instance attribute)."
        ),
    ),
    ParityPair(
        "extended-parse-tree",
        build_extended_parse_tree,
        flat_extended_parse_tree,
        param_renames={"root": "tree"},
        notes=(
            "the reference walks from a node, the flat twin from the "
            "tree (slots need the column arrays)."
        ),
    ),
)


def _params(fn: Callable[..., Any], *, drop_self: bool) -> Tuple[str, ...]:
    names: List[str] = []
    for p in inspect.signature(fn).parameters.values():
        if p.kind is p.VAR_POSITIONAL:
            names.append("*" + p.name)
        elif p.kind is p.VAR_KEYWORD:
            names.append("**" + p.name)
        else:
            names.append(p.name)
    if drop_self and names and names[0] in ("self", "cls"):
        names = names[1:]
    return tuple(names)


def _members(cls: type) -> Dict[str, Tuple[str, Tuple[str, ...]]]:
    """A class's own public surface: name -> (kind, parameter names)."""
    out: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
    for name, obj in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(obj, property):
            out[name] = ("property", ())
        elif isinstance(obj, (staticmethod, classmethod)):
            out[name] = ("method", _params(obj.__func__, drop_self=True))
        elif inspect.isfunction(obj):
            out[name] = ("method", _params(obj, drop_self=True))
    for name in inspect.get_annotations(cls):
        if not name.startswith("_"):
            out.setdefault(name, ("attribute", ()))
    return out


def surface_drift(pair: ParityPair) -> List[str]:
    """Every way ``pair.flat`` fails to be a drop-in twin of
    ``pair.ref``; empty when the two are in lockstep."""
    rename = lambda params: tuple(  # noqa: E731
        pair.param_renames.get(p, p) for p in params
    )
    if not isinstance(pair.ref, type):
        ref_params = rename(_params(pair.ref, drop_self=False))
        flat_params = _params(pair.flat, drop_self=False)
        if ref_params == flat_params:
            return []
        return [
            f"{pair.name}: parameter drift — {pair.ref.__name__}"
            f"{ref_params} vs {pair.flat.__name__}{flat_params}"
        ]
    ref, flat = _members(pair.ref), _members(pair.flat)
    drift: List[str] = []
    for name, (kind, params) in sorted(ref.items()):
        if name in pair.allow_extra_ref:
            continue
        if name not in flat:
            drift.append(f"{pair.name}: flat lacks public member {name!r}")
        elif flat[name][0] != kind:
            drift.append(
                f"{pair.name}: {name!r} is a {kind} on the reference "
                f"but a {flat[name][0]} on the flat twin"
            )
        elif rename(params) != flat[name][1]:
            drift.append(
                f"{pair.name}: parameter drift on {name!r} — "
                f"{params} vs {flat[name][1]}"
            )
    for name in sorted(set(flat) - set(ref) - pair.allow_extra_flat):
        drift.append(
            f"{pair.name}: flat grew public member {name!r} with no "
            "reference counterpart (mirror it, or register it in "
            "PARITY_PAIRS with a justification)"
        )
    return drift


@pytest.mark.parametrize("pair", PARITY_PAIRS, ids=lambda p: p.name)
def test_flat_backend_is_a_drop_in_twin(pair):
    assert surface_drift(pair) == []
