"""R003 — backend API parity.

The flat struct-of-arrays backend must stay a drop-in twin of the
reference implementation: same public surface, same parameter names.
The differential fuzzer replays one op stream against both backends in
lockstep, so a method that exists on one side only (or renames a
keyword) silently narrows fuzz coverage rather than failing loudly.
This rule diffs the registered surface pairs straight from the ASTs on
every lint run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..config import LintConfig, ParityPair
from ..engine import Finding, ModuleInfo, RepoContext, Rule

__all__ = ["BackendParityRule"]


@dataclass(frozen=True)
class _Member:
    name: str
    kind: str  # "method" | "property" | "attribute"
    params: Tuple[str, ...]
    node: ast.AST


class BackendParityRule(Rule):
    id = "R003"
    title = "backend API parity (reference vs flat surface)"
    level = "error"

    def __init__(self, config: LintConfig) -> None:
        self.config = config

    def check(self, ctx: RepoContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for pair in self.config.parity_pairs:
            findings.extend(self._check_pair(ctx, pair))
        return findings

    # -- one pair ---------------------------------------------------------
    def _check_pair(
        self, ctx: RepoContext, pair: ParityPair
    ) -> Iterable[Finding]:
        ref_mod = ctx.module(pair.ref_path)
        flat_mod = ctx.module(pair.flat_path)
        if ref_mod is None or flat_mod is None:
            # Pair members outside the scanned target set: nothing to do
            # (the repo-clean self-check always scans all of src/repro).
            return
        ref = _find_symbol(ref_mod, pair.ref_symbol)
        flat = _find_symbol(flat_mod, pair.flat_symbol)
        for mod, path, sym, node in (
            (ref_mod, pair.ref_path, pair.ref_symbol, ref),
            (flat_mod, pair.flat_path, pair.flat_symbol, flat),
        ):
            if node is None:
                yield self.finding(
                    mod,
                    mod.tree,
                    f"parity pair {pair.name!r}: symbol {sym!r} not found "
                    f"in {path}",
                )
        if ref is None or flat is None:
            return
        if pair.kind == "function":
            yield from self._compare_functions(
                pair, ref_mod, flat_mod, ref, flat
            )
            return
        yield from self._compare_classes(pair, ref_mod, flat_mod, ref, flat)

    def _compare_functions(
        self,
        pair: ParityPair,
        ref_mod: ModuleInfo,
        flat_mod: ModuleInfo,
        ref: ast.AST,
        flat: ast.AST,
    ) -> Iterable[Finding]:
        assert isinstance(ref, (ast.FunctionDef, ast.AsyncFunctionDef))
        assert isinstance(flat, (ast.FunctionDef, ast.AsyncFunctionDef))
        ref_params = _params(ref, drop_self=False)
        flat_params = _params(flat, drop_self=False)
        mapped = tuple(pair.param_renames.get(p, p) for p in ref_params)
        if mapped != flat_params:
            yield self.finding(
                flat_mod,
                flat,
                f"parity pair {pair.name!r}: parameter drift — "
                f"{pair.ref_symbol}{tuple(ref_params)} vs "
                f"{pair.flat_symbol}{tuple(flat_params)}",
            )

    def _compare_classes(
        self,
        pair: ParityPair,
        ref_mod: ModuleInfo,
        flat_mod: ModuleInfo,
        ref: ast.AST,
        flat: ast.AST,
    ) -> Iterable[Finding]:
        assert isinstance(ref, ast.ClassDef)
        assert isinstance(flat, ast.ClassDef)
        ref_members = _public_members(ref)
        flat_members = _public_members(flat)

        for name, member in sorted(ref_members.items()):
            if name in pair.allow_extra_ref:
                continue
            twin = flat_members.get(name)
            if twin is None:
                yield self.finding(
                    flat_mod,
                    flat,
                    f"parity pair {pair.name!r}: {pair.flat_symbol} lacks "
                    f"public member {name!r} present on {pair.ref_symbol} "
                    "(add it, or register the gap in "
                    "repro.lint.config.PARITY_PAIRS)",
                )
                continue
            if twin.kind != member.kind:
                yield self.finding(
                    flat_mod,
                    twin.node,
                    f"parity pair {pair.name!r}: member {name!r} is a "
                    f"{member.kind} on {pair.ref_symbol} but a {twin.kind} "
                    f"on {pair.flat_symbol}",
                )
                continue
            mapped = tuple(
                pair.param_renames.get(p, p) for p in member.params
            )
            if member.kind == "method" and mapped != twin.params:
                yield self.finding(
                    flat_mod,
                    twin.node,
                    f"parity pair {pair.name!r}: parameter drift on "
                    f"{name!r} — {tuple(member.params)} vs "
                    f"{tuple(twin.params)}",
                )
        for name, twin in sorted(flat_members.items()):
            if name in ref_members or name in pair.allow_extra_flat:
                continue
            yield self.finding(
                flat_mod,
                twin.node,
                f"parity pair {pair.name!r}: {pair.flat_symbol} grew "
                f"public member {name!r} with no {pair.ref_symbol} "
                "counterpart (mirror it, or register it in "
                "repro.lint.config.PARITY_PAIRS with a justification)",
            )


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------


def _find_symbol(module: ModuleInfo, name: str) -> Optional[ast.AST]:
    for node in module.tree.body:
        if (
            isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name
        ):
            return node
    return None


def _params(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, *, drop_self: bool
) -> Tuple[str, ...]:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if drop_self and names and names[0] in ("self", "cls"):
        names = names[1:]
    if args.vararg is not None:
        names.append("*" + args.vararg.arg)
    names.extend(a.arg for a in args.kwonlyargs)
    if args.kwarg is not None:
        names.append("**" + args.kwarg.arg)
    return tuple(names)


def _public_members(cls: ast.ClassDef) -> Dict[str, _Member]:
    """Public methods/properties plus annotated class-level attributes
    (dataclass fields)."""
    members: Dict[str, _Member] = {}
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
            if name.startswith("_"):
                continue
            is_property = any(
                (isinstance(d, ast.Name) and d.id == "property")
                or (isinstance(d, ast.Attribute) and d.attr in ("setter", "getter", "deleter"))
                for d in node.decorator_list
            )
            kind = "property" if is_property else "method"
            params = () if is_property else _params(node, drop_self=True)
            # property setter/getter pairs: keep the first (getter) entry.
            if name not in members:
                members[name] = _Member(name, kind, params, node)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            name = node.target.id
            if not name.startswith("_"):
                members.setdefault(
                    name, _Member(name, "attribute", (), node)
                )
    return members
