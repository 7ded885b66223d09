"""The R2xx rule family: path-sensitive checks over the effect graph.

* **R201** — no unsanctioned nondeterminism (module-level RNG, wall
  clock, set iteration) reachable from a public batch entry point, and
  no module-level randomness anywhere in the analysed code.  Sanctioned
  draws through the seeded ``rng`` seam are ``rng`` atoms and never
  findings here.  The paper's RNG-parity claim needs the whole batch
  closure deterministic, not just the entry function; a ``global-rng``
  atom off every closure (a load generator, a harness) is reported at
  its site, because lockstep replay needs every coin flip seeded.
* **R202** — every function reachable from a batch entry point that
  mutates state saves its own pre-image: it calls the journal seam
  (``save_slot``/``save_slots``/``note_free_pops``/``record_*``/
  ``restore`` on ``self._journal`` or ``journal``), opens a
  transaction, or is an ``__init__``.  The question is asked per
  function, not per path, so an unjournaled store inside a bracket is
  a finding too: the bracket rolls back only what was saved.  Findings
  are cross-checked against the snapshot coverage universe so the
  message says whether the state is even restorable.
* **R204** — transaction discipline: (a) mutations inside a
  ``txn_begin``…commit bracket that target state outside the snapshot
  coverage universe (rollback would silently lose them); (b) ``except``
  handlers broad enough to swallow the ``ReproError`` taxonomy without
  re-raising.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Mapping, Sequence, Set, Tuple

from ..engine import Finding
from .graph import EffectGraph
from .model import (
    KIND_GLOBAL_RNG,
    KIND_MUT_COL,
    KIND_MUT_NODE,
    MUT_KINDS,
    NONDET_KINDS,
    Atom,
    ModuleSummary,
)

__all__ = ["EffectPolicy", "run_checks"]


class EffectPolicy:
    """The slice of :class:`repro.lint.config.LintConfig` the R2xx
    checks consume (kept separate so fixture tests can build one without
    touching the repo registry)."""

    def __init__(
        self,
        entries: Sequence[Tuple[str, str, str, Tuple[str, ...]]],
        allowlist: Mapping[str, Mapping[str, str]],
        columns: FrozenSet[str],
        node_fields: FrozenSet[str],
    ) -> None:
        self.entries = tuple(entries)
        self.allowlist = {r: dict(m) for r, m in allowlist.items()}
        self.columns = columns
        self.node_fields = node_fields

    def restorable(self, atom: Atom) -> bool:
        """Does ``atom`` mutate state the snapshot layer restores?"""
        return (
            atom.kind == KIND_MUT_COL and atom.detail in self.columns
        ) or (atom.kind == KIND_MUT_NODE and atom.detail in self.node_fields)


def run_checks(
    graph: EffectGraph,
    modules: Mapping[str, ModuleSummary],
    policy: EffectPolicy,
) -> List[Finding]:
    findings: List[Finding] = []
    findings.extend(_check_r201(graph, policy))
    findings.extend(_check_r202(graph, policy))
    findings.extend(_check_r204(graph, policy))
    kept: List[Finding] = []
    for f in findings:
        mod = modules.get(f.path)
        if mod is not None and mod.suppressed(f.rule, f.line):
            continue
        kept.append(f)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept


def _allowed(
    policy: EffectPolicy, rule: str, owner_fid: str
) -> bool:
    return owner_fid in policy.allowlist.get(rule, {})


def _finding(
    rule: str, path: str, line: int, message: str
) -> Finding:
    return Finding(
        rule=rule, level="error", path=path, line=line, col=0, message=message
    )


def _owner_path(owner_fid: str) -> Tuple[str, str]:
    path, _, qual = owner_fid.partition("::")
    return path, qual


_Entry = Tuple[str, str, str, Tuple[str, ...]]


def _entry_label(entry: _Entry) -> str:
    path, class_name, method, _rules = entry
    return f"{class_name}.{method}" if class_name else method


def _resolved_entries(
    graph: EffectGraph, policy: EffectPolicy, rule: str, out: List[Finding]
) -> Iterator[Tuple[_Entry, str]]:
    """The entries ``rule`` applies to, with their resolved fids; an
    entry that resolves to nothing is a registry-drift finding."""
    for entry in policy.entries:
        if rule not in entry[3]:
            continue
        fid = graph.find_entry(entry[0], entry[1], entry[2])
        if fid is None:
            out.append(
                _finding(
                    rule,
                    entry[0],
                    0,
                    f"configured entry point {_entry_label(entry)} not "
                    "found (registry drift)",
                )
            )
        else:
            yield entry, fid


# ---------------------------------------------------------------------------
# R201 — nondeterminism closure
# ---------------------------------------------------------------------------


def _check_r201(
    graph: EffectGraph, policy: EffectPolicy
) -> List[Finding]:
    out: List[Finding] = []
    seen: Dict[Tuple[str, Atom], Tuple[str, List[str]]] = {}
    for entry, fid in _resolved_entries(graph, policy, "R201", out):
        pred = graph.reachable([fid])
        for owner, atom in graph.atoms_in(pred, NONDET_KINDS):
            key = (owner, atom)
            if key in seen:
                continue
            seen[key] = (_entry_label(entry), graph.path_to(pred, owner))
    for (owner, atom), (entry_name, chain) in seen.items():
        if _allowed(policy, "R201", owner):
            continue
        path, qual = _owner_path(owner)
        what = {
            "global-rng": "module-level randomness",
            "time": "wall-clock read",
            "set-iter": "set iteration (hash-order nondeterminism)",
        }.get(atom.kind, atom.kind)
        out.append(
            _finding(
                "R201",
                path,
                atom.line,
                f"{what} ({atom.detail}) in {qual} is reachable from "
                f"batch entry point {entry_name} "
                f"(via {' -> '.join(chain)}); route determinism through "
                "the sanctioned rng seam or sort before iterating",
            )
        )
    # Module-level randomness off every entry closure: reported at its
    # site, since any unseeded draw breaks lockstep replay.
    for owner, fn in sorted(graph.functions.items()):
        if _allowed(policy, "R201", owner):
            continue
        for atom in fn.atoms:
            if atom.kind != KIND_GLOBAL_RNG or (owner, atom) in seen:
                continue
            out.append(
                _finding(
                    "R201",
                    fn.path,
                    atom.line,
                    f"module-level randomness ({atom.detail}) in "
                    f"{fn.qualname}; draw from a seeded random.Random "
                    "threaded through the constructor",
                )
            )
    return out


# ---------------------------------------------------------------------------
# R202 — each mutating function saves its pre-image
# ---------------------------------------------------------------------------


def _check_r202(
    graph: EffectGraph, policy: EffectPolicy
) -> List[Finding]:
    out: List[Finding] = []
    seen: Set[Tuple[str, Atom]] = set()
    for entry, fid in _resolved_entries(graph, policy, "R202", out):
        pred = graph.reachable([fid])
        for owner, atom in sorted(graph.atoms_in(pred, MUT_KINDS)):
            key = (owner, atom)
            if key in seen:
                continue
            seen.add(key)
            fn = graph.functions[owner]
            if (
                fn.journal_seam
                or fn.opens_txn
                or fn.name == "__init__"
                or _allowed(policy, "R202", owner)
            ):
                continue
            if policy.restorable(atom):
                coverage = "snapshot-covered, so a pre-image would restore it"
            else:
                coverage = (
                    "OUTSIDE the snapshot coverage universe — no journal "
                    "could restore it"
                )
            out.append(
                _finding(
                    "R202",
                    fn.path,
                    atom.line,
                    f"mutation {atom.kind}:{atom.detail} in {fn.qualname} "
                    f"is reachable from batch entry point "
                    f"{_entry_label(entry)} (via "
                    f"{' -> '.join(graph.path_to(pred, owner))}) but "
                    f"{fn.qualname} saves no pre-image to the journal; "
                    f"the state is {coverage}",
                )
            )
    return out


# ---------------------------------------------------------------------------
# R204 — transaction discipline
# ---------------------------------------------------------------------------


def _check_r204(
    graph: EffectGraph, policy: EffectPolicy
) -> List[Finding]:
    out: List[Finding] = []
    # (a) rollback coverage of txn regions.
    for fid, fn in sorted(graph.functions.items()):
        if not fn.opens_txn:
            continue
        for owner, atom in graph.txn_region_atoms(fid):
            if atom.kind not in MUT_KINDS or policy.restorable(atom):
                continue
            if _allowed(policy, "R204", owner):
                continue
            opath, oqual = _owner_path(owner)
            out.append(
                _finding(
                    "R204",
                    opath,
                    atom.line,
                    f"mutation {atom.kind}:{atom.detail} in {oqual} runs "
                    f"inside the transaction opened by {fn.qualname} "
                    f"({fn.path}:{fn.txn_line}) but targets state outside "
                    "the snapshot coverage universe — rollback would "
                    "silently lose it",
                )
            )
    # (b) taxonomy swallows.
    for fid, fn in sorted(graph.functions.items()):
        for handler in fn.handlers:
            if not handler.broad or handler.reraises:
                continue
            if _allowed(policy, "R204", fid):
                continue
            caught = ", ".join(handler.types) if handler.types else "bare"
            out.append(
                _finding(
                    "R204",
                    fn.path,
                    handler.line,
                    f"except handler ({caught}) in {fn.qualname} swallows "
                    "the ReproError taxonomy without re-raising; narrow "
                    "the catch or register a justified allowlist entry",
                )
            )
    return out
