"""Data model for the interprocedural effect analysis (R201-R204).

Everything here is a plain, JSON-round-trippable value object: the
per-file extraction (:mod:`repro.lint.effects.extract`) produces one
:class:`ModuleSummary` per source file, the cache
(:mod:`repro.lint.effects.cache`) persists them keyed by content hash,
and the call-graph/propagation layer (:mod:`repro.lint.effects.graph`)
consumes them without ever re-reading source.  That round-trip is the
whole point of the shape: a warm run must be able to skip ``ast.parse``
entirely.

The effect lattice is a set of *atoms* — ``(kind, detail, line)``
triples attached to the function whose body performs them:

===============  ============================================================
kind             meaning
===============  ============================================================
``rng``          draw/seed on a *sanctioned* generator (a seeded
                 ``random.Random`` threaded through ``self._rng`` /
                 a local alias of it)
``global-rng``   module-level randomness (``random.random()``, unseeded
                 ``Random()``, ``os.urandom``, ``secrets``, ``uuid4``)
``time``         wall-clock reads (``time.time``/``monotonic``/…)
``set-iter``     iteration over a ``set``-typed expression (order is
                 hash-dependent, so any derived sequence is
                 nondeterministic across runs/platforms)
``mut-node``     attribute store to a reference-backend node field
``mut-col``      subscript store / list-mutator call on a flat-backend
                 column container
``mut-other``    subscript store / list-mutator call on some *other*
                 private container — state no snapshot restores
``io``           persistence (``open``, ``os.replace``/``rename``/…,
                 ``Path.write_*``)
``raise``        a raise site, detail = exception type name
===============  ============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

__all__ = [
    "KIND_RNG",
    "KIND_GLOBAL_RNG",
    "KIND_TIME",
    "KIND_SET_ITER",
    "KIND_MUT_NODE",
    "KIND_MUT_COL",
    "KIND_MUT_OTHER",
    "KIND_IO",
    "KIND_RAISE",
    "NONDET_KINDS",
    "MUT_KINDS",
    "Atom",
    "CallDesc",
    "Handler",
    "FunctionSummary",
    "ModuleSummary",
]

KIND_RNG = "rng"
KIND_GLOBAL_RNG = "global-rng"
KIND_TIME = "time"
KIND_SET_ITER = "set-iter"
KIND_MUT_NODE = "mut-node"
KIND_MUT_COL = "mut-col"
KIND_MUT_OTHER = "mut-other"
KIND_IO = "io"
KIND_RAISE = "raise"

#: Kinds R201 reports when reachable from a batch entry point.
NONDET_KINDS = frozenset({KIND_GLOBAL_RNG, KIND_TIME, KIND_SET_ITER})

#: Kinds R202/R204 treat as state mutation.
MUT_KINDS = frozenset({KIND_MUT_NODE, KIND_MUT_COL, KIND_MUT_OTHER})


@dataclass(frozen=True, order=True)
class Atom:
    """One effect performed directly by a function body (ordered, so
    findings sort deterministically when one owner exposes several)."""

    kind: str
    detail: str
    line: int

    def to_json(self) -> List[Any]:
        return [self.kind, self.detail, self.line]

    @staticmethod
    def from_json(data: List[Any]) -> "Atom":
        return Atom(str(data[0]), str(data[1]), int(data[2]))


@dataclass(frozen=True)
class CallDesc:
    """One outgoing call site, pre-resolution.

    ``kind`` is how the callee was spelled:

    * ``"self"`` — ``self.m(...)`` (resolve across the receiver class's
      inheritance component, so a call dispatches to every override);
    * ``"name"`` — ``f(...)`` (resolve against nested defs, module
      functions, from-imports, then classes → ``__init__``);
    * ``"class"`` — ``ClassName.m(...)``;
    * ``"mod"``  — ``alias.f(...)`` where ``alias`` imports a module;
    * ``"duck"`` — ``<expr>.m(...)`` (resolve to every analyzed class
      defining ``m`` — the ``tree: Any`` seams force this).

    ``callbacks`` are ``(kind, name)`` hints for function references
    passed *as arguments* (``self.m`` / a local ``def``): the linker
    attaches them as edges from the **resolved callee** — a callback run
    inside ``execute_batch`` executes under *its* transaction, not the
    caller's.
    """

    kind: str
    owner: str  # class/module qualifier ("" unless kind is class/mod)
    name: str
    line: int
    callbacks: Tuple[Tuple[str, str], ...] = ()

    def to_json(self) -> List[Any]:
        return [
            self.kind,
            self.owner,
            self.name,
            self.line,
            [list(cb) for cb in self.callbacks],
        ]

    @staticmethod
    def from_json(data: List[Any]) -> "CallDesc":
        return CallDesc(
            str(data[0]),
            str(data[1]),
            str(data[2]),
            int(data[3]),
            tuple((str(k), str(n)) for k, n in data[4]),
        )


@dataclass(frozen=True)
class Handler:
    """One ``except`` clause (for R204's swallow check)."""

    line: int
    types: Tuple[str, ...]  # caught type names; () for a bare except
    broad: bool  # bare / BaseException / Exception / ReproError
    reraises: bool  # handler body contains a raise

    def to_json(self) -> List[Any]:
        return [self.line, list(self.types), self.broad, self.reraises]

    @staticmethod
    def from_json(data: List[Any]) -> "Handler":
        return Handler(
            int(data[0]),
            tuple(str(t) for t in data[1]),
            bool(data[2]),
            bool(data[3]),
        )


@dataclass(frozen=True)
class FunctionSummary:
    """Local (intraprocedural) effect signature of one function.

    ``qualname`` uses ``Class.method`` for methods and
    ``outer.<locals>.inner`` for nested defs; ``class_name`` is the
    *innermost enclosing class* ("" for plain functions), which is what
    ``self.``-call resolution dispatches on.  ``txn_line`` is the line
    of the first ``_txn_begin``/``txn_begin`` call (0 when none): it
    opens the R204 rollback-coverage region.  ``journal_seam`` marks a
    body that saves a pre-image — a ``save_slot``/``save_slots``/
    ``note_free_pops``/``record_*``/``restore`` call on
    ``self._journal`` or ``journal`` — so R202 counts its *own*
    mutations as journaled.
    """

    path: str
    qualname: str
    class_name: str
    name: str
    lineno: int
    atoms: Tuple[Atom, ...] = ()
    calls: Tuple[CallDesc, ...] = ()
    txn_line: int = 0
    journal_seam: bool = False
    handlers: Tuple[Handler, ...] = ()

    @property
    def opens_txn(self) -> bool:
        return self.txn_line > 0

    @property
    def fid(self) -> str:
        """Stable graph/allowlist key: ``path::qualname``."""
        return f"{self.path}::{self.qualname}"

    def to_json(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "class_name": self.class_name,
            "name": self.name,
            "lineno": self.lineno,
            "atoms": [a.to_json() for a in self.atoms],
            "calls": [c.to_json() for c in self.calls],
            "txn_line": self.txn_line,
            "journal_seam": self.journal_seam,
            "handlers": [h.to_json() for h in self.handlers],
        }

    @staticmethod
    def from_json(path: str, data: Mapping[str, Any]) -> "FunctionSummary":
        return FunctionSummary(
            path=path,
            qualname=str(data["qualname"]),
            class_name=str(data["class_name"]),
            name=str(data["name"]),
            lineno=int(data["lineno"]),
            atoms=tuple(Atom.from_json(a) for a in data["atoms"]),
            calls=tuple(CallDesc.from_json(c) for c in data["calls"]),
            txn_line=int(data["txn_line"]),
            journal_seam=bool(data["journal_seam"]),
            handlers=tuple(Handler.from_json(h) for h in data["handlers"]),
        )


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the linker needs to know about one source file."""

    relpath: str
    sha256: str
    functions: Tuple[FunctionSummary, ...] = ()
    #: class name -> base-class names (resolved by name at link time).
    classes: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    #: local alias -> dotted module name (``import x.y as z``).
    module_imports: Mapping[str, str] = field(default_factory=dict)
    #: local name -> ``dotted.module::symbol`` (``from m import f``).
    symbol_imports: Mapping[str, str] = field(default_factory=dict)
    #: lineno -> rule ids suppressed by ``# lint: ignore[...]``.
    pragmas: Mapping[int, Tuple[str, ...]] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "relpath": self.relpath,
            "sha256": self.sha256,
            "functions": [f.to_json() for f in self.functions],
            "classes": {c: list(b) for c, b in self.classes.items()},
            "module_imports": dict(self.module_imports),
            "symbol_imports": dict(self.symbol_imports),
            "pragmas": {str(k): list(v) for k, v in self.pragmas.items()},
        }

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "ModuleSummary":
        relpath = str(data["relpath"])
        return ModuleSummary(
            relpath=relpath,
            sha256=str(data["sha256"]),
            functions=tuple(
                FunctionSummary.from_json(relpath, f) for f in data["functions"]
            ),
            classes={
                str(c): tuple(str(b) for b in bases)
                for c, bases in data["classes"].items()
            },
            module_imports={
                str(k): str(v) for k, v in data["module_imports"].items()
            },
            symbol_imports={
                str(k): str(v) for k, v in data["symbol_imports"].items()
            },
            pragmas={
                int(k): tuple(str(r) for r in v)
                for k, v in data["pragmas"].items()
            },
        )

    def suppressed(self, rule: str, line: int) -> bool:
        """Pragma check mirroring :meth:`ModuleInfo.suppressed` (same
        line or the line above), but answerable from the cache."""
        for ln in (line, line - 1):
            if rule in self.pragmas.get(ln, ()):
                return True
        return False
