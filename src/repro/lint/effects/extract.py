"""Per-file effect extraction: source text -> :class:`ModuleSummary`.

One ordered pass per function body.  Ordering matters because the
scanner tracks three *local alias* families the repo's hot loops lean
on heavily:

* **rng aliases** — ``master = self._rng``, ``rnd = self._rng.random``,
  ``coins = [random.Random(master.getrandbits(64)).random for _ in r]``:
  calls through any of these are sanctioned ``rng`` draws, not
  module-level randomness;
* **set aliases** — ``site_set = set(sites)``: a later
  ``for s in site_set`` is a ``set-iter`` atom even though the loop
  header itself mentions no ``set()`` call;
* **column aliases** — ``parent, left, right = self._parent,
  self._left, self._right``: a later ``parent[v] = u`` is a
  ``mut-col:_parent`` store even though no attribute appears at the
  store site.

Nested ``def``s become their own :class:`FunctionSummary` under a
``<locals>`` qualname (callers reach them through resolved ``name``
calls or callback hints); ``lambda`` bodies are folded into the
enclosing function — the repo's lambdas are one-expression shims whose
effects belong to the function that wrote them.
"""

from __future__ import annotations

import ast
import hashlib
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .model import (
    KIND_GLOBAL_RNG,
    KIND_IO,
    KIND_MUT_COL,
    KIND_MUT_NODE,
    KIND_MUT_OTHER,
    KIND_RAISE,
    KIND_RNG,
    KIND_SET_ITER,
    KIND_TIME,
    Atom,
    CallDesc,
    FunctionSummary,
    Handler,
    ModuleSummary,
)

__all__ = ["ExtractionSpec", "extract_module", "file_sha256"]

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore\[([A-Z0-9,\s]+)\]")

#: The one randomness table: every ``random`` function that draws from,
#: seeds or snapshots a generator.  Called on the module it is the
#: process-global RNG (``global-rng``); called on a seeded instance it
#: is a sanctioned ``rng`` draw.
_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "paretovariate",
        "vonmisesvariate",
        "weibullvariate",
        "seed",
        "getstate",
        "setstate",
    }
)

_TIME_FNS = frozenset(
    {"time", "monotonic", "perf_counter", "time_ns", "monotonic_ns"}
)

_LIST_MUTATORS = frozenset(
    {"append", "extend", "insert", "pop", "clear", "remove"}
)

#: Journal methods that save a pre-image (``record_*`` too): a call of
#: one on ``self._journal`` / ``journal`` makes the calling function a
#: journal seam for R202.  Other journal calls (``save_rng``) and mere
#: references save no slot, so they do not count.
_PREIMAGE_METHODS = frozenset(
    {"save_slot", "save_slots", "note_free_pops", "restore"}
)

_IO_OS_FNS = frozenset(
    {"replace", "rename", "fsync", "remove", "unlink", "makedirs", "rmdir"}
)

_IO_ATTR_METHODS = frozenset(
    {"write_text", "write_bytes", "read_text", "read_bytes"}
)

#: Method names never duck-resolved to analyzed classes: they collide
#: with builtin container/IPC vocabulary far more often than they name a
#: library method, and a wrong duck edge is worse than a missing one.
_DUCK_DENYLIST = frozenset(
    {
        "append",
        "extend",
        "insert",
        "pop",
        "clear",
        "remove",
        "add",
        "discard",
        "update",
        "get",
        "setdefault",
        "popitem",
        "keys",
        "values",
        "items",
        "sort",
        "reverse",
        "copy",
        "count",
        "index",
        "join",
        "split",
        "strip",
        "startswith",
        "endswith",
        "format",
        "encode",
        "decode",
        "send",
        "recv",
        "poll",
        "start",
        "put",
        "read",
        "write",
        "flush",
        "close",
        "__init__",
    }
)

_BROAD_CATCHES = frozenset({"BaseException", "Exception", "ReproError"})

#: Module- and class-level statements whose bodies may define functions.
_COMPOUND_STMTS = (
    ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try
)

#: Digest of the extractor's own source: a summary is only as current as
#: the code that produced it, so any edit here or in the model
#: invalidates every cached summary.
_EXTRACTOR_DIGEST = hashlib.sha256(
    b"".join(
        (Path(__file__).parent / name).read_bytes()
        for name in ("extract.py", "model.py")
    )
).hexdigest()


class ExtractionSpec:
    """What the extractor must know about the repo being scanned.

    ``columns``/``node_fields`` define the snapshot-covered mutation
    universe (defaults come from :mod:`repro.snapshots.core` via
    :class:`repro.lint.config.LintConfig`); ``seam_prefixes`` name the
    path prefixes of the snapshot/journal machinery itself, whose
    bookkeeping writes *are* the rollback seam and must not be
    atomized as mutations.
    """

    def __init__(
        self,
        columns: Iterable[str],
        node_fields: Iterable[str],
        seam_prefixes: Sequence[str] = (),
    ) -> None:
        self.columns = frozenset(columns)
        self.node_fields = frozenset(node_fields)
        self.seam_prefixes = tuple(seam_prefixes)

    def is_seam_path(self, relpath: str) -> bool:
        return any(relpath.startswith(p) for p in self.seam_prefixes)

    def fingerprint(self) -> str:
        h = hashlib.sha256(_EXTRACTOR_DIGEST.encode())
        for part in (
            sorted(self.columns),
            sorted(self.node_fields),
            list(self.seam_prefixes),
        ):
            h.update("\x1f".join(part).encode())
            h.update(b"\x1e")
        return h.hexdigest()[:16]


def file_sha256(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def extract_module(
    relpath: str, source: str, spec: ExtractionSpec
) -> ModuleSummary:
    """Parse ``source`` and summarise every function it defines."""
    tree = ast.parse(source, filename=relpath)
    module_imports: Dict[str, str] = {}
    symbol_imports: Dict[str, str] = {}
    classes: Dict[str, Tuple[str, ...]] = {}
    functions: List[FunctionSummary] = []
    module_pkg = _package_of(relpath)

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module_imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
        elif isinstance(node, ast.ImportFrom):
            mod = _resolve_from_import(module_pkg, node)
            if mod is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                symbol_imports[alias.asname or alias.name] = (
                    f"{mod}::{alias.name}"
                )

    skip_mut = spec.is_seam_path(relpath)
    # Statements that run at import time (module and class bodies,
    # decorators, default values) are scanned for randomness only.
    top = _FunctionScanner(spec, True, symbol_imports, module_imports)

    def walk_body(
        body: Sequence[ast.stmt], prefix: str, class_name: str
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                top.scan_def_time(stmt)
                _extract_function(
                    functions,
                    relpath,
                    stmt,
                    prefix,
                    class_name,
                    spec,
                    skip_mut,
                    symbol_imports,
                    module_imports,
                )
            elif isinstance(stmt, ast.ClassDef):
                top.scan_def_time(stmt)
                qual = f"{prefix}{stmt.name}"
                if not prefix:  # only top-level classes join the registry
                    classes[stmt.name] = tuple(
                        b.id for b in stmt.bases if isinstance(b, ast.Name)
                    ) + tuple(
                        b.attr
                        for b in stmt.bases
                        if isinstance(b, ast.Attribute)
                    )
                walk_body(stmt.body, f"{qual}.", stmt.name)
            elif isinstance(stmt, _COMPOUND_STMTS):
                # A def under a module-level ``if``/``try``/``with`` or
                # loop is still a module function; the headers run at
                # import time.
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        top._scan_expr(child)
                    elif isinstance(child, ast.withitem):
                        top._scan_expr(child.context_expr)
                    elif isinstance(child, ast.ExceptHandler):
                        if child.type is not None:
                            top._scan_expr(child.type)
                        walk_body(child.body, prefix, class_name)
                for field_name in ("body", "orelse", "finalbody"):
                    walk_body(
                        getattr(stmt, field_name, []), prefix, class_name
                    )
            else:
                top.scan_body([stmt])

    walk_body(tree.body, "", "")
    import_time = [a for a in top.atoms if a.kind == KIND_GLOBAL_RNG]
    if import_time:
        functions.append(
            FunctionSummary(
                path=relpath,
                qualname="<module>",
                class_name="",
                name="<module>",
                lineno=import_time[0].line,
                atoms=tuple(import_time),
            )
        )

    pragmas: Dict[int, Tuple[str, ...]] = {}
    for i, text in enumerate(source.splitlines(), start=1):
        m = _IGNORE_RE.search(text)
        if m:
            pragmas[i] = tuple(
                r.strip() for r in m.group(1).split(",") if r.strip()
            )

    return ModuleSummary(
        relpath=relpath,
        sha256=file_sha256(source),
        functions=tuple(functions),
        classes=classes,
        module_imports=module_imports,
        symbol_imports=symbol_imports,
        pragmas=pragmas,
    )


def _package_of(relpath: str) -> str:
    """Dotted package of ``src/repro/perf/x.py`` -> ``repro.perf``."""
    parts = relpath.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts = parts[:-1] if parts[-1] == "__init__.py" else parts[:-1]
    return ".".join(parts)


def _resolve_from_import(
    module_pkg: str, node: ast.ImportFrom
) -> Optional[str]:
    if node.level == 0:
        return node.module
    base = module_pkg.split(".")
    # level=1 means "this package"; each extra level pops one component.
    drop = node.level - 1
    if drop > len(base):
        return None
    kept = base[: len(base) - drop] if drop else base
    if node.module:
        kept = kept + node.module.split(".")
    return ".".join(kept) if kept else None


# ---------------------------------------------------------------------------
# per-function scan
# ---------------------------------------------------------------------------


def _extract_function(
    out: List[FunctionSummary],
    relpath: str,
    fn: "ast.FunctionDef | ast.AsyncFunctionDef",
    prefix: str,
    class_name: str,
    spec: ExtractionSpec,
    skip_mut: bool,
    imports: Dict[str, str],
    modules: Dict[str, str],
) -> None:
    qualname = f"{prefix}{fn.name}"
    scanner = _FunctionScanner(spec, skip_mut, imports, modules)
    scanner.scan_body(fn.body)
    out.append(
        FunctionSummary(
            path=relpath,
            qualname=qualname,
            class_name=class_name,
            name=fn.name,
            lineno=fn.lineno,
            atoms=tuple(scanner.atoms),
            calls=tuple(scanner.calls),
            txn_line=scanner.txn_line,
            journal_seam=scanner.journal_seam,
            handlers=tuple(scanner.handlers),
        )
    )
    for nested in scanner.nested:
        _extract_function(
            out,
            relpath,
            nested,
            f"{qualname}.<locals>.",
            class_name,
            spec,
            skip_mut,
            imports,
            modules,
        )


def _is_journal(expr: ast.expr) -> bool:
    """``<expr>._journal`` or a local named ``journal``."""
    return (isinstance(expr, ast.Attribute) and expr.attr == "_journal") or (
        isinstance(expr, ast.Name) and expr.id == "journal"
    )


def _attr_chain(node: ast.expr) -> Optional[List[str]]:
    """``self._rng.random`` -> ``["self", "_rng", "random"]`` (None when
    the chain bottoms out in anything but a Name)."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        parts.reverse()
        return parts
    return None


class _FunctionScanner:
    """Ordered walk of one function body (lambdas folded in, nested
    defs deferred to their own summaries)."""

    def __init__(
        self,
        spec: ExtractionSpec,
        skip_mut: bool,
        imports: Dict[str, str],
        modules: Dict[str, str],
    ) -> None:
        self.spec = spec
        self.skip_mut = skip_mut
        #: local name -> ``module::symbol`` of the file's from-imports.
        self.imports = imports
        #: local name -> dotted module of the file's plain imports.
        self.modules = modules
        self.atoms: List[Atom] = []
        self.calls: List[CallDesc] = []
        self.handlers: List[Handler] = []
        self.nested: List["ast.FunctionDef | ast.AsyncFunctionDef"] = []
        self.txn_line = 0
        self.journal_seam = False
        self.rng_aliases: Set[str] = set()
        self.set_aliases: Set[str] = set()
        self.col_aliases: Dict[str, str] = {}
        self._local_defs: Set[str] = set()

    # -- statements ----------------------------------------------------

    def scan_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._scan_stmt(stmt)

    def scan_def_time(
        self, stmt: "ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef"
    ) -> None:
        """Decorators, bases and default values run where the
        ``def``/``class`` statement runs, not in its body."""
        exprs: List[ast.expr] = list(stmt.decorator_list)
        if isinstance(stmt, ast.ClassDef):
            exprs += stmt.bases + [kw.value for kw in stmt.keywords]
        else:
            exprs += stmt.args.defaults
            exprs += [d for d in stmt.args.kw_defaults if d is not None]
        for expr in exprs:
            self._scan_expr(expr)

    def _scan_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.scan_def_time(stmt)
            self.nested.append(stmt)
            self._local_defs.add(stmt.name)
            return
        if isinstance(stmt, ast.ClassDef):
            # Function-local classes: scan method bodies inline (their
            # effects belong to whoever instantiates them here).
            for sub in stmt.body:
                self._scan_stmt(sub)
            return
        if isinstance(stmt, ast.Assign):
            self._scan_expr(stmt.value)
            for target in stmt.targets:
                self._scan_store(target, stmt.value)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._scan_expr(stmt.value)
                self._scan_store(stmt.target, stmt.value)
            return
        if isinstance(stmt, ast.AugAssign):
            self._scan_expr(stmt.value)
            self._scan_store(stmt.target, None)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    self._record_container_mut(target.value, target.lineno)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter)
            self._check_set_iteration(stmt.iter)
            self.scan_body(stmt.body)
            self.scan_body(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self._scan_expr(stmt.test)
            self.scan_body(stmt.body)
            self.scan_body(stmt.orelse)
            return
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test)
            self.scan_body(stmt.body)
            self.scan_body(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_expr(item.context_expr)
            self.scan_body(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            self.scan_body(stmt.body)
            for handler in stmt.handlers:
                self._record_handler(handler)
                self.scan_body(handler.body)
            self.scan_body(stmt.orelse)
            self.scan_body(stmt.finalbody)
            return
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._scan_expr(stmt.exc)
            name = _raise_type_name(stmt)
            self.atoms.append(Atom(KIND_RAISE, name, stmt.lineno))
            return
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            self._scan_expr(stmt.value)
            return
        if isinstance(stmt, ast.Expr):
            self._scan_expr(stmt.value)
            return
        if isinstance(stmt, ast.Assert):
            self._scan_expr(stmt.test)
            return
        # Imports inside functions, pass, break, continue, global, …
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child)
            elif isinstance(child, ast.stmt):
                self._scan_stmt(child)

    # -- stores / aliases ----------------------------------------------

    def _scan_store(
        self, target: ast.expr, value: Optional[ast.expr]
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            values: Sequence[Optional[ast.expr]]
            if isinstance(value, (ast.Tuple, ast.List)) and len(
                value.elts
            ) == len(target.elts):
                values = value.elts
            else:
                values = [None] * len(target.elts)
            for sub, subval in zip(target.elts, values):
                self._scan_store(sub, subval)
            return
        if isinstance(target, ast.Name):
            self._update_aliases(target.id, value)
            return
        if isinstance(target, ast.Subscript):
            self._record_container_mut(target.value, target.lineno)
            return
        if isinstance(target, ast.Attribute):
            if self.skip_mut:
                return
            if target.attr in self.spec.node_fields:
                self.atoms.append(
                    Atom(KIND_MUT_NODE, target.attr, target.lineno)
                )
            return

    def _update_aliases(
        self, name: str, value: Optional[ast.expr]
    ) -> None:
        self.rng_aliases.discard(name)
        self.set_aliases.discard(name)
        self.col_aliases.pop(name, None)
        if value is None:
            return
        if self._is_rngish(value):
            self.rng_aliases.add(name)
        elif self._is_setish(value):
            self.set_aliases.add(name)
        else:
            col = self._column_of_expr(value)
            if col is not None:
                self.col_aliases[name] = col

    def _column_of_expr(self, expr: ast.expr) -> Optional[str]:
        if (
            isinstance(expr, ast.Attribute)
            and expr.attr in self.spec.columns
        ):
            return expr.attr
        if isinstance(expr, ast.Name) and expr.id in self.col_aliases:
            return self.col_aliases[expr.id]
        return None

    def _record_container_mut(
        self, container: ast.expr, line: int
    ) -> None:
        """``container[...] = v`` / ``del container[...]`` /
        ``container.<mutator>(...)`` — classify the container."""
        if self.skip_mut:
            return
        if isinstance(container, ast.Attribute):
            attr = container.attr
            if attr in self.spec.columns:
                self.atoms.append(Atom(KIND_MUT_COL, attr, line))
            elif attr.startswith("_") and attr != "_journal":
                self.atoms.append(Atom(KIND_MUT_OTHER, attr, line))
            return
        if isinstance(container, ast.Name):
            col = self.col_aliases.get(container.id)
            if col is not None:
                self.atoms.append(Atom(KIND_MUT_COL, col, line))

    # -- expressions ----------------------------------------------------

    def _scan_expr(self, expr: ast.expr) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._handle_call(node)
            elif isinstance(
                node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)
            ):
                for comp in node.generators:
                    self._check_set_iteration(comp.iter)

    def _check_set_iteration(self, iter_expr: ast.expr) -> None:
        if self._is_setish(iter_expr):
            detail = (
                iter_expr.id
                if isinstance(iter_expr, ast.Name)
                else "set-expression"
            )
            self.atoms.append(
                Atom(KIND_SET_ITER, detail, iter_expr.lineno)
            )

    # -- call classification --------------------------------------------

    def _handle_call(self, call: ast.Call) -> None:
        func = call.func
        line = call.lineno
        callbacks = self._callback_hints(call)

        if isinstance(func, ast.Subscript):
            base = func.value
            if isinstance(base, ast.Name) and base.id in self.rng_aliases:
                self.atoms.append(Atom(KIND_RNG, f"{base.id}[...]", line))
            return

        if isinstance(func, ast.Name):
            name = func.id
            if name == "open":
                self.atoms.append(Atom(KIND_IO, "open", line))
                return
            if name in ("list", "tuple") and len(call.args) == 1:
                if self._is_setish(call.args[0]):
                    arg = call.args[0]
                    detail = (
                        arg.id if isinstance(arg, ast.Name) else "set-expression"
                    )
                    self.atoms.append(Atom(KIND_SET_ITER, detail, line))
                return
            if name in self.rng_aliases:
                self.atoms.append(Atom(KIND_RNG, name, line))
                return
            module, _, symbol = self.imports.get(name, "").partition("::")
            atom = _randomness_atom(module, symbol, call, line)
            if atom is not None:
                self.atoms.append(atom)
                return
            if name == "txn_begin" and not self.txn_line:
                self.txn_line = line
            self.calls.append(CallDesc("name", "", name, line, callbacks))
            return

        if not isinstance(func, ast.Attribute):
            return

        method = func.attr
        chain = _attr_chain(func)

        if _is_journal(func.value) and (
            method in _PREIMAGE_METHODS or method.startswith("record")
        ):
            self.journal_seam = True

        if (
            isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
        ):
            self.calls.append(CallDesc("self", "", method, line, callbacks))
            return

        if self._is_rngish(func.value) or (
            chain is not None and "_rng" in chain[:-1]
        ):
            if method in _RANDOM_FNS:
                self.atoms.append(Atom(KIND_RNG, method, line))
            return

        if chain is not None and len(chain) == 2:
            root = self._module_name(chain[0])
            mod_atom = self._module_call_atom(root, method, call, line)
            if mod_atom is not None:
                if mod_atom.kind != "":
                    self.atoms.append(mod_atom)
                return

        if method == "_txn_begin":
            if not self.txn_line:
                self.txn_line = line
            self.calls.append(
                CallDesc("duck", "", method, line, callbacks)
            )
            return

        if method in _LIST_MUTATORS:
            self._record_container_mut(func.value, line)
            return

        if method in _IO_ATTR_METHODS:
            self.atoms.append(Atom(KIND_IO, method, line))
            return

        if isinstance(func.value, ast.Name):
            root_name = func.value.id
            if root_name == "self":
                self.calls.append(
                    CallDesc("self", "", method, line, callbacks)
                )
                return
            if root_name[:1].isupper():
                self.calls.append(
                    CallDesc("class", root_name, method, line, callbacks)
                )
                return

        if method not in _DUCK_DENYLIST:
            self.calls.append(CallDesc("duck", "", method, line, callbacks))

    def _module_name(self, name: str) -> str:
        """The module a local name stands for: ``random`` for ``rnd``
        after ``import random as rnd``; ``os`` after ``import os.path``
        (which binds ``os``); the name itself otherwise."""
        target = self.modules.get(name, name)
        return name if target.split(".")[0] == name else target

    def _module_call_atom(
        self, root: str, fn: str, call: ast.Call, line: int
    ) -> Optional[Atom]:
        """Atom for ``root.fn(...)`` when ``root`` names a library
        module we classify.  ``Atom(kind="")`` means "recognised,
        effect-free"; ``None`` means "not a module call"."""
        rng = _randomness_atom(root, fn, call, line)
        if rng is not None:
            return rng
        if root == "random":
            return Atom("", "", line)
        if root == "time" and fn in _TIME_FNS:
            return Atom(KIND_TIME, f"time.{fn}", line)
        if root == "datetime" and fn in ("now", "utcnow", "today"):
            return Atom(KIND_TIME, f"datetime.{fn}", line)
        if root == "os":
            if fn in _IO_OS_FNS:
                return Atom(KIND_IO, f"os.{fn}", line)
            return Atom("", "", line)
        if root == "shutil":
            return Atom(KIND_IO, f"shutil.{fn}", line)
        if root == "math":
            return Atom("", "", line)
        return None

    def _callback_hints(
        self, call: ast.Call
    ) -> Tuple[Tuple[str, str], ...]:
        hints: List[Tuple[str, str]] = []
        args: List[ast.expr] = list(call.args)
        args.extend(kw.value for kw in call.keywords)
        for arg in args:
            if (
                isinstance(arg, ast.Attribute)
                and isinstance(arg.value, ast.Name)
                and arg.value.id == "self"
            ):
                hints.append(("self", arg.attr))
            elif isinstance(arg, ast.Name) and (
                arg.id in self._local_defs or not arg.id[:1].isupper()
            ):
                hints.append(("name", arg.id))
        return tuple(hints)

    # -- type-ish predicates --------------------------------------------

    def _is_rngish(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in self.rng_aliases
        if isinstance(expr, ast.Attribute):
            chain = _attr_chain(expr)
            if chain is not None and "_rng" in chain:
                return True
            return self._is_rngish(expr.value)
        if isinstance(expr, ast.Call):
            func = expr.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "Random"
                and isinstance(func.value, ast.Name)
                and self._module_name(func.value.id) == "random"
                and (expr.args or expr.keywords)
            ):
                return True
            if isinstance(func, ast.Name) and func.id == "Random" and (
                expr.args or expr.keywords
            ):
                return True
            return False
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            return self._is_rngish(expr.elt)
        if isinstance(expr, ast.List):
            return any(self._is_rngish(e) for e in expr.elts)
        return False

    def _is_setish(self, expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in self.set_aliases
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in (
                "set",
                "frozenset",
            ):
                return True
            return False
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitAnd, ast.BitOr, ast.Sub)
        ):
            return self._is_setish(expr.left) or self._is_setish(expr.right)
        return False

    def _record_handler(self, handler: ast.ExceptHandler) -> None:
        types: Tuple[str, ...]
        if handler.type is None:
            types = ()
            broad = True
        else:
            names: List[str] = []
            exprs = (
                list(handler.type.elts)
                if isinstance(handler.type, ast.Tuple)
                else [handler.type]
            )
            for e in exprs:
                if isinstance(e, ast.Name):
                    names.append(e.id)
                elif isinstance(e, ast.Attribute):
                    names.append(e.attr)
            types = tuple(names)
            broad = any(n in _BROAD_CATCHES for n in names)
        reraises = _body_reraises(handler.body)
        self.handlers.append(
            Handler(handler.lineno, types, broad, reraises)
        )


def _randomness_atom(
    module: str, fn: str, call: ast.Call, line: int
) -> Optional[Atom]:
    """Classify a call of ``fn`` from library ``module`` (spelled
    ``module.fn(...)`` or as a from-imported bare name): a ``global-rng``
    or seeded ``rng`` atom, or None when it draws no randomness."""
    if module == "random":
        if fn == "Random":
            if call.args or call.keywords:
                return Atom(KIND_RNG, "Random(seed)", line)
            return Atom(KIND_GLOBAL_RNG, "random.Random()", line)
        if fn in _RANDOM_FNS:
            return Atom(KIND_GLOBAL_RNG, f"random.{fn}", line)
    elif (
        module == "secrets"
        or (module == "os" and fn == "urandom")
        or (module == "uuid" and fn in ("uuid1", "uuid4"))
    ):
        return Atom(KIND_GLOBAL_RNG, f"{module}.{fn}", line)
    return None


def _body_reraises(body: Sequence[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(node, ast.Raise):
                return True
    return False


def _raise_type_name(stmt: ast.Raise) -> str:
    exc = stmt.exc
    if exc is None:
        return "<re-raise>"
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return "<dynamic>"
