"""Call-graph linking and reachability over module summaries.

Resolution strategy (deliberately over-approximate — a missing edge
hides a bug, a spurious edge costs at worst an allowlist entry):

* ``self.m()`` resolves to **every** class in the receiver class's
  inheritance component that defines ``m``.  The component is the
  undirected closure of base-class links, so a call in a base class
  reaches every subclass override and vice versa.
* ``f()`` resolves through nested defs, module functions, from-imports
  and class constructors (``Class()`` → ``Class.__init__``).
* ``x.m()`` (duck) resolves to every analyzed class defining ``m`` —
  the ``tree: Any`` seams (transactions, resilience, snapshots) make
  this the only sound choice.
* a function reference passed **as an argument** attaches as an edge
  from the *caller that passes it*, at the call's line: in
  ``execute_batch(tree, reqs, rej, self._batch_insert_core)`` the core
  runs only for the entries that hand it over.  An edge from the
  shared callee instead would let every caller of ``execute_batch``
  reach every other backend's batch core, and findings would name
  paths that cannot run.

Functions named ``__init__`` are *construction boundaries*: R204's
transaction region cuts there, because construction precedes the first
transaction.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from .model import (
    MUT_KINDS,
    Atom,
    CallDesc,
    FunctionSummary,
    ModuleSummary,
)

__all__ = ["EffectGraph", "SourcedAtom"]

#: An atom plus the function whose body performs it.
SourcedAtom = Tuple[str, Atom]  # (owner fid, atom)


class EffectGraph:
    """Linked call graph over every extracted module."""

    def __init__(self, modules: Iterable[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {
            m.relpath: m for m in modules
        }
        self.functions: Dict[str, FunctionSummary] = {}
        #: dotted module -> relpath ("repro.transactions" -> "src/…").
        self._pkg_to_path: Dict[str, str] = {}
        #: (relpath, name) -> fid for module-level functions.
        self._module_funcs: Dict[Tuple[str, str], str] = {}
        #: (relpath, class, method) -> fid.
        self._methods: Dict[Tuple[str, str, str], str] = {}
        #: method name -> fids across all classes (duck resolution).
        self._methods_by_name: Dict[str, List[str]] = {}
        #: class name -> [(relpath, bases)].
        self._classes: Dict[str, List[Tuple[str, Tuple[str, ...]]]] = {}
        #: class name -> frozenset of class names (inheritance component).
        self._component: Dict[str, FrozenSet[str]] = {}
        #: fid -> [(call line, callee fid)]; a callback handed to a
        #: callee that resolves to nothing runs at the call, so it is an
        #: edge here too.
        self.edges: Dict[str, List[Tuple[int, str]]] = {}
        #: fid -> [(call line, callback fid)] it hands to a resolved
        #: callee: reachable through the caller that passes it.
        self.handed: Dict[str, List[Tuple[int, str]]] = {}
        #: callee fid -> callback fids any caller hands it: they run
        #: somewhere inside the callee, so inside its transaction.
        self.runs: Dict[str, List[str]] = {}

        self._index()
        self._link()

    # -- indexing -------------------------------------------------------

    def _index(self) -> None:
        for mod in self.modules.values():
            self._pkg_to_path[_dotted_module(mod.relpath)] = mod.relpath
            for cls, bases in mod.classes.items():
                self._classes.setdefault(cls, []).append(
                    (mod.relpath, bases)
                )
            for fn in mod.functions:
                self.functions[fn.fid] = fn
                if "<locals>" in fn.qualname:
                    continue
                if fn.class_name:
                    self._methods[
                        (mod.relpath, fn.class_name, fn.name)
                    ] = fn.fid
                    self._methods_by_name.setdefault(fn.name, []).append(
                        fn.fid
                    )
                else:
                    self._module_funcs[(mod.relpath, fn.name)] = fn.fid
        self._build_components()

    def _build_components(self) -> None:
        parent: Dict[str, str] = {}

        def find(x: str) -> str:
            root = x
            while parent.setdefault(root, root) != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        def union(a: str, b: str) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for cls, defs in self._classes.items():
            for _path, bases in defs:
                for base in bases:
                    if base in self._classes:
                        union(cls, base)
        groups: Dict[str, Set[str]] = {}
        for cls in self._classes:
            groups.setdefault(find(cls), set()).add(cls)
        for members in groups.values():
            frozen = frozenset(members)
            for cls in members:
                self._component[cls] = frozen

    # -- resolution -----------------------------------------------------

    def _resolve_method_in(self, cls: str, method: str) -> List[str]:
        """``cls.method`` with base-class fallback inside the component."""
        for path, _bases in self._classes.get(cls, []):
            fid = self._methods.get((path, cls, method))
            if fid is not None:
                return [fid]
        out: List[str] = []
        for other in sorted(self._component.get(cls, frozenset())):
            for path, _bases in self._classes.get(other, []):
                fid = self._methods.get((path, other, method))
                if fid is not None:
                    out.append(fid)
        return out

    def _resolve_self(self, caller: FunctionSummary, method: str) -> List[str]:
        if not caller.class_name:
            return []
        comp = self._component.get(
            caller.class_name, frozenset({caller.class_name})
        )
        out: List[str] = []
        for cls in sorted(comp):
            for path, _bases in self._classes.get(cls, []):
                fid = self._methods.get((path, cls, method))
                if fid is not None:
                    out.append(fid)
        return out

    def _resolve_name(
        self, caller: FunctionSummary, name: str
    ) -> List[str]:
        mod = self.modules.get(caller.path)
        nested = f"{caller.path}::{caller.qualname}.<locals>.{name}"
        if nested in self.functions:
            return [nested]
        fid = self._module_funcs.get((caller.path, name))
        if fid is not None:
            return [fid]
        if mod is not None:
            target = mod.symbol_imports.get(name)
            if target is not None:
                dotted, _, sym = target.partition("::")
                path = self._pkg_to_path.get(dotted)
                if path is not None:
                    fid = self._module_funcs.get((path, sym))
                    if fid is not None:
                        return [fid]
                    init = self._methods.get((path, sym, "__init__"))
                    if init is not None:
                        return [init]
            if name in mod.classes:
                init = self._methods.get((caller.path, name, "__init__"))
                if init is not None:
                    return [init]
        return []

    def resolve(
        self, caller: FunctionSummary, call: CallDesc
    ) -> List[str]:
        if call.kind == "self":
            return self._resolve_self(caller, call.name)
        if call.kind == "name":
            return self._resolve_name(caller, call.name)
        if call.kind == "class":
            return self._resolve_method_in(call.owner, call.name)
        if call.kind == "duck":
            return list(self._methods_by_name.get(call.name, []))
        return []

    def _resolve_hint(
        self, caller: FunctionSummary, hint: Tuple[str, str]
    ) -> List[str]:
        kind, name = hint
        if kind == "self":
            return self._resolve_self(caller, name)
        return self._resolve_name(caller, name)

    # -- linking --------------------------------------------------------

    def _link(self) -> None:
        for fid in self.functions:
            self.edges[fid] = []
            self.handed[fid] = []
            self.runs[fid] = []
        for fn in self.functions.values():
            out, handed = self.edges[fn.fid], self.handed[fn.fid]
            for call in fn.calls:
                targets = self.resolve(fn, call)
                for t in targets:
                    out.append((call.line, t))
                for hint in call.callbacks:
                    for cb in self._resolve_hint(fn, hint):
                        if not targets:
                            out.append((call.line, cb))
                            continue
                        handed.append((call.line, cb))
                        for t in targets:
                            self.runs[t].append(cb)
        for table in (self.edges, self.handed, self.runs):
            for fid, items in table.items():
                table[fid] = list(dict.fromkeys(items))

    # -- entry lookup ---------------------------------------------------

    def find_entry(
        self, path: str, class_name: str, method: str
    ) -> Optional[str]:
        """Entry-point fid, following inheritance for methods a class
        inherits rather than defines."""
        if not class_name:
            fid = self._module_funcs.get((path, method))
            return fid
        fid = self._methods.get((path, class_name, method))
        if fid is not None:
            return fid
        resolved = self._resolve_method_in(class_name, method)
        return resolved[0] if resolved else None

    # -- closures -------------------------------------------------------

    def reachable(self, roots: Iterable[str]) -> Dict[str, Optional[str]]:
        """BFS over all edges; returns ``fid -> predecessor`` (roots map
        to None), which doubles as the reachable set and a path oracle."""
        pred: Dict[str, Optional[str]] = {}
        queue: List[str] = []
        for r in roots:
            if r in self.functions and r not in pred:
                pred[r] = None
                queue.append(r)
        while queue:
            cur = queue.pop(0)
            for _line, nxt in self.edges[cur] + self.handed[cur]:
                if nxt not in pred:
                    pred[nxt] = cur
                    queue.append(nxt)
        return pred

    def path_to(
        self, pred: Mapping[str, Optional[str]], fid: str, limit: int = 7
    ) -> List[str]:
        chain: List[str] = []
        cur: Optional[str] = fid
        while cur is not None and len(chain) < limit:
            chain.append(self.functions[cur].qualname)
            cur = pred.get(cur)
        chain.reverse()
        return chain

    def atoms_in(
        self, reach: Iterable[str], kinds: FrozenSet[str]
    ) -> List[SourcedAtom]:
        out: List[SourcedAtom] = []
        for fid in reach:
            fn = self.functions.get(fid)
            if fn is None:
                continue
            for atom in fn.atoms:
                if atom.kind in kinds:
                    out.append((fid, atom))
        return out

    # -- R204 transaction regions ---------------------------------------

    def txn_region_atoms(self, fid: str) -> List[SourcedAtom]:
        """Mutation atoms inside ``fid``'s transaction bracket: its own
        stores after the ``txn_begin`` call, plus the full mutation
        closure of callees invoked after it and of the callbacks any
        caller hands to ``fid`` or to a callee in the closure (they run
        somewhere inside it).  The closure cuts at nested transaction
        openers: their own bracket owns their coverage."""
        fn = self.functions[fid]
        if not fn.opens_txn:
            return []
        out: List[SourcedAtom] = [
            (fid, a)
            for a in fn.atoms
            if a.kind in MUT_KINDS and a.line > fn.txn_line
        ]
        roots: List[str] = [
            callee
            for line, callee in self.edges[fid]
            if line > fn.txn_line and callee != fid
        ] + self.runs[fid]
        seen: Set[str] = {fid}
        queue = list(roots)
        while queue:
            cur = queue.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            sub = self.functions.get(cur)
            if sub is None:
                continue
            if sub.opens_txn or sub.name == "__init__":
                continue
            for atom in sub.atoms:
                if atom.kind in MUT_KINDS:
                    out.append((cur, atom))
            for _line, nxt in self.edges[cur]:
                if nxt not in seen:
                    queue.append(nxt)
            queue.extend(cb for cb in self.runs[cur] if cb not in seen)
        return out


def _dotted_module(relpath: str) -> str:
    parts = relpath.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    last = parts[-1]
    if last == "__init__.py":
        parts = parts[:-1]
    elif last.endswith(".py"):
        parts[-1] = last[:-3]
    return ".".join(parts)
