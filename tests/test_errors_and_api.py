"""Exception hierarchy and public API surface."""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro import errors


def test_all_errors_derive_from_repro_error():
    for name in (
        "PRAMError",
        "WriteConflictError",
        "ProcessorLimitError",
        "MachineStateError",
        "TreeStructureError",
        "NotALeafError",
        "UnknownNodeError",
        "RequestError",
    ):
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ReproError), name


def test_sub_hierarchies():
    assert issubclass(errors.WriteConflictError, errors.PRAMError)
    assert issubclass(errors.NotALeafError, errors.TreeStructureError)


def test_library_never_raises_bare_exceptions():
    """Catching ReproError must be enough for structure misuse."""
    from repro import RBSTS

    tree = RBSTS([1])
    with pytest.raises(errors.ReproError):
        tree.delete(tree.leaf_at(0))


def export_problems(module):
    """Every way ``module``'s ``__all__`` misstates its surface: it
    is missing while the module defines public classes or functions,
    lists a name twice, lists a name the module lacks, or leaves out a
    public class or function the module defines."""
    defined = sorted(
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
        and obj.__name__ == name
    )
    exported = getattr(module, "__all__", None)
    if exported is None:
        return [f"no __all__, but defines {defined}"] if defined else []
    problems = [
        f"__all__ lists {name!r} more than once"
        for name in sorted({n for n in exported if exported.count(n) > 1})
    ]
    problems += [
        f"__all__ lists {name!r}, which the module lacks"
        for name in exported
        if not hasattr(module, name)
    ]
    problems += [
        f"public definition {name!r} is not in __all__"
        for name in defined
        if name not in exported
    ]
    return problems


def test_public_api_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    problems = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        found = export_problems(importlib.import_module(info.name))
        if found:
            problems[info.name] = found
    assert problems == {}


def test_version_is_pep440ish():
    parts = repro.__version__.split(".")
    assert len(parts) >= 2
    assert all(p.isdigit() for p in parts[:2])


def test_quickstart_docstring_flow():
    """The README/docstring quickstart must actually run."""
    from repro import INTEGER, DynamicExpression

    expr = DynamicExpression.from_random(INTEGER, n_leaves=100, seed=1)
    before = expr.value()
    leaf = expr.some_leaf()
    expr.batch_set_values([(leaf, 42)])
    assert expr.value() == expr.tree.evaluate()
    assert expr.tree.node(leaf).value == 42
    assert isinstance(before, int)
