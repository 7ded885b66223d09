"""The retired site rules' planted fixtures, checked by their
successors:

* R001 (bare builtin raise) is a check of the effects pass over every
  function's ``raise`` atoms, import-time raises included;
* R003 (backend parity) is ``tests/test_backend_parity.py``, which
  compares each backend pair as Python reports it at run time;
* R005 (``__all__`` hygiene) is
  ``tests/test_errors_and_api.py::test_public_api_exports_resolve``,
  which imports every ``repro`` module.

Each successor must fail on the old rule's planted fixtures.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.lint.config import LintConfig
from repro.lint.effects import EFFECTS_SCHEMA, run_effects
from tests.test_backend_parity import PARITY_PAIRS, ParityPair, surface_drift
from tests.test_errors_and_api import export_problems

FIXTURES = Path(__file__).parent / "fixtures"

#: No batch entries: the fixtures are single files, not the repo.
_NO_ENTRIES = LintConfig(effect_entries=())


def _lint(*targets):
    return run_effects(FIXTURES, list(targets), _NO_ENTRIES, use_cache=False)


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"lint_fixture_{name}", FIXTURES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# R001 — bare builtin raise (effects pass)
# ---------------------------------------------------------------------------


def test_r001_flags_planted_builtin_raises():
    report = _lint("r001_bad.py")
    assert [(f.rule, f.line) for f in report.findings] == [
        ("R001", 8),
        ("R001", 14),
    ]
    messages = " ".join(f.message for f in report.findings)
    assert "KeyError" in messages and "ValueError" in messages
    # TypeError is an allowed programming-error signal.
    assert "TypeError" not in messages


def test_r001_clean_twin_passes():
    assert _lint("r001_good.py").clean


def test_r001_pragma_suppression():
    assert _lint("r001_suppressed.py").clean


def test_r001_sees_import_time_raises():
    report = _lint("r001_import_time.py")
    assert [(f.rule, f.line) for f in report.findings] == [
        ("R001", 6),
        ("R001", 11),
    ]
    assert all("ValueError" in f.message for f in report.findings)


# ---------------------------------------------------------------------------
# R003 — backend API parity (tests/test_backend_parity.py)
# ---------------------------------------------------------------------------


def _store_pairs(**store_options):
    ref, flat = _load("parity_ref"), _load("parity_flat_bad")
    return (
        ParityPair("store", ref.Store, flat.FlatStore, **store_options),
        ParityPair("activate", ref.activate, flat.flat_activate),
    )


def test_r003_flags_every_planted_drift():
    drift = [d for pair in _store_pairs() for d in surface_drift(pair)]
    assert len(drift) == 5, drift
    joined = " ".join(drift)
    assert "parameter drift on 'insert'" in joined
    assert "lacks public member 'delete'" in joined
    assert "'depth' is a property" in joined
    assert "grew public member 'compact'" in joined
    assert "parameter drift — activate" in joined


def test_r003_allow_extra_registry_silences_growth():
    store, _ = _store_pairs(allow_extra_flat=frozenset({"compact"}))
    drift = surface_drift(store)
    assert len(drift) == 3, drift
    assert all("compact" not in d for d in drift)


def test_r003_contraction_trace_pair_flags_planted_drift():
    """The contraction-trace pair shape (RakeTrace vs FlatContraction)
    with every drift class planted on the flat side."""
    pair = ParityPair(
        "contraction-trace",
        _load("parity_contraction_ref").Trace,
        _load("parity_contraction_flat_bad").FlatTrace,
        allow_extra_ref=frozenset({"new_node"}),
    )
    drift = surface_drift(pair)
    assert len(drift) == 5, drift
    joined = " ".join(drift)
    assert "parameter drift on 'set_rake_op'" in joined
    assert "parameter drift on 'heal'" in joined
    assert "lacks public member 'removal_kind'" in joined
    assert "grew public member 'sweep'" in joined
    assert "'value' is a property" in joined
    # The registered reference-only allocator never reports.
    assert "new_node" not in joined


def test_r003_repo_contraction_pair_registered():
    """The real RakeTrace<->FlatContraction surfaces are pinned by the
    parity table — and currently in lockstep."""
    pair = {p.name: p for p in PARITY_PAIRS}["contraction-trace"]
    assert pair.ref.__name__ == "RakeTrace"
    assert pair.flat.__name__ == "FlatContraction"
    assert pair.allow_extra_ref == frozenset({"new_node"})
    assert pair.allow_extra_flat == frozenset({"replay", "removal"})
    assert surface_drift(pair) == []


# ---------------------------------------------------------------------------
# R005 — __all__ hygiene (tests/test_errors_and_api.py)
# ---------------------------------------------------------------------------


def test_r005_flags_missing_all():
    assert export_problems(_load("r005_bad")) == [
        "no __all__, but defines ['Widget', 'exported_maybe']"
    ]


def test_r005_flags_stale_duplicate_and_unlisted():
    problems = export_problems(_load("r005_bad_stale"))
    joined = " ".join(problems)
    assert "more than once" in joined
    assert "'ghost'" in joined
    assert "'unlisted'" in joined
    assert len(problems) == 3


# ---------------------------------------------------------------------------
# report-level behaviours
# ---------------------------------------------------------------------------


def test_report_json_shape():
    doc = _lint("r001_bad.py").to_json()
    assert doc["schema"] == EFFECTS_SCHEMA
    assert doc["files"] == 1
    assert doc["counts"] == {"R001": 2}
    assert doc["clean"] is False
    first = doc["findings"][0]
    assert set(first) == {"rule", "level", "path", "line", "col", "message"}


def test_missing_target_raises():
    with pytest.raises(FileNotFoundError):
        _lint("does_not_exist.py")
