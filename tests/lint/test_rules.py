"""Each rule catches its planted fixture violation and accepts the
clean twin; engine-level behaviours (suppression, JSON report) ride
along."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.config import LintConfig, ParityPair, REPO_CONFIG
from repro.lint.engine import SCHEMA, run_lint
from repro.lint.rules import (
    BackendParityRule,
    BareRaiseRule,
    ExportHygieneRule,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _run(targets, rules):
    return run_lint(FIXTURES, targets, rules)


def _rules_of(report):
    return sorted(f.rule for f in report.findings)


# ---------------------------------------------------------------------------
# R001 — bare builtin raise
# ---------------------------------------------------------------------------


def test_r001_flags_planted_builtin_raises():
    report = _run(["r001_bad.py"], [BareRaiseRule(REPO_CONFIG)])
    assert _rules_of(report) == ["R001", "R001"]
    messages = " ".join(f.message for f in report.findings)
    assert "KeyError" in messages and "ValueError" in messages
    # TypeError is an allowed programming-error signal.
    assert "TypeError" not in messages


def test_r001_clean_twin_passes():
    report = _run(["r001_good.py"], [BareRaiseRule(REPO_CONFIG)])
    assert report.clean


def test_r001_pragma_suppression():
    report = _run(["r001_suppressed.py"], [BareRaiseRule(REPO_CONFIG)])
    assert report.clean


# ---------------------------------------------------------------------------
# R003 — backend API parity
# ---------------------------------------------------------------------------

_PARITY_CONFIG = LintConfig(
    parity_pairs=(
        ParityPair(
            name="store",
            kind="class",
            ref_path="parity_ref.py",
            ref_symbol="Store",
            flat_path="parity_flat_bad.py",
            flat_symbol="FlatStore",
        ),
        ParityPair(
            name="activate",
            kind="function",
            ref_path="parity_ref.py",
            ref_symbol="activate",
            flat_path="parity_flat_bad.py",
            flat_symbol="flat_activate",
        ),
    )
)


def test_r003_flags_every_planted_drift():
    report = _run(
        ["parity_ref.py", "parity_flat_bad.py"],
        [BackendParityRule(_PARITY_CONFIG)],
    )
    messages = [f.message for f in report.findings]
    assert len(messages) == 5, messages
    joined = " ".join(messages)
    assert "parameter drift on 'insert'" in joined
    assert "lacks public member 'delete'" in joined
    assert "'depth' is a property" in joined
    assert "grew public member 'compact'" in joined
    assert "parameter drift — activate" in joined


def test_r003_allow_extra_registry_silences_growth():
    config = LintConfig(
        parity_pairs=(
            ParityPair(
                name="store",
                kind="class",
                ref_path="parity_ref.py",
                ref_symbol="Store",
                flat_path="parity_flat_bad.py",
                flat_symbol="FlatStore",
                allow_extra_flat=frozenset({"compact"}),
                notes="test: compact registered",
            ),
        )
    )
    report = _run(
        ["parity_ref.py", "parity_flat_bad.py"],
        [BackendParityRule(config)],
    )
    assert all("compact" not in f.message for f in report.findings)


def test_r003_contraction_trace_pair_flags_planted_drift():
    """The contraction-trace pair shape (RakeTrace vs FlatContraction)
    with every drift class planted on the flat side."""
    config = LintConfig(
        parity_pairs=(
            ParityPair(
                name="contraction-trace",
                kind="class",
                ref_path="parity_contraction_ref.py",
                ref_symbol="Trace",
                flat_path="parity_contraction_flat_bad.py",
                flat_symbol="FlatTrace",
                allow_extra_ref=frozenset({"new_node"}),
                notes="test: new_node registered reference-only",
            ),
        )
    )
    report = _run(
        ["parity_contraction_ref.py", "parity_contraction_flat_bad.py"],
        [BackendParityRule(config)],
    )
    messages = [f.message for f in report.findings]
    assert len(messages) == 5, messages
    joined = " ".join(messages)
    assert "parameter drift on 'set_rake_op'" in joined
    assert "parameter drift on 'heal'" in joined
    assert "lacks public member 'removal_kind'" in joined
    assert "grew public member 'sweep'" in joined
    assert "'value' is a property" in joined
    # The registered reference-only allocator never reports.
    assert "new_node" not in joined


def test_r003_repo_contraction_pair_registered():
    """The real RakeTrace<->FlatContraction surfaces are pinned by the
    repo config — and currently in lockstep."""
    pair = {p.name: p for p in REPO_CONFIG.parity_pairs}["contraction-trace"]
    assert pair.ref_symbol == "RakeTrace"
    assert pair.flat_symbol == "FlatContraction"
    assert pair.allow_extra_ref == frozenset({"new_node"})
    assert pair.allow_extra_flat == frozenset({"replay", "removal"})
    repo_root = Path(__file__).resolve().parents[2]
    report = run_lint(
        repo_root,
        [pair.ref_path, pair.flat_path],
        [BackendParityRule(REPO_CONFIG)],
    )
    assert report.clean, [f.message for f in report.findings]


# ---------------------------------------------------------------------------
# R005 — __all__ hygiene
# ---------------------------------------------------------------------------


def test_r005_flags_missing_all():
    report = _run(["r005_bad.py"], [ExportHygieneRule(REPO_CONFIG)])
    assert _rules_of(report) == ["R005"]
    assert "no __all__" in report.findings[0].message


def test_r005_flags_stale_duplicate_and_unlisted():
    report = _run(["r005_bad_stale.py"], [ExportHygieneRule(REPO_CONFIG)])
    joined = " ".join(f.message for f in report.findings)
    assert "more than once" in joined
    assert "'ghost'" in joined
    assert "'unlisted'" in joined
    assert len(report.findings) == 3


def test_r005_exempt_registry():
    config = LintConfig(exports_exempt=frozenset({"r005_bad.py"}))
    report = _run(["r005_bad.py"], [ExportHygieneRule(config)])
    assert report.clean


# ---------------------------------------------------------------------------
# engine-level behaviours
# ---------------------------------------------------------------------------


def test_report_json_shape():
    report = _run(["r001_bad.py"], [BareRaiseRule(REPO_CONFIG)])
    doc = report.to_json()
    assert doc["schema"] == SCHEMA
    assert doc["files"] == 1
    assert doc["counts"] == {"R001": 2}
    assert doc["clean"] is False
    first = doc["findings"][0]
    assert set(first) == {"rule", "level", "path", "line", "col", "message"}


def test_missing_target_raises():
    with pytest.raises(FileNotFoundError):
        _run(["does_not_exist.py"], [BareRaiseRule(REPO_CONFIG)])
