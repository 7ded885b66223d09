"""The R2xx interprocedural pass: planted fixtures fire exactly their
expected finding, the extraction/graph layers resolve the seams the
checks rely on, the summary cache invalidates on edit, and the real
repo is clean."""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import pytest

from repro.lint.cli import repo_root
from repro.lint.config import EffectEntry, LintConfig, REPO_CONFIG
from repro.lint.effects import (
    EFFECTS_SCHEMA,
    EffectGraph,
    ExtractionSpec,
    extract_module,
    run_effects,
)

FIXTURES = Path(__file__).parent / "fixtures" / "effects"

_SPEC = ExtractionSpec(
    columns=frozenset({"parent", "left"}),
    node_fields=frozenset(),
    seam_prefixes=(),
)


def _fixture_config(**overrides) -> LintConfig:
    base = dict(
        effect_entries=(
            EffectEntry("r201_deep.py", "Store", "batch_put", ("R201",)),
            EffectEntry("r201_clean.py", "Store", "batch_put", ("R201",)),
            EffectEntry(
                "r201_suppressed.py", "Store", "batch_put", ("R201",)
            ),
            EffectEntry("r202_base.py", "BaseTree", "batch_link", ("R202",)),
            EffectEntry("r202_sub.py", "FastTree", "batch_link", ("R202",)),
            EffectEntry(
                "r201_randomness.py", "Sampler", "batch_draw", ("R201",)
            ),
            EffectEntry(
                "r201_seeded_twin.py", "SeededSampler", "batch_draw",
                ("R201",),
            ),
        ),
        effect_allowlist={},
        effect_columns=frozenset({"parent", "left"}),
        effect_node_fields=frozenset(),
        effect_seam_paths=(),
    )
    base.update(overrides)
    return LintConfig(**base)


def _run_fixtures(**overrides):
    return run_effects(
        FIXTURES, ["."], _fixture_config(**overrides), use_cache=False
    )


def _by_rule(report, rule):
    return [f for f in report.findings if f.rule == rule]


def _fn(mod, qualname):
    return next(f for f in mod.functions if f.qualname == qualname)


# ---------------------------------------------------------------------------
# planted fixtures — one expected finding each
# ---------------------------------------------------------------------------


def test_r201_violation_two_calls_deep():
    report = _run_fixtures()
    hits = [
        f for f in _by_rule(report, "R201") if f.path == "r201_deep.py"
    ]
    assert len(hits) == 1
    (f,) = hits
    assert "_shuffle" in f.message
    assert "Store.batch_put" in f.message
    # the chain names the intermediate hop the site-local rule misses
    assert "_plan" in f.message


def _planted_lines(name):
    source = (FIXTURES / name).read_text(encoding="utf-8").splitlines()
    return [i for i, text in enumerate(source, 1) if "# planted" in text]


def test_r201_one_finding_per_randomness_form():
    """Every module-level randomness form (library calls, calls through
    a module alias, from-imported bare names, import-time draws) gives
    exactly one finding, on or off an entry closure; seeded draws give
    none."""
    report = _run_fixtures()
    hits = [
        f for f in _by_rule(report, "R201")
        if f.path == "r201_randomness.py"
    ]
    assert sorted(f.line for f in hits) == _planted_lines(
        "r201_randomness.py"
    )
    assert all("module-level randomness" in f.message for f in hits)
    on_path = [f for f in hits if "reachable from" in f.message]
    assert len(on_path) == 1
    assert "Sampler.batch_draw -> _jitter" in on_path[0].message


def test_r201_sees_defs_under_module_level_compound_statements():
    """A ``def`` in an ``except``/``else``/``finally``/``if``/``with``
    body at module or class level is summarised and its draw reported."""
    report = _run_fixtures()
    hits = [
        f for f in _by_rule(report, "R201")
        if f.path == "r201_guarded_defs.py"
    ]
    assert sorted(f.line for f in hits) == _planted_lines(
        "r201_guarded_defs.py"
    )
    for qualname in (
        "fallback", "preferred", "cleanup", "chosen", "other", "reader",
        "Holder.method",
    ):
        assert f"r201_guarded_defs.py::{qualname}" in report.functions


def test_r201_allowlist_exempts_a_randomness_owner():
    report = _run_fixtures(
        effect_allowlist={
            "R201": {"r201_randomness.py::entropy": "fixture justification"},
        }
    )
    hits = [
        f for f in _by_rule(report, "R201")
        if f.path == "r201_randomness.py"
    ]
    assert len(hits) == 3  # the two import-time draws and _jitter's
    assert not [f for f in hits if " in entropy" in f.message]


def test_r201_clean_twin_and_pragma_are_silent():
    report = _run_fixtures()
    assert not [f for f in report.findings if f.path == "r201_clean.py"]
    assert not [
        f for f in report.findings if f.path == "r201_suppressed.py"
    ]


def test_r201_seeded_twin_of_every_form_is_silent():
    """The seeded twin of r201_randomness draws through instances only:
    each draw is extracted as a sanctioned ``rng`` atom and R201 says
    nothing, on the registered entry's closure or off it."""
    report = _run_fixtures()
    assert not [
        f for f in report.findings if f.path == "r201_seeded_twin.py"
    ]
    source = (FIXTURES / "r201_seeded_twin.py").read_text(encoding="utf-8")
    mod = extract_module("r201_seeded_twin.py", source, _SPEC)
    atoms = [a for fn in mod.functions for a in fn.atoms]
    assert {a.kind for a in atoms} == {"rng"}
    drawn = {a.detail for a in _fn(mod, "seeded_entropy").atoms}
    assert {"randint", "getstate", "setstate", "shuffle"} <= drawn
    assert {a.detail for a in _fn(mod, "SeededSampler._jitter").atoms} == {
        "random"
    }


def test_r202_violation_across_subclass_boundary():
    report = _run_fixtures()
    hits = _by_rule(report, "R202")
    assert [f.path for f in hits] == ["r202_sub.py"]
    (f,) = hits
    assert "FastTree._link_core" in f.message
    assert "mut-col:left" in f.message
    # the covered-universe cross-check: left IS restorable
    assert "snapshot-covered" in f.message


def test_r202_guarded_base_is_silent():
    report = _run_fixtures()
    assert not [f for f in report.findings if f.path == "r202_base.py"]


# ---------------------------------------------------------------------------
# R202 asks each mutating function for its pre-image
# ---------------------------------------------------------------------------


def _r202_methods(path, cls, *methods):
    return tuple(EffectEntry(path, cls, m, ("R202",)) for m in methods)


def _r202_hits(entries, **overrides):
    report = _run_fixtures(
        effect_entries=entries,
        effect_columns=frozenset({"_left", "_right", "_n_leaves"}),
        effect_node_fields=frozenset({"left", "parent"}),
        **overrides,
    )
    return _by_rule(report, "R202")


def _owners(hits):
    return sorted({f.message.split(" in ")[1].split(" ")[0] for f in hits})


def test_r202_flags_unjournaled_mutations():
    """Every store in a function that saves no pre-image is a finding,
    including ``reseed``, whose only journal call is ``save_rng``;
    ``guarded`` records first and stays silent."""
    hits = _r202_hits(
        _r202_methods(
            "r202_journal_bad.py", "Tree",
            "splice", "grow", "relink", "guarded", "reseed",
        ),
    )
    assert _owners(hits) == [
        "Tree.grow", "Tree.relink", "Tree.reseed", "Tree.splice",
    ], [str(f) for f in hits]
    assert all("saves no pre-image" in f.message for f in hits)
    assert all("snapshot-covered" in f.message for f in hits)


def test_r202_flags_repair_helpers_on_another_objects_cells():
    """Module functions and methods that rewrite another object's cells
    are asked the same question; the twins that save a pre-image or
    open a transaction are silent."""
    hits = _r202_hits(
        _r202_methods(
            "r202_scrub_bad.py", "", "bad_recompute", "good_recompute"
        )
        + _r202_methods(
            "r202_scrub_bad.py", "Repairer", "bad_relink", "good_relink"
        ),
    )
    assert _owners(hits) == ["Repairer.bad_relink", "bad_recompute"], [
        str(f) for f in hits
    ]


def test_r202_says_whether_a_pre_image_could_restore_the_state():
    hits = _r202_hits(
        _r202_methods(
            "r202_snapshot_bad.py", "Tree",
            "relink", "paint", "shade", "demote",
        ),
    )
    assert _owners(hits) == ["Tree.paint", "Tree.relink", "Tree.shade"]
    for f in hits:
        covered = "mut-col:_left" in f.message
        assert ("snapshot-covered" in f.message) == covered
        assert ("OUTSIDE the snapshot coverage universe" in f.message) == (
            not covered
        )


def _assert_allowlist_silences(path, cls, methods):
    allow = {
        f"{path}::{cls + '.' if cls else ''}{m}": "test" for m in methods
    }
    hits = _r202_hits(
        _r202_methods(path, cls, *methods),
        effect_allowlist={"R202": allow},
    )
    assert not hits, [str(f) for f in hits]


def test_r202_allowlist_silences_journal_owners():
    _assert_allowlist_silences(
        "r202_journal_bad.py", "Tree", ("splice", "grow", "relink", "reseed")
    )


def test_r202_allowlist_silences_repair_helpers():
    _assert_allowlist_silences("r202_scrub_bad.py", "", ("bad_recompute",))
    _assert_allowlist_silences(
        "r202_scrub_bad.py", "Repairer", ("bad_relink",)
    )


def test_r202_allowlist_silences_snapshot_owners():
    _assert_allowlist_silences(
        "r202_snapshot_bad.py", "Tree", ("relink", "paint", "shade")
    )


def test_r204_txn_region_uncovered_mutation():
    report = _run_fixtures()
    hits = [f for f in _by_rule(report, "R204") if f.path == "r204_txn.py"]
    assert len(hits) == 1
    (f,) = hits
    assert "mut-other:_stats" in f.message
    assert "Tree._count" in f.message
    assert "rollback" in f.message


def test_r204_does_not_repeat_an_r202_finding():
    """An unjournaled in-bracket store that an entry reaches is one
    defect: R202 reports it, and R204(a) stays silent on it."""
    report = _run_fixtures(
        effect_entries=(
            EffectEntry("r204_txn.py", "Tree", "batch_link", ("R202",)),
        )
    )
    hits = [
        f for f in report.findings
        if f.path == "r204_txn.py" and f.line == 23
    ]
    assert [f.rule for f in hits] == ["R202"], [str(f) for f in hits]
    assert "OUTSIDE the snapshot coverage universe" in hits[0].message


def test_r202_callback_is_reached_only_through_its_real_entry():
    """A core handed to a shared runner is reached through the entry
    that passes it, not through every caller of the runner."""
    slow = EffectEntry("r202_two_backends.py", "RefBackend", "batch_link",
                       ("R202",))
    fast = EffectEntry("r202_two_backends.py", "FlatBackend", "batch_link",
                       ("R202",))

    def r202(*entries):
        return _by_rule(_run_fixtures(effect_entries=entries), "R202")

    assert not r202(slow)
    hits = r202(slow, fast)
    assert len(hits) == 1, [str(f) for f in hits]
    (f,) = hits
    assert f.line == 35
    assert "batch entry point FlatBackend.batch_link" in f.message
    assert "FlatBackend.batch_link -> FlatBackend._fast_core" in f.message
    assert "run_batch" not in f.message


def test_r204_taxonomy_swallow():
    report = _run_fixtures()
    hits = [
        f for f in _by_rule(report, "R204") if f.path == "r204_swallow.py"
    ]
    # the re-raising and narrow handlers are not findings
    assert len(hits) == 1
    (f,) = hits
    assert "in swallow" in f.message
    assert f.line == 13  # the except line of the swallowing handler


def test_allowlist_drops_justified_owner():
    report = _run_fixtures(
        effect_allowlist={
            "R202": {"r202_sub.py::FastTree._link_core": "test"},
        }
    )
    assert not _by_rule(report, "R202")


def test_registry_drift_is_a_finding():
    report = _run_fixtures(
        effect_entries=(
            EffectEntry("r201_deep.py", "Store", "no_such_method", ("R201",)),
        ),
    )
    drift = [f for f in report.findings if "registry drift" in f.message]
    assert len(drift) == 1 and drift[0].line == 0


# ---------------------------------------------------------------------------
# the repro.serve registration (PR 10) — planted twins of the real shapes
# ---------------------------------------------------------------------------


def _serve_fixture_entries():
    return (
        EffectEntry(
            "serve_window_bad.py", "MiniShard", "execute_window", ("R201",)
        ),
        # module-level entry (empty class_name), like quarantine_bisect
        EffectEntry("serve_probe.py", "", "bisect", ("R201", "R202")),
    )


def test_serve_window_clock_read_fires_r201():
    report = _run_fixtures(effect_entries=_serve_fixture_entries())
    hits = [
        f for f in _by_rule(report, "R201")
        if f.path == "serve_window_bad.py"
    ]
    assert len(hits) == 1
    (f,) = hits
    assert "wall-clock read" in f.message
    assert "MiniShard.execute_window" in f.message
    assert "_expired" in f.message  # two calls down


def test_serve_probe_module_entry_fires_r202():
    report = _run_fixtures(effect_entries=_serve_fixture_entries())
    hits = [
        f for f in _by_rule(report, "R202") if f.path == "serve_probe.py"
    ]
    assert len(hits) == 1
    (f,) = hits
    assert "mut-col:parent" in f.message
    assert "bisect" in f.message


def test_serve_probe_swallow_fires_r204_unless_allowlisted():
    report = _run_fixtures(effect_entries=_serve_fixture_entries())
    hits = [
        f for f in _by_rule(report, "R204") if f.path == "serve_probe.py"
    ]
    assert len(hits) == 1
    assert "in probe" in hits[0].message
    quiet = _run_fixtures(
        effect_entries=_serve_fixture_entries(),
        effect_allowlist={
            "R204": {"serve_probe.py::probe": "fixture justification"},
        },
    )
    assert not [
        f for f in _by_rule(quiet, "R204") if f.path == "serve_probe.py"
    ]


def test_repo_config_registers_the_serve_paths():
    """The real registry covers the serving layer's decision paths and
    justifies its outcome-classification boundaries."""
    fids = {
        (e.path, e.class_name, e.method, e.rules)
        for e in REPO_CONFIG.effect_entries
    }
    assert (
        "src/repro/serve/shard.py", "Shard", "execute_window", ("R201",)
    ) in fids
    assert (
        "src/repro/serve/shard.py", "Shard", "_apply_admitted",
        ("R201", "R202"),
    ) in fids
    assert (
        "src/repro/serve/quarantine.py", "", "quarantine_bisect",
        ("R201", "R202"),
    ) in fids
    r204 = REPO_CONFIG.effect_allowlist["R204"]
    for owner in (
        "src/repro/serve/quarantine.py::_Prober.probe",
        "src/repro/serve/shard.py::Shard.execute_window",
        "src/repro/serve/shard.py::Shard._quarantine",
        "src/repro/serve/chaos.py::run_chaos",
    ):
        assert owner in r204 and r204[owner]


def test_serve_read_entry_reports_every_column_write_of_one_owner():
    report = _run_fixtures(
        effect_entries=(
            EffectEntry("serve_read_bad.py", "MiniReadShard", "read"),
        )
    )
    hits = [
        f for f in _by_rule(report, "R202") if f.path == "serve_read_bad.py"
    ]
    assert sorted(f.message.split()[1] for f in hits) == [
        "mut-col:left",
        "mut-col:parent",
    ]
    assert all("MiniReadShard.read" in f.message for f in hits)


def test_repo_config_registers_the_pinned_read_path():
    """Shard.read gets the full R201+R202 treatment: the pinned-read
    closure is deterministic and writes no slab column outside a
    snapshot seam (pinning itself only joins the transaction stack)."""
    fids = {
        (e.path, e.class_name, e.method, e.rules)
        for e in REPO_CONFIG.effect_entries
    }
    assert (
        "src/repro/serve/shard.py", "Shard", "read", ("R201", "R202")
    ) in fids


# ---------------------------------------------------------------------------
# extraction & graph units
# ---------------------------------------------------------------------------


def test_extract_set_iteration_and_sorted_exemption():
    src = (
        "def f(xs):\n"
        "    s = set(xs)\n"
        "    a = [x for x in s]\n"
        "    b = [x for x in sorted(s)]\n"
        "    return a, b, (3 in s)\n"
    )
    mod = extract_module("m.py", src, _SPEC)
    set_iters = [a for a in _fn(mod, "f").atoms if a.kind == "set-iter"]
    assert len(set_iters) == 1 and set_iters[0].line == 3


def test_extract_sanctioned_vs_global_rng():
    src = (
        "import random\n"
        "def f(seed):\n"
        "    rng = random.Random(seed)\n"
        "    return rng.random() + random.random()\n"
    )
    mod = extract_module("m.py", src, _SPEC)
    kinds = sorted(a.kind for a in _fn(mod, "f").atoms)
    assert "rng" in kinds and "global-rng" in kinds


def test_extract_column_alias_through_tuple_unpack():
    src = (
        "class T:\n"
        "    def f(self, u, v):\n"
        "        parent, left = self._parent, self._left\n"
        "        parent[u] = v\n"
        "        left[u] = u\n"
    )
    spec = ExtractionSpec(
        columns=frozenset({"_parent", "_left"}),
        node_fields=frozenset(),
        seam_prefixes=(),
    )
    mod = extract_module("m.py", src, spec)
    atoms = _fn(mod, "T.f").atoms
    assert {(a.kind, a.detail) for a in atoms} == {
        ("mut-col", "_parent"),
        ("mut-col", "_left"),
    }


def test_extract_txn_line_and_journal_seam():
    src = (
        "class T:\n"
        "    def g(self):\n"
        "        self._journal.save_slot(self, 1)\n"
        "        self._x = 2\n"
        "    def h(self):\n"
        "        self._txn_begin()\n"
        "        self._x = 3\n"
    )
    mod = extract_module("m.py", src, _SPEC)
    assert _fn(mod, "T.g").journal_seam
    assert not _fn(mod, "T.g").opens_txn
    assert _fn(mod, "T.h").opens_txn
    assert _fn(mod, "T.h").txn_line == 6


def test_extract_journal_seam_needs_a_pre_image_call():
    """Only a call that saves a pre-image makes a journal seam; saving
    the RNG or merely naming the journal does not."""
    src = (
        "class T:\n"
        "    def rng_only(self, i):\n"
        "        self._journal.save_rng(self)\n"
        "        self._left[i] = 0\n"
        "    def named(self, journal, i):\n"
        "        pre = journal.saved[i]\n"
        "        self._left[i] = pre\n"
        "    def slot(self, journal, i):\n"
        "        journal.save_slot(self, i)\n"
        "    def meta(self, n):\n"
        "        self._journal.record_meta([n])\n"
    )
    mod = extract_module("m.py", src, _SPEC)
    assert not _fn(mod, "T.rng_only").journal_seam
    assert not _fn(mod, "T.named").journal_seam
    assert _fn(mod, "T.slot").journal_seam
    assert _fn(mod, "T.meta").journal_seam


def test_graph_self_dispatch_includes_subclass_override():
    base = extract_module(
        "base.py",
        "class A:\n"
        "    def entry(self):\n"
        "        return self.core()\n"
        "    def core(self):\n"
        "        return 1\n",
        _SPEC,
    )
    sub = extract_module(
        "sub.py",
        "from base import A\n"
        "class B(A):\n"
        "    def core(self):\n"
        "        return 2\n",
        _SPEC,
    )
    graph = EffectGraph([base, sub])
    entry = graph.find_entry("base.py", "A", "entry")
    assert entry is not None
    reach = graph.reachable([entry])
    assert "base.py::A.core" in reach
    assert "sub.py::B.core" in reach
    # the inherited entry resolves through the subclass row too
    assert graph.find_entry("sub.py", "B", "entry") is not None


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def _copy_fixtures(tmp_path: Path) -> Path:
    dst = tmp_path / "work"
    shutil.copytree(FIXTURES, dst)
    return dst


def test_cache_hit_and_invalidation(tmp_path):
    work = _copy_fixtures(tmp_path)
    cache_file = tmp_path / "cache.json"
    config = _fixture_config()
    first = run_effects(work, ["."], config, cache_file=cache_file)
    assert first.cache_hits == 0 and first.cache_misses == first.files
    second = run_effects(work, ["."], config, cache_file=cache_file)
    assert second.cache_misses == 0 and second.cache_hits == second.files
    assert [f.to_json() for f in second.findings] == [
        f.to_json() for f in first.findings
    ]
    # editing one file re-extracts exactly that file...
    target = work / "r201_deep.py"
    target.write_text(
        target.read_text(encoding="utf-8").replace(
            "random.shuffle(items)", "items.sort()"
        ),
        encoding="utf-8",
    )
    third = run_effects(work, ["."], config, cache_file=cache_file)
    assert third.cache_misses == 1
    assert third.cache_hits == third.files - 1
    # ...and the fix is visible through the cached neighbours
    assert not [f for f in third.findings if f.path == "r201_deep.py"]


def test_cache_invalidated_by_spec_change(tmp_path):
    work = _copy_fixtures(tmp_path)
    cache_file = tmp_path / "cache.json"
    run_effects(work, ["."], _fixture_config(), cache_file=cache_file)
    changed = _fixture_config(effect_columns=frozenset({"parent"}))
    rerun = run_effects(work, ["."], changed, cache_file=cache_file)
    assert rerun.cache_hits == 0 and rerun.cache_misses == rerun.files


def test_cache_invalidated_by_extractor_change(tmp_path, monkeypatch):
    """Summaries written by a different extractor are never reused."""
    from repro.lint.effects import extract

    work = _copy_fixtures(tmp_path)
    cache_file = tmp_path / "cache.json"
    run_effects(work, ["."], _fixture_config(), cache_file=cache_file)
    monkeypatch.setattr(
        extract, "_EXTRACTOR_DIGEST", "an older extractor", raising=False
    )
    rerun = run_effects(work, ["."], _fixture_config(), cache_file=cache_file)
    assert rerun.cache_hits == 0 and rerun.cache_misses == rerun.files


def test_warm_run_is_fast(tmp_path):
    root = repo_root()
    cache_file = tmp_path / "cache.json"
    t0 = time.perf_counter()
    run_effects(root, ["src/repro"], REPO_CONFIG, cache_file=cache_file)
    cold = time.perf_counter() - t0
    warm = min(
        _timed(root, cache_file) for _ in range(3)
    )
    assert warm < 0.25 * cold, f"warm {warm:.3f}s vs cold {cold:.3f}s"


def _timed(root: Path, cache_file: Path) -> float:
    t0 = time.perf_counter()
    report = run_effects(
        root, ["src/repro"], REPO_CONFIG, cache_file=cache_file
    )
    assert report.cache_misses == 0
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# the real repo
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def repo_report():
    """One cold pass over ``src/repro``, shared by the repo checks."""
    return run_effects(
        repo_root(), ["src/repro"], REPO_CONFIG, use_cache=False
    )


def test_repo_is_effect_clean(repo_report):
    report = repo_report
    assert report.clean, "\n".join(str(f) for f in report.findings)


def test_repo_r201_is_clean_without_allowlist(repo_report):
    """No wall clock or unseeded draw is reachable from any entry, so
    R201 needs no exemption: the serve frontend's MonotonicClock stays
    outside every batch closure."""
    assert not REPO_CONFIG.effect_allowlist.get("R201")
    report = repo_report
    assert not _by_rule(report, "R201")


def test_repo_entries_all_resolve(repo_report):
    report = repo_report
    assert not [
        f for f in report.findings if "registry drift" in f.message
    ]
    # every configured entry produced a function record universe to scan
    assert len(report.entries) == len(REPO_CONFIG.effect_entries)


def test_report_json_schema():
    report = _run_fixtures()
    doc = report.to_json()
    assert doc["schema"] == EFFECTS_SCHEMA
    assert doc["clean"] is False
    assert set(doc["counts"]) == {"R201", "R202", "R204"}
    json.dumps(doc)  # round-trips
    fn = doc["functions"]["r201_deep.py::_shuffle"]
    # atoms serialize as [kind, detail, line] triples
    assert fn["atoms"] and fn["atoms"][0][0] == "global-rng"


def test_cli_effects_mode(tmp_path, capsys):
    from repro.lint.cli import main

    rc = main(["--no-cache", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == EFFECTS_SCHEMA and doc["clean"] is True
