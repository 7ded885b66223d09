"""The perf-regression gate must reject malformed baselines with a
distinct exit code (3) and message — never a ``KeyError`` traceback —
and its speedup floors must judge the gate cells it is given (checked
on synthetic runs, so no timing is involved)."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)


@pytest.fixture(scope="module")
def regress():
    path = os.path.join(REPO_ROOT, "benchmarks", "regress.py")
    spec = importlib.util.spec_from_file_location("regress_under_test", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def write_baseline(tmp_path, payload):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(payload))
    return str(path)


GOOD_CELL = {
    "experiment": "x",
    "cell": {"n": 8, "u": 2},
    "backend": "flat",
    "simulated": {"work": 1},
    "wall_clock_s": 0.01,
}


def test_missing_cells_exits_3(regress, tmp_path, capsys):
    path = write_baseline(
        tmp_path, {"schema": "repro-perf-harness/1", "quick": False}
    )
    rc = regress.main(["--baseline", path])
    assert rc == 3
    err = capsys.readouterr().err
    assert "cells" in err and "invalid baseline" in err


def test_empty_cells_exits_3(regress, tmp_path):
    path = write_baseline(
        tmp_path,
        {"schema": "repro-perf-harness/1", "quick": False, "cells": []},
    )
    assert regress.main(["--baseline", path]) == 3


def test_cell_missing_keys_exits_3(regress, tmp_path, capsys):
    bad = {k: v for k, v in GOOD_CELL.items() if k != "wall_clock_s"}
    path = write_baseline(
        tmp_path,
        {"schema": "repro-perf-harness/1", "quick": False, "cells": [bad]},
    )
    assert regress.main(["--baseline", path]) == 3
    assert "wall_clock_s" in capsys.readouterr().err


def test_cells_wrong_type_exits_3(regress, tmp_path):
    path = write_baseline(
        tmp_path,
        {"schema": "repro-perf-harness/1", "quick": False, "cells": {"a": 1}},
    )
    assert regress.main(["--baseline", path]) == 3


def test_unreadable_baseline_still_exits_2(regress, tmp_path):
    assert regress.main(["--baseline", str(tmp_path / "nope.json")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert regress.main(["--baseline", str(garbled)]) == 2


def test_schema_mismatch_still_exits_2(regress, tmp_path):
    path = write_baseline(tmp_path, {"schema": "other/9", "cells": []})
    assert regress.main(["--baseline", path]) == 2


def test_validate_cells_accepts_good_baseline(regress):
    assert regress.validate_cells({"cells": [dict(GOOD_CELL)]}) == []


def test_default_baseline_missing_exits_2(regress, monkeypatch, tmp_path):
    missing = str(tmp_path / "BENCH_PR7.json")
    monkeypatch.setattr(regress.perf_harness, "DEFAULT_OUT", missing)
    assert regress.main([]) == 2


# ---------------------------------------------------------------------------
# speedup floors (gate_failures) on synthetic current runs
# ---------------------------------------------------------------------------


def gate_run(regress, ratios):
    """A current report holding one reference/flat pair per gate cell in
    ``ratios``, timed so reference / flat is exactly that ratio in every
    repeat (a list of ratios gives one repeat each)."""
    cells = []
    for exp, ratio in ratios.items():
        cell = regress.perf_harness.GATE_CELLS[exp]
        per_repeat = ratio if isinstance(ratio, list) else [ratio]
        for backend, walls in (
            ("reference", per_repeat),
            ("flat", [1.0] * len(per_repeat)),
        ):
            cells.append(
                {
                    "experiment": exp,
                    "cell": {"n": cell["n"], "u": cell["u"]},
                    "backend": backend,
                    "simulated": {},
                    "wall_clock_s": min(walls),
                    "repeat_wall_clock_s": walls,
                }
            )
    return {"cells": cells}


@pytest.mark.parametrize("exp", ["E4", "E5", "E6"])
def test_below_floor_gate_ratio_fails(regress, exp):
    ratios = dict(regress.MIN_SPEEDUPS)
    ratios[exp] -= 0.01
    failures = regress.gate_failures(gate_run(regress, ratios))
    assert len(failures) == 1
    assert failures[0].startswith(f"{exp} gate cell")
    assert "below floor" in failures[0]


def test_at_floor_gate_ratios_pass(regress, capsys):
    assert regress.gate_failures(gate_run(regress, regress.MIN_SPEEDUPS)) == []
    assert capsys.readouterr().out.count("OK") == 3


def test_gate_judges_the_median_repeat_ratio(regress, capsys):
    floor = regress.MIN_SPEEDUPS["E5"]
    # One noisy repeat under the floor does not fail the gate ...
    outlier = [floor - 0.5, floor + 0.1, floor + 0.2]
    assert regress.gate_failures(gate_run(regress, {"E5": outlier})) == []
    out = capsys.readouterr().out
    assert " ".join(f"{r:.3f}" for r in outlier) in out  # every repeat shown
    # ... but a median under the floor does, even past one fast repeat.
    slow = [floor - 0.2, floor - 0.1, floor + 1.0]
    failures = regress.gate_failures(gate_run(regress, {"E5": slow}))
    assert len(failures) == 1 and "below floor" in failures[0]


def test_missing_gate_cell_is_skipped(regress, capsys):
    ratios = {"E4": regress.MIN_SPEEDUPS["E4"], "E6": 0.5}
    current = gate_run(regress, ratios)
    # E5 is absent and E6 has no flat timing: neither can be judged.
    current["cells"] = [
        c
        for c in current["cells"]
        if (c["experiment"], c["backend"]) != ("E6", "flat")
    ]
    assert regress.gate_failures(current) == []
    out = capsys.readouterr().out
    assert "E4 gate" in out
    assert "E5" not in out and "E6" not in out
