"""The backend choice is closed: ``"reference"`` and ``"flat"`` only.

Every entry point that takes a backend, a ladder rung or a fuzz
backend rejects any other value with the error taxonomy, including the
retired ``"parallel"`` value.
"""

from __future__ import annotations

import pytest

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.contraction.dynamic import DynamicTreeContraction
from repro.errors import InvalidParameterError
from repro.listprefix.structure import IncrementalListPrefix
from repro.resilience.executor import ResiliencePolicy
from repro.snapshots.fuzz import run_exercise
from repro.splitting.rbsts import RBSTS
from repro.testing.executor import run_sequence
from repro.testing.fuzz import main as fuzz_main
from repro.testing.generator import generate
from repro.trees.builders import random_expression_tree

MONOID = sum_monoid(INTEGER)
#: The retired shared-memory multicore backend value.
RETIRED = "parallel"


def test_rbsts_rejects_parallel():
    with pytest.raises(InvalidParameterError):
        RBSTS(range(8), seed=1, backend=RETIRED)


def test_list_prefix_rejects_parallel():
    with pytest.raises(InvalidParameterError):
        IncrementalListPrefix(MONOID, range(8), seed=1, backend=RETIRED)


def test_contraction_rejects_parallel():
    tree = random_expression_tree(INTEGER, 16, seed=2)
    with pytest.raises(InvalidParameterError):
        DynamicTreeContraction(tree, seed=3, backend=RETIRED)


@pytest.mark.parametrize(
    "ladder", [(RETIRED, "flat"), ("flat", RETIRED, "reference")]
)
def test_ladder_rejects_parallel_rung(ladder):
    with pytest.raises(InvalidParameterError):
        ResiliencePolicy(ladder=ladder)


def test_fuzz_drivers_reject_parallel():
    with pytest.raises(InvalidParameterError):
        run_sequence(generate("list", 1, 5), backend=RETIRED)
    with pytest.raises(InvalidParameterError):
        run_exercise("differential", 0, backend=RETIRED)
    with pytest.raises(SystemExit) as exc:
        fuzz_main(["--backend", RETIRED, "--no-save"])
    assert exc.value.code == 2
