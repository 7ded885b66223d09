"""The corpus schema and the exercise protocol behind the fuzz driver.

Every file in ``tests/corpus/`` is one ``repro-corpus/1`` entry::

    {"schema": "repro-corpus/1", "exercise": "<name>",
     "input": {...}, "expect": {...}, "note": "..."}

``exercise`` names the :class:`Exercise` that replays it
(:data:`repro.testing.fuzz.EXERCISES`), ``input`` is everything the
run depends on, and ``expect`` lists the clauses the replay must
reproduce on top of replaying clean.  An unknown ``input`` key or
``expect`` clause is an error, so a misspelt entry cannot pass
silently.

An exercise is generate → run → audit → classify for one seed:
:meth:`Exercise.run_seed` returns an :class:`Outcome`,
:meth:`Exercise.reproducer` turns a failing seed into a corpus entry
and :meth:`Exercise.replay_entry` re-runs an entry and asserts its
``expect`` clauses.  (The method names are distinct from ``run`` and
``replay`` because the effects pass resolves ``x.run()`` to every
method of that name, ``Machine.run`` included.)
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple,
)

from ..errors import InvalidParameterError

__all__ = [
    "SCHEMA",
    "Exercise",
    "Outcome",
    "check_expect",
    "corpus_paths",
    "default_corpus_dir",
    "entry",
    "load_entry",
    "save_entry",
    "take",
]

SCHEMA = "repro-corpus/1"
_KEYS = ("schema", "exercise", "input", "expect", "note")


@dataclass
class Outcome:
    """The classified result of one exercise run or replay."""

    ok: bool
    #: Tally key for this run (e.g. ``"degraded"``, ``"save-crash"``).
    label: str
    #: Coverage classes this run witnessed.
    classes: FrozenSet[str] = frozenset()
    failure: Optional[str] = None
    #: One line for the per-seed log.
    line: str = ""
    #: The exercise's own report (RunReport, ResilienceReport, ...).
    detail: Any = None


class Exercise:
    """One fuzzable property.  Subclasses set the class attributes and
    implement the three methods."""

    name: str = ""
    #: Classes ``--require-coverage`` demands across a batch of runs.
    coverage: Tuple[str, ...] = ()
    #: ``--ops`` when not given.
    default_size: int = 1
    #: Driver options (beyond seed and size) :meth:`run_seed` accepts.
    options: FrozenSet[str] = frozenset()

    def run_seed(self, seed: int, size: int, **options: Any) -> Outcome:
        raise NotImplementedError

    def reproducer(
        self, seed: int, size: int, outcome: Outcome, **options: Any
    ) -> Dict[str, Any]:
        """The corpus entry that replays the failing run of ``seed``."""
        raise NotImplementedError

    def replay_entry(self, data: Mapping[str, Any]) -> Outcome:
        """Re-run a loaded entry; raises AssertionError when an
        ``expect`` clause does not hold."""
        raise NotImplementedError


def entry(
    exercise: str,
    input: Dict[str, Any],
    expect: Optional[Dict[str, Any]] = None,
    note: str = "",
) -> Dict[str, Any]:
    return {
        "schema": SCHEMA,
        "exercise": exercise,
        "input": input,
        "expect": dict(expect or {}),
        "note": note,
    }


def take(
    mapping: Mapping[str, Any], allowed: Iterable[str], what: str
) -> Mapping[str, Any]:
    """``mapping`` itself, after checking it holds only ``allowed`` keys."""
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise InvalidParameterError(f"unknown {what} key(s) {unknown}")
    return mapping


def check_expect(
    expect: Mapping[str, Any],
    got: Mapping[str, Any],
    match: Optional[Mapping[str, Callable[[Any, Any], bool]]] = None,
) -> None:
    """Assert every ``expect`` clause against ``got`` (same keys).
    ``min_*`` clauses are lower bounds, ``match`` supplies other
    comparisons by key, and every remaining clause must be equal."""
    take(expect, got, "expect")
    for key, want in sorted(expect.items()):
        have = got[key]
        if match is not None and key in match:
            held = match[key](want, have)
        elif key.startswith("min_"):
            held = have >= want
        else:
            held = have == want
        if not held:
            raise AssertionError(f"expect {key}={want!r} not met: got {have!r}")


def default_corpus_dir() -> str:
    """``tests/corpus`` relative to the repository root when it exists,
    else relative to the current directory."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(os.path.join(here, "..", "..", ".."))
    if os.path.isdir(os.path.join(root, "tests")):
        return os.path.join(root, "tests", "corpus")
    return os.path.join(os.getcwd(), "tests", "corpus")


def corpus_paths() -> List[str]:
    directory = default_corpus_dir()
    if not os.path.isdir(directory):
        return []
    return [
        os.path.join(directory, name)
        for name in sorted(os.listdir(directory))
        if name.endswith(".json")
    ]


def load_entry(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("schema") != SCHEMA:
        raise InvalidParameterError(f"{path}: not a {SCHEMA} entry")
    take(data, _KEYS, "entry")
    missing = sorted(set(_KEYS) - set(data))
    if missing:
        raise InvalidParameterError(f"{path}: missing key(s) {missing}")
    return data


def save_entry(data: Dict[str, Any]) -> str:
    """Write ``data`` into the corpus as ``<exercise>-<digest>.json``;
    returns the path."""
    directory = default_corpus_dir()
    os.makedirs(directory, exist_ok=True)
    digest = hashlib.sha256(
        json.dumps(data["input"], sort_keys=True).encode()
    ).hexdigest()[:10]
    path = os.path.join(directory, f"{data['exercise']}-{digest}.json")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
