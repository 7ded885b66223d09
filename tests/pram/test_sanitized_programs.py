"""Every shipped PRAM step program runs clean under the step-discipline
sanitizer, and each declared race is load-bearing.

The library functions build their machine internally, so each test swaps
the module's ``Machine``/``FaultyMachine`` name for a factory that adds
``sanitize=True`` (raise mode: the first hazard fails the run).  The
sanitizer checks executed traces only, so the seeds and sizes here are
pinned; the activation and ``pram_sum`` cases below are ones on which
dropping the program's declared sanction raises.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import StepDisciplineError, WriteConflictError
from repro.pram import programs
from repro.pram.machine import Machine
from repro.pram.memory import WritePolicy
from repro.pram.ops import Read, Write
from repro.pram.sanitizer import SanitizingSharedMemory
from repro.resilience import harness
from repro.splitting import activation_pram
from repro.splitting.rbsts import RBSTS

#: (seed, sampled-leaf count) over ``RBSTS(range(500), seed=seed)`` on
#: which unsanctioned ACTIVE marking is a same-step stale read.
ACTIVATION_RACES = ((18, 24), (82, 19), (134, 62))

#: ``pram_sum`` sizes on which a worker polls a cell in its writer's step.
PRAM_SUM_RACES = (3, 7, 8, 33, 100)


def _sanitize(monkeypatch, module, name, *, drop_sanction=False):
    """Make ``module.<name>`` build sanitized machines; returns the list
    the built machines are appended to."""
    cls = getattr(module, name)
    built = []

    def make(*args, **kwargs):
        if drop_sanction:
            kwargs["sanctioned"] = ()
        machine = cls(*args, sanitize=True, **kwargs)
        built.append(machine)
        return machine

    monkeypatch.setattr(module, name, make)
    return built


def _assert_sanitized_clean(built):
    assert built, "no machine was built through the patched name"
    for machine in built:
        assert isinstance(machine.memory, SanitizingSharedMemory)
        assert machine.memory.hazards == []


def _activation_case(seed):
    rng = random.Random(seed)
    tree = RBSTS(range(500), seed=seed)
    k = rng.randint(1, 64)
    leaves = [tree.leaf_at(i) for i in rng.sample(range(tree.n_leaves), k)]
    return tree, leaves


# ---------------------------------------------------------------------------
# pram/programs.py
# ---------------------------------------------------------------------------


def test_shipped_pram_programs_run_clean_sanitized(monkeypatch):
    built = _sanitize(monkeypatch, programs, "Machine")
    for seed in range(5):
        rng = random.Random(seed)
        for n in (1, 2, 37, 200):
            values = [rng.randint(-50, 50) for _ in range(n)]
            total, _ = programs.parallel_sum(values)
            assert total == sum(values)
            sums, _ = programs.prefix_sums(values)
            assert sums[-1] == sum(values)
            order = list(range(n))
            rng.shuffle(order)
            successor = {a: b for a, b in zip(order, order[1:])}
            successor[order[-1]] = None
            ranks, _ = programs.list_ranking(successor)
            assert [ranks[v] for v in order] == list(range(n - 1, -1, -1))
    _assert_sanitized_clean(built)


def test_sanitized_metrics_equal_plain_metrics(monkeypatch):
    values = list(range(97))
    plain = (
        programs.parallel_sum(values)[1],
        programs.prefix_sums(values)[1],
    )
    tree, leaves = _activation_case(3)
    plain_act = activation_pram.activate_on_machine(tree, leaves)
    _sanitize(monkeypatch, programs, "Machine")
    _sanitize(monkeypatch, activation_pram, "Machine")
    assert (
        programs.parallel_sum(values)[1],
        programs.prefix_sums(values)[1],
    ) == plain
    sanitized_act = activation_pram.activate_on_machine(tree, leaves)
    assert sanitized_act.metrics == plain_act.metrics
    assert sanitized_act.activated_ids == plain_act.activated_ids


# ---------------------------------------------------------------------------
# splitting/activation_pram.py — sanctioned ("active",)
# ---------------------------------------------------------------------------


def test_activation_runs_clean_sanitized(monkeypatch):
    built = _sanitize(monkeypatch, activation_pram, "Machine")
    seeds = list(range(10)) + [seed for seed, _k in ACTIVATION_RACES]
    for seed in seeds:
        tree, leaves = _activation_case(seed)
        result = activation_pram.activate_on_machine(tree, leaves)
        closure = set()
        for leaf in leaves:
            node = leaf
            while node is not None:
                closure.add(node.nid)
                node = node.parent
        assert result.activated_ids == closure
    _assert_sanitized_clean(built)


@pytest.mark.parametrize("seed,k", ACTIVATION_RACES)
def test_activation_sanction_is_load_bearing(monkeypatch, seed, k):
    tree, leaves = _activation_case(seed)
    assert len(leaves) == k
    _sanitize(monkeypatch, activation_pram, "Machine", drop_sanction=True)
    with pytest.raises(StepDisciplineError, match=r"stale-read at \('active'"):
        activation_pram.activate_on_machine(tree, leaves)


# ---------------------------------------------------------------------------
# resilience/harness.py pram_sum — sanctioned ("s",)
# ---------------------------------------------------------------------------


def test_pram_sum_runs_clean_sanitized(monkeypatch):
    built = _sanitize(monkeypatch, harness, "FaultyMachine")
    for n in (1, 2) + PRAM_SUM_RACES:
        assert harness.pram_sum(range(n)) == sum(range(n))
    _assert_sanitized_clean(built)


@pytest.mark.parametrize("n", PRAM_SUM_RACES)
def test_pram_sum_sanction_is_load_bearing(monkeypatch, n):
    _sanitize(monkeypatch, harness, "FaultyMachine", drop_sanction=True)
    with pytest.raises(StepDisciplineError, match=r"stale-read at \('s'"):
        harness.pram_sum(range(n))


# ---------------------------------------------------------------------------
# host code inside a step program
# ---------------------------------------------------------------------------


def test_poke_inside_a_step_program_raises():
    """A step program that calls the host-side ``poke`` bypasses the
    end-of-step commit; the sanitizer catches it once another
    processor's write of the same step is staged."""

    def cheater(i, mem):
        v = yield Read(("x", i))
        mem.poke(("x", i), v + 1)
        yield Write(("done", i), 1)

    machine = Machine(policy=WritePolicy.PRIORITY, sanitize=True)
    for i in range(4):
        machine.memory.poke(("x", i), i)
    for i in range(4):
        machine.spawn(cheater(i, machine.memory))
    with pytest.raises(StepDisciplineError, match="poke-mid-step"):
        machine.run()


# ---------------------------------------------------------------------------
# planted step programs
# ---------------------------------------------------------------------------


def _racer(i):
    flag = yield Read(("flag", i))
    if flag:
        yield Write(("x", i), 1)
    else:
        stale = yield Read(("x", i + 1))  # same step as i + 1's write
        yield Write(("y", i), stale)


def test_planted_branching_stale_read_raises():
    """The two ``if`` arms differ in length, but the colliding events sit
    at the same offset: an instance in the read arm loads ``("x", i + 1)``
    in the very step its neighbour in the write arm stores it."""
    n = 6
    for mode in ("raise", "record"):
        machine = Machine(policy=WritePolicy.ARBITRARY, sanitize=mode)
        for i in range(n):
            machine.memory.poke(("flag", i), i % 2)
            machine.memory.poke(("x", i), 0)
        for i in range(n - 1):
            machine.spawn(_racer(i))
        if mode == "raise":
            with pytest.raises(
                StepDisciplineError, match=r"stale-read at \('x', "
            ):
                machine.run()
            continue
        machine.run()
        stale = sorted(
            h.addr for h in machine.memory.hazards if h.kind == "stale-read"
        )
        assert stale == [("x", i) for i in range(1, n - 1, 2)]
        # the reader saw the pre-write value
        assert machine.memory.read(("y", 0)) == 0
        assert machine.memory.read(("x", 1)) == 1


def test_planted_common_disagreement_raises_sanitized():
    """COMMON writers that each store their own index into one cell
    disagree in the first step; the sanitized memory keeps the policy's
    error."""

    def claimer(i):
        yield Write(("winner", 0), i)
        _ = yield Read(("winner", 0))

    machine = Machine(policy=WritePolicy.COMMON, sanitize=True)
    for i in range(4):
        machine.spawn(claimer(i))
    with pytest.raises(WriteConflictError):
        machine.run()


def test_hillis_steele_and_agreeing_common_marker_run_clean():
    """A full Hillis-Steele prefix pass (reads strictly before the write,
    one writer per cell) and COMMON writers agreeing on a constant are
    step-disciplined: both run sanitized without a hazard."""

    def stepper(i, stride):
        left = yield Read(("x", i - stride))
        mine = yield Read(("x", i))
        yield Write(("x", i), left + mine)

    values = [3, -1, 4, 1, -5, 9, 2, 6, -5]
    n = len(values)
    machine = Machine(policy=WritePolicy.PRIORITY, sanitize=True)
    for i, v in enumerate(values):
        machine.memory.poke(("x", i), v)
    stride = 1
    while stride < n:
        for i in range(stride, n):
            machine.spawn(stepper(i, stride))
        machine.run()
        stride *= 2
    assert machine.memory.hazards == []
    prefix = [machine.memory.read(("x", i)) for i in range(n)]
    assert prefix == [sum(values[: i + 1]) for i in range(n)]

    def marker(i):
        yield Write(("seen", 0), 1)
        yield Write(("slot", i), 1)

    machine = Machine(policy=WritePolicy.COMMON, sanitize=True)
    for i in range(5):
        machine.spawn(marker(i))
    machine.run()
    assert machine.memory.hazards == []
    assert machine.memory.read(("seen", 0)) == 1
