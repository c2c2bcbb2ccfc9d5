"""The planned guard verdict against Table 3 and the kernel.

Table 3's one DNF entry — NIPS mode 2 under a forced dense accumulator —
is a pure function of Algorithm 7's inputs.  The planned verdict
(:func:`repro.core.guards.plan_guard`) is held against the golden
Algorithm 7 fixture (``tests/data/algorithm7_plans.json``) and against
what the kernel actually does, for every registry case on both paper
machines and all three of Table 3's accumulator columns: a planned
``"dnf"`` means the kernel raises :class:`WorkspaceLimitError`, and a
planned ``"ok"`` means it completes.
"""

import json
from pathlib import Path

import pytest

from repro import contract
from repro.core.guards import plan_guard
from repro.core.model import choose_plan
from repro.core.plan import ContractionSpec
from repro.data.registry import all_cases, get_case
from repro.errors import WorkspaceLimitError
from repro.machine.specs import DESKTOP, SERVER

FIXTURE = Path(__file__).parent.parent / "data" / "algorithm7_plans.json"
GOLDEN = json.loads(FIXTURE.read_text())
CASES = sorted(all_cases())
MACHINES = {"desktop": DESKTOP, "server": SERVER}

_operands_cache = {}


def operands(name):
    if name not in _operands_cache:
        _operands_cache[name] = get_case(name).load()
    return _operands_cache[name]


def planned(name, machine, accumulator="auto"):
    """The plan and planned verdict of one case's golden problem."""
    p = GOLDEN[name]["problem"]
    L, R, C = p["L"], p["R"], p["C"]
    plan = choose_plan(
        ContractionSpec((L, C), (C, R), [(1, 0)]), p["nnz_l"], p["nnz_r"],
        MACHINES[machine], accumulator=accumulator,
    )
    verdict = plan_guard(
        plan.accumulator, L, R, plan.tile_l, plan.tile_r,
        p["nnz_l"], p["nnz_r"],
    )
    return plan, verdict.verdict


def runtime_verdict(name, machine, accumulator):
    left, right, pairs = operands(name)
    try:
        contract(
            left, right, pairs,
            machine=MACHINES[machine], accumulator=accumulator,
        )
    except WorkspaceLimitError:
        return "dnf"
    return "ok"


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == CASES
    assert len(CASES) == 16


@pytest.mark.parametrize("name", CASES)
def test_problem_parameters_match_golden_fixture(name):
    left, right, pairs = operands(name)
    spec = ContractionSpec(left.shape, right.shape, pairs)
    problem = {
        "L": spec.L, "R": spec.R, "C": spec.C,
        "nnz_l": spec.linearize_left(left).sum_duplicates().nnz,
        "nnz_r": spec.linearize_right(right).sum_duplicates().nnz,
    }
    assert problem == GOLDEN[name]["problem"]


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("machine", MACHINES)
def test_predicted_plan_matches_golden_fixture(name, machine):
    plan, _ = planned(name, machine)
    golden = GOLDEN[name][machine]
    assert plan.accumulator == golden["accumulator"]
    assert (plan.tile_l, plan.tile_r) == (golden["tile_l"], golden["tile_r"])


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("machine", MACHINES)
def test_auto_verdict_matches_runtime(name, machine):
    assert planned(name, machine)[1] == "ok"  # every Table 3 auto row runs
    assert runtime_verdict(name, machine, "auto") == "ok"


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("machine", MACHINES)
def test_forced_dense_verdict_matches_runtime(name, machine):
    """The Table 3 dense column — including the NIPS mode-2 DNF cell."""
    _, verdict = planned(name, machine, "dense")
    assert runtime_verdict(name, machine, "dense") == verdict


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("machine", MACHINES)
def test_forced_sparse_never_predicts_dnf(name, machine):
    # Sparse tiles grow with output sparsity, so no benchmark case can
    # overflow either guard; Table 3's sparse column has no DNF entry.
    assert planned(name, machine, "sparse")[1] == "ok"


def test_nips2_dense_dnf_is_the_only_dnf():
    dnf = [
        (name, machine, acc)
        for name in CASES for machine in MACHINES
        for acc in ("auto", "dense", "sparse")
        if planned(name, machine, acc)[1] == "dnf"
    ]
    assert dnf == [
        ("NIPS_2", "desktop", "dense"),
        ("NIPS_2", "server", "dense"),
    ]
