"""Einsum requests and Algorithm 7 problems, judged before anything runs.

An invalid request (FSTC001-005, 016) is refused with a typed
:mod:`repro.errors` exception by ``TensorNetwork.parse``; what the
advisory findings reported is a field of ``repro network --explain``;
and the plan prediction is :func:`repro.core.guards.plan_guard` over
``choose_plan``.
"""

import numpy as np
import pytest

from repro import einsum
from repro.__main__ import main
from repro.core.guards import DEFAULT_MAX_TASKS, guard_verdict, plan_guard
from repro.core.model import choose_plan
from repro.core.plan import ContractionSpec
from repro.data.random_tensors import random_coo
from repro.errors import (
    ConfigError, FormatError, PlanError, ShapeError, WorkspaceLimitError,
)
from repro.machine.specs import DESKTOP, SERVER
from repro.network.ir import TensorNetwork
from repro.tensors.coo import COOTensor


def explain(subscripts, shapes, nnz, capsys):
    """``repro network --explain`` output for a declared request."""
    argv = ["network", subscripts,
            "--shapes", ",".join("x".join(map(str, s)) for s in shapes),
            "--nnz", ",".join(map(str, nnz)), "--explain"]
    assert main(argv) == 0
    return capsys.readouterr().out


def predict(L, R, C, nnz_l, nnz_r, machine, accumulator="auto", tile_size=None):
    """Algorithm 7's plan and the guard verdict it would get."""
    plan = choose_plan(
        ContractionSpec((L, C), (C, R), [(1, 0)]), nnz_l, nnz_r, machine,
        accumulator=accumulator, tile_size=tile_size,
    )
    return plan, plan_guard(
        plan.accumulator, L, R, plan.tile_l, plan.tile_r, nnz_l, nnz_r
    )


class TestSubscriptLints:
    def test_malformed_subscripts(self):
        with pytest.raises(PlanError):
            TensorNetwork.parse("ij,jk-ik", [(4, 4), (4, 4)])

    def test_arity_mismatch(self):
        with pytest.raises(ShapeError):
            TensorNetwork.parse("ijk,jk->i", [(4, 4), (4, 4)])

    def test_extent_conflict(self):
        with pytest.raises(ShapeError, match="conflicting extents"):
            TensorNetwork.parse("ij,jk->ik", [(4, 5), (6, 7)])

    def test_nonpositive_extent(self):
        with pytest.raises(ShapeError):
            TensorNetwork.parse("ij,jk->ik", [(4, 0), (0, 7)])

    def test_nnz_exceeds_cells(self):
        with pytest.raises(ShapeError):
            TensorNetwork.parse("ij,jk->ik", [(4, 4), (4, 4)], nnz=[17, 4])

    def test_implicit_sum_out_warns(self, capsys):
        # 'i' appears once and not in the output: the operand is reduced
        # before the contraction, and explain says so.
        out = explain("ij,jk->k", [(4, 5), (5, 6)], [8, 9], capsys)
        assert "pre-reduced operands: 0:ij->j" in out

    def test_unsupported_dtype(self):
        # Values are stored as float64: a float16 operand is upcast
        # losslessly, and complex values are refused.
        half = random_coo((4, 4), nnz=6, seed=1)
        half16 = COOTensor(half.coords, half.values.astype(np.float16), half.shape)
        assert half16.values.dtype == np.float64
        np.testing.assert_array_equal(half16.values, half.values.astype(np.float16))
        with pytest.raises(FormatError, match="complex"):
            COOTensor(half.coords, half.values.astype(np.complex128), half.shape)

    def test_mixed_dtypes(self):
        a = random_coo((4, 5), nnz=8, seed=2)
        b = random_coo((5, 6), nnz=9, seed=3)
        a32 = COOTensor(a.coords, a.values.astype(np.float32), a.shape)
        a64 = COOTensor(a.coords, a32.values.astype(np.float64), a.shape)
        got = einsum("ij,jk->ik", a32, b)
        assert got.values.dtype == np.float64
        np.testing.assert_array_equal(
            got.to_dense(), einsum("ij,jk->ik", a64, b).to_dense()
        )

    def test_outer_product_warns(self, capsys):
        out = explain("ij,kl->ijkl", [(3, 3), (3, 3)], [4, 4], capsys)
        assert "[outer]" in out


class TestNetworkLints:
    def test_index_in_three_operands(self):
        with pytest.raises(PlanError):
            TensorNetwork.parse("ij,jk,jl->ikl", [(4, 5), (5, 6), (5, 7)])

    def test_connected_network_clean(self, capsys):
        out = explain(
            "ij,jk,kl->il", [(20, 30), (30, 25), (25, 10)], [100, 90, 40], capsys
        )
        steps = [ln for ln in out.splitlines() if "step " in ln]
        assert len(steps) == 2
        assert all("guard ok" in ln for ln in steps)
        assert "[outer]" not in out

    def test_disconnected_components_info(self, capsys):
        out = explain(
            "ij,jk,lm->ilm", [(4, 5), (5, 6), (7, 8)], [8, 9, 10], capsys
        )
        assert "[outer]" in out

    def test_intermediate_blowup_warns(self, capsys):
        # Sparse factors around a huge shared index: every path must
        # materialize an intermediate far larger than the inputs.
        shapes, nnz = [(400, 3)] * 4, [1200] * 4
        out = explain("ai,bi,cj,dj->abcd", shapes, nnz, capsys)
        assert "peak intermediate ~2.56e+10 nnz" in out

    def test_clean_expression(self, capsys):
        out = explain("ij,jk->ik", [(100, 200), (200, 50)], [500, 400], capsys)
        assert "guard ok" in out


class TestPlanPrediction:
    # The NIPS mode-2 problem parameters (Table 3's DNF row, at the
    # repository's scaled size — frozen in the Algorithm 7 golden
    # fixture): a forced dense accumulator makes the tile grid overflow
    # the task guard.
    NIPS2 = dict(L=2712996, R=2712996, C=2105, nnz_l=10450, nnz_r=10450)

    def test_nips2_dense_dnf(self):
        _, verdict = predict(machine=DESKTOP, accumulator="dense", **self.NIPS2)
        assert verdict.verdict == "dnf"
        assert verdict.tasks > DEFAULT_MAX_TASKS

    def test_nips2_auto_ok(self):
        plan, verdict = predict(machine=DESKTOP, **self.NIPS2)
        assert plan.accumulator == "sparse"
        assert verdict.verdict == "ok"

    def test_lint_problem_reports_fstc010(self, capsys):
        # HEAD's FSTC010 case: a dense 1e6 x 1e6 grid at tile 512.
        assert main(["plan", "--L", "1000000", "--R", "1000000", "--C", "10",
                     "--nnz-l", "1000000", "--nnz-r", "1000000"]) == 0
        verdict = [ln for ln in capsys.readouterr().out.splitlines()
                   if "guard verdict" in ln]
        assert len(verdict) == 1
        assert "dnf (grid 1954x1954, <= 3818116 tasks)" in verdict[0]
        assert f"exceeds the task guard ({DEFAULT_MAX_TASKS})" in verdict[0]

    def test_cell_guard_dnf(self):
        v = guard_verdict("dense", 8192, 8192, cell_guard=1 << 20)
        assert v.verdict == "dnf"
        assert f"= {8192 * 8192} cells exceeds the memory guard" in v.reason
        with pytest.raises(WorkspaceLimitError, match="memory guard"):
            v.enforce()

    def test_sparse_on_dense_antipattern(self):
        # The model picks dense here; forcing sparse is slower, not a DNF.
        plan, _ = predict(512, 512, 512, 200_000, 200_000, DESKTOP)
        assert plan.accumulator == "dense"
        _, verdict = predict(
            512, 512, 512, 200_000, 200_000, DESKTOP, accumulator="sparse"
        )
        assert verdict.verdict == "ok"

    def test_zero_density_info(self, capsys):
        assert main(["plan", "--L", "100", "--R", "100", "--C", "100",
                     "--nnz-l", "0", "--nnz-r", "50"]) == 0
        out = capsys.readouterr().out
        assert "estimated output density = 0.0000e+00" in out
        assert "guard verdict: ok (grid 1x1, <= 0 tasks)" in out

    def test_degenerate_tile_warns(self):
        # One-element tiles turn a modest problem into a task-guard DNF.
        _, verdict = predict(
            4096, 4096, 64, 40_000, 40_000, DESKTOP,
            accumulator="dense", tile_size=1,
        )
        assert verdict.verdict == "dnf"
        assert verdict.tasks == 4096 * 4096

    def test_invalid_inputs_skip_prediction(self, capsys):
        assert main(["plan", "--L", "0", "--R", "10", "--C", "10",
                     "--nnz-l", "5", "--nnz-r", "5"]) == 2
        assert "guard verdict" not in capsys.readouterr().out

    def test_negative_nnz(self):
        with pytest.raises(ShapeError):
            TensorNetwork.parse("ij,jk->ik", [(4, 4), (4, 4)], nnz=[-1, 4])

    def test_bad_accumulator_is_api_misuse(self):
        with pytest.raises(ConfigError, match="auto|dense|sparse"):
            predict(10, 10, 10, 5, 5, DESKTOP, accumulator="fast")

    def test_machines_differ_only_in_scale(self):
        for machine in (DESKTOP, SERVER):
            plan, verdict = predict(1000, 1000, 1000, 10_000, 10_000, machine)
            assert verdict.verdict == "ok"
            assert plan.tile_l >= 1 and plan.tile_r >= 1
