"""Unit and property tests for the einsum front end and tensor-network
contraction."""

import numpy as np
import pytest

from repro.core.einsum import contraction_path, einsum, parse_subscripts
from repro.data.random_tensors import random_coo
from repro.errors import PlanError, ShapeError


class TestParseSubscripts:
    def test_basic(self):
        inputs, out = parse_subscripts("ij,jk->ik", 2)
        assert inputs == ["ij", "jk"]
        assert out == "ik"

    def test_whitespace_tolerated(self):
        inputs, out = parse_subscripts(" ij , jk -> ik ", 2)
        assert inputs == ["ij", "jk"]

    def test_scalar_output(self):
        _, out = parse_subscripts("ij,ij->", 2)
        assert out == ""

    def test_missing_arrow(self):
        with pytest.raises(PlanError):
            parse_subscripts("ij,jk", 2)

    def test_operand_count_mismatch(self):
        with pytest.raises(PlanError):
            parse_subscripts("ij,jk->ik", 3)

    def test_trace_rejected(self):
        with pytest.raises(PlanError):
            parse_subscripts("ii,ij->j", 2)

    def test_three_way_index_rejected(self):
        with pytest.raises(PlanError):
            parse_subscripts("ij,jk,jl->ikl", 3)

    def test_hadamard_rejected(self):
        with pytest.raises(PlanError):
            parse_subscripts("ij,ij->ij", 2)

    def test_phantom_output_index(self):
        with pytest.raises(PlanError):
            parse_subscripts("ij,jk->ix", 2)

    def test_repeated_output_index(self):
        with pytest.raises(PlanError):
            parse_subscripts("ij,jk->ii", 2)


class TestTwoOperand:
    def test_matrix_multiply(self):
        a = random_coo((6, 8), nnz=20, seed=1)
        b = random_coo((8, 5), nnz=15, seed=2)
        out = einsum("ij,jk->ik", a, b)
        np.testing.assert_allclose(out.to_dense(), a.to_dense() @ b.to_dense())

    def test_output_permutation(self):
        a = random_coo((6, 8), nnz=20, seed=1)
        b = random_coo((8, 5), nnz=15, seed=2)
        out = einsum("ij,jk->ki", a, b)
        np.testing.assert_allclose(
            out.to_dense(), (a.to_dense() @ b.to_dense()).T
        )

    def test_paper_dlpno_expression(self):
        # Int_ovov(i, mu, j, nu) = TE_ov(i, mu, k) x TE_ov(j, nu, k)
        te1 = random_coo((4, 6, 5), nnz=30, seed=3)
        te2 = random_coo((4, 6, 5), nnz=30, seed=4)
        out = einsum("imk,jnk->imjn", te1, te2)
        expected = np.einsum("imk,jnk->imjn", te1.to_dense(), te2.to_dense())
        np.testing.assert_allclose(out.to_dense(), expected)

    def test_sum_out_free_index(self):
        a = random_coo((6, 8), nnz=20, seed=5)
        b = random_coo((8, 5), nnz=15, seed=6)
        out = einsum("ij,jk->k", a, b)
        expected = np.einsum("ij,jk->k", a.to_dense(), b.to_dense())
        np.testing.assert_allclose(out.to_dense(), expected)

    def test_full_contraction(self):
        a = random_coo((5, 7), nnz=15, seed=7)
        out = einsum("ij,ij->", a, a)
        assert out.shape == ()
        assert float(out.to_dense()) == pytest.approx(
            float((a.to_dense() ** 2).sum())
        )

    def test_mode_count_mismatch(self):
        a = random_coo((5, 7), nnz=5, seed=8)
        with pytest.raises(ShapeError):
            einsum("ijk,jk->i", a, a)

    def test_extent_conflict(self):
        a = random_coo((5, 7), nnz=5, seed=9)
        b = random_coo((6, 4), nnz=5, seed=10)
        with pytest.raises(ShapeError):
            einsum("ij,jk->ik", a, b)

    def test_method_passthrough(self):
        a = random_coo((6, 8), nnz=20, seed=11)
        b = random_coo((8, 5), nnz=15, seed=12)
        fast = einsum("ij,jk->ik", a, b, method="fastcc")
        sparta = einsum("ij,jk->ik", a, b, method="sparta")
        assert fast.allclose(sparta)


class TestNetworks:
    def test_three_matrix_chain(self):
        a = random_coo((6, 8), nnz=20, seed=13)
        b = random_coo((8, 7), nnz=18, seed=14)
        c = random_coo((7, 5), nnz=14, seed=15)
        out = einsum("ij,jk,kl->il", a, b, c)
        expected = a.to_dense() @ b.to_dense() @ c.to_dense()
        np.testing.assert_allclose(out.to_dense(), expected, rtol=1e-9)

    def test_four_tensor_network(self):
        a = random_coo((4, 5), nnz=12, seed=16)
        b = random_coo((5, 6), nnz=14, seed=17)
        c = random_coo((6, 3), nnz=10, seed=18)
        d = random_coo((3, 4), nnz=8, seed=19)
        out = einsum("ij,jk,kl,lm->im", a, b, c, d)
        expected = np.einsum(
            "ij,jk,kl,lm->im",
            a.to_dense(), b.to_dense(), c.to_dense(), d.to_dense(),
        )
        np.testing.assert_allclose(out.to_dense(), expected, rtol=1e-9)

    def test_network_ring_to_scalar(self):
        a = random_coo((4, 5), nnz=10, seed=20)
        b = random_coo((5, 4), nnz=10, seed=21)
        out = einsum("ij,ji->", a, b)
        expected = np.einsum("ij,ji->", a.to_dense(), b.to_dense())
        assert float(out.to_dense()) == pytest.approx(float(expected))

    def test_left_order_matches_greedy(self):
        a = random_coo((6, 8), nnz=20, seed=22)
        b = random_coo((8, 7), nnz=18, seed=23)
        c = random_coo((7, 5), nnz=14, seed=24)
        greedy = einsum("ij,jk,kl->il", a, b, c, optimize="greedy")
        left = einsum("ij,jk,kl->il", a, b, c, optimize="left")
        assert greedy.allclose(left)

    def test_bad_optimize(self):
        a = random_coo((4, 4), nnz=4, seed=25)
        with pytest.raises(PlanError):
            einsum("ij,jk->ik", a, a, optimize="quantum")

    def test_three_mode_network(self):
        # A tensor-network shape: two 3-D tensors and a matrix.
        t1 = random_coo((4, 5, 6), nnz=25, seed=26)
        t2 = random_coo((6, 3, 7), nnz=25, seed=27)
        m = random_coo((7, 2), nnz=8, seed=28)
        out = einsum("abc,cde,ef->abdf", t1, t2, m)
        expected = np.einsum(
            "abc,cde,ef->abdf", t1.to_dense(), t2.to_dense(), m.to_dense()
        )
        np.testing.assert_allclose(out.to_dense(), expected, rtol=1e-9)


class TestContractionPath:
    def test_path_length(self):
        a = random_coo((4, 5), nnz=10, seed=29)
        b = random_coo((5, 6), nnz=10, seed=30)
        c = random_coo((6, 3), nnz=10, seed=31)
        path = contraction_path("ij,jk,kl->il", [a, b, c])
        assert len(path) == 2

    def test_greedy_prefers_small_intermediate(self):
        # (huge x huge) would make a massive intermediate; greedy must
        # contract the small pair first.
        big1 = random_coo((500, 4), nnz=100, seed=32)
        small = random_coo((4, 4), nnz=8, seed=33)
        big2 = random_coo((4, 500), nnz=100, seed=34)
        # chain: big1(ij) small(jk) big2(kl): contracting big1 x small or
        # small x big2 first is fine; big1 x big2 is impossible (no
        # shared index) and must never be chosen.
        path = contraction_path("ij,jk,kl->il", [big1, small, big2])
        first = path[0]
        assert first != (0, 2)


class TestSumOutModes:
    def test_direct_marginalization(self):
        from repro.core.einsum import _sum_out_modes

        t = random_coo((4, 5, 6), nnz=30, seed=40)
        reduced = _sum_out_modes(t, [1])
        assert reduced.shape == (4, 6)
        np.testing.assert_allclose(
            reduced.to_dense(), t.to_dense().sum(axis=1), rtol=1e-10
        )

    def test_sum_out_all_but_one(self):
        from repro.core.einsum import _sum_out_modes

        t = random_coo((4, 5, 6), nnz=30, seed=41)
        reduced = _sum_out_modes(t, [0, 2])
        np.testing.assert_allclose(
            reduced.to_dense(), t.to_dense().sum(axis=(0, 2)), rtol=1e-10
        )

    def test_sum_out_everything(self):
        from repro.core.einsum import _sum_out_modes

        t = random_coo((4, 5), nnz=10, seed=42)
        reduced = _sum_out_modes(t, [0, 1])
        assert reduced.shape == ()
        assert float(reduced.to_dense()) == pytest.approx(t.values.sum())


#: Einsum requests that are invalid, named by the FSTC code they once
#: drew, and the typed error that refuses them (the declared-shape forms
#: are tests/staticcheck/test_expr_lint.py).
INVALID_REQUESTS = {
    "FSTC001-malformed": ("ij,jk-ik", [(4, 4), (4, 4)], PlanError),
    "FSTC002-arity": ("ijk,jk->i", [(4, 4), (4, 4)], ShapeError),
    "FSTC003-extent-conflict": ("ij,jk->ik", [(4, 5), (6, 7)], ShapeError),
    "FSTC016-index-in-three": ("ij,jk,jl->ikl", [(4, 5), (5, 6), (5, 7)], PlanError),
}


class TestInvalidRequests:
    @pytest.mark.parametrize("name", list(INVALID_REQUESTS))
    def test_tensor_request_is_refused(self, name):
        subscripts, shapes, error = INVALID_REQUESTS[name]
        operands = [random_coo(s, nnz=3, seed=k) for k, s in enumerate(shapes)]
        with pytest.raises(error):
            einsum(subscripts, *operands)
