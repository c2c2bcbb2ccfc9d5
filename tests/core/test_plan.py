"""Unit tests for contraction specs, linearization and plans."""

import numpy as np
import pytest

from repro.core.plan import ContractionSpec, LinearizedOperand
from repro.data.random_tensors import random_coo
from repro.errors import PlanError, ShapeError
from repro.tensors.dense import dense_contract


class TestContractionSpec:
    def test_mode_classification(self):
        spec = ContractionSpec((3, 4, 5), (4, 6, 5), [(1, 0), (2, 2)])
        assert spec.left_external == (0,)
        assert spec.right_external == (1,)
        assert spec.output_shape == (3, 6)
        assert spec.L == 3 and spec.R == 6 and spec.C == 20

    def test_output_mode_order(self):
        spec = ContractionSpec((2, 3, 4), (3, 5, 6), [(1, 0)])
        assert spec.output_shape == (2, 4, 5, 6)

    def test_extent_mismatch(self):
        with pytest.raises(ShapeError):
            ContractionSpec((3, 4), (5, 6), [(1, 0)])

    def test_no_pairs(self):
        with pytest.raises(PlanError):
            ContractionSpec((3,), (3,), [])

    def test_repeated_left_mode(self):
        with pytest.raises(PlanError):
            ContractionSpec((3, 3), (3, 3), [(0, 0), (0, 1)])

    def test_mode_out_of_range(self):
        with pytest.raises(PlanError):
            ContractionSpec((3,), (3,), [(1, 0)])

    def test_full_contraction_scalar_output(self):
        spec = ContractionSpec((3, 4), (3, 4), [(0, 0), (1, 1)])
        assert spec.output_shape == ()
        assert spec.L == 1 and spec.R == 1


class TestLinearization:
    def test_left_right_share_contraction_space(self):
        a = random_coo((4, 5, 6), nnz=30, seed=1)
        b = random_coo((6, 5, 3), nnz=20, seed=2)
        spec = ContractionSpec(a.shape, b.shape, [(2, 0), (1, 1)])
        lop = spec.linearize_left(a)
        rop = spec.linearize_right(b)
        assert lop.con_extent == rop.con_extent == 30
        assert lop.ext_extent == 4
        assert rop.ext_extent == 3

    def test_contraction_index_consistency(self):
        # The same (c-mode coordinate tuple) must linearize identically on
        # both sides even when the paired modes sit at different positions.
        a = random_coo((4, 5, 6), nnz=40, seed=3)
        b = random_coo((6, 7, 5), nnz=40, seed=4)
        spec = ContractionSpec(a.shape, b.shape, [(1, 2), (2, 0)])
        lop = spec.linearize_left(a)
        rop = spec.linearize_right(b)
        # Element of a at (i, j, k) has c = j * 6 + k; element of b at
        # (k, m, j) must produce the same c.
        j, k = a.coords[1, 0], a.coords[2, 0]
        assert lop.con[0] == j * 6 + k
        j2, k2 = b.coords[2, 0], b.coords[0, 0]
        assert rop.con[0] == j2 * 6 + k2

    def test_wrong_shape_rejected(self):
        a = random_coo((4, 5), nnz=5, seed=5)
        spec = ContractionSpec((4, 5), (5, 4), [(1, 0)])
        with pytest.raises(ShapeError):
            spec.linearize_right(a)

    def test_roundtrip_through_output(self):
        a = random_coo((4, 5), nnz=10, seed=6)
        b = random_coo((5, 3), nnz=10, seed=7)
        spec = ContractionSpec(a.shape, b.shape, [(1, 0)])
        l = np.array([0, 3], dtype=np.int64)
        r = np.array([2, 1], dtype=np.int64)
        v = np.array([1.5, -2.0])
        out = spec.delinearize_output(l, r, v)
        assert out.shape == (4, 3)
        dense = out.to_dense()
        assert dense[0, 2] == 1.5
        assert dense[3, 1] == -2.0

    @pytest.mark.parametrize("n_rows", [0, 1, 40, 200, 3000])
    @pytest.mark.parametrize("repeats", [False, True])
    def test_canonical_output_matches_sum_duplicates(self, n_rows, repeats):
        # Rows filling few cells take the argsort, rows filling most of
        # the 6 x 12 x 4 output take the counting sort; with repeats
        # both must sum exactly as COOTensor.sum_duplicates does.
        spec = ContractionSpec((6, 5), (5, 12, 4), [(1, 0)])
        rng = np.random.default_rng(n_rows)
        cells = spec.L * spec.R
        if repeats:
            keys = rng.integers(0, cells, n_rows)
        else:
            keys = rng.permutation(max(cells, n_rows))[:n_rows] % cells
            keys = np.unique(keys)
            rng.shuffle(keys)
        l_idx, r_idx = keys // spec.R, keys % spec.R
        values = rng.standard_normal(keys.size)
        keys_out, out = spec.canonical_output(l_idx, r_idx, values)
        ref = spec.delinearize_output(l_idx, r_idx, values).sum_duplicates()
        assert out.shape == ref.shape
        np.testing.assert_array_equal(out.coords, ref.coords)
        assert out.values.tobytes() == ref.values.tobytes()
        np.testing.assert_array_equal(keys_out, np.unique(keys))


class TestLinearizedOperand:
    def test_sum_duplicates(self):
        op = LinearizedOperand(
            ext=np.array([1, 1, 2], dtype=np.int64),
            con=np.array([3, 3, 0], dtype=np.int64),
            values=np.array([1.0, 2.0, 5.0]),
            ext_extent=4,
            con_extent=5,
        )
        s = op.sum_duplicates()
        assert s.nnz == 2
        assert 3.0 in s.values.tolist()

    def test_density(self):
        op = LinearizedOperand(
            ext=np.array([0], dtype=np.int64),
            con=np.array([0], dtype=np.int64),
            values=np.array([1.0]),
            ext_extent=4,
            con_extent=5,
        )
        assert op.density == 1 / 20

    def test_empty_sum_duplicates(self):
        op = LinearizedOperand(
            ext=np.empty(0, dtype=np.int64),
            con=np.empty(0, dtype=np.int64),
            values=np.empty(0),
            ext_extent=4,
            con_extent=5,
        )
        assert op.sum_duplicates().nnz == 0


class TestEndToEndLinearization:
    @pytest.mark.parametrize(
        "a_shape,b_shape,pairs",
        [
            ((4, 6), (6, 3), [(1, 0)]),
            ((3, 4, 5), (5, 4, 2), [(2, 0), (1, 1)]),
            ((2, 3, 4, 5), (4, 5, 3), [(2, 0), (3, 1)]),
            ((6, 7), (7, 6), [(0, 1), (1, 0)]),
        ],
    )
    def test_linearized_product_matches_einsum(self, a_shape, b_shape, pairs):
        a = random_coo(a_shape, nnz=20, seed=8)
        b = random_coo(b_shape, nnz=15, seed=9)
        spec = ContractionSpec(a.shape, b.shape, pairs)
        lop = spec.linearize_left(a).sum_duplicates()
        rop = spec.linearize_right(b).sum_duplicates()
        lm = np.zeros((spec.L, spec.C))
        np.add.at(lm, (lop.ext, lop.con), lop.values)
        rm = np.zeros((spec.R, spec.C))
        np.add.at(rm, (rop.ext, rop.con), rop.values)
        flat = lm @ rm.T
        expected = dense_contract(a, b, pairs)
        np.testing.assert_allclose(flat.reshape(expected.shape), expected)
