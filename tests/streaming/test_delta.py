"""DeltaBatch: canonicalization semantics and COO apply."""

import numpy as np
import pytest

from repro.data.random_tensors import random_coo
from repro.errors import ConfigError, FormatError, ShapeError
from repro.streaming import (
    DELETE,
    INSERT,
    UPDATE,
    DeltaBatch,
)
from repro.tensors.coo import COOTensor

SHAPE = (8, 6)


def dense_of(tensor: COOTensor) -> np.ndarray:
    return tensor.to_dense()


class TestConstruction:
    def test_from_ops_round_trip(self):
        batch = DeltaBatch.from_ops(
            [("insert", (1, 2), 3.0), ("update", (4, 5), -1.0),
             ("delete", (0, 0), 9.9)],
            SHAPE,
        )
        assert batch.n_ops == 3
        assert batch.kinds.tolist() == [INSERT, UPDATE, DELETE]
        # Delete values are forced to zero regardless of what was passed.
        assert batch.values[2] == 0.0

    def test_unknown_op_name_rejected(self):
        with pytest.raises(ConfigError):
            DeltaBatch.from_ops([("upsert", (0, 0), 1.0)], SHAPE)

    def test_out_of_range_coordinate_rejected(self):
        with pytest.raises(ShapeError):
            DeltaBatch.from_ops([("insert", (8, 0), 1.0)], SHAPE)

    def test_unknown_kind_int_rejected(self):
        with pytest.raises(FormatError):
            DeltaBatch(np.array([7], dtype=np.int8),
                       np.array([[0], [0]]), np.array([1.0]), SHAPE)

    def test_inserts_and_deletes_constructors(self):
        ins = DeltaBatch.inserts(np.array([[0, 1], [2, 3]]), [1.0, 2.0], SHAPE)
        assert ins.kinds.tolist() == [INSERT, INSERT]
        dels = DeltaBatch.deletes(np.array([[0], [2]]), SHAPE)
        assert dels.kinds.tolist() == [DELETE]


class TestCanonicalize:
    def test_sorted_unique_row_major(self):
        batch = DeltaBatch.from_ops(
            [("insert", (5, 1), 1.0), ("insert", (0, 3), 2.0),
             ("insert", (5, 1), 4.0)],
            SHAPE,
        )
        canon = batch.canonicalize()
        lin = canon.linearized()
        assert np.all(np.diff(lin) > 0)  # sorted, unique
        assert canon.n_ops == 2

    def test_inserts_accumulate(self):
        batch = DeltaBatch.from_ops(
            [("insert", (2, 2), 1.5), ("insert", (2, 2), 2.5)], SHAPE
        )
        canon = batch.canonicalize()
        assert canon.kinds.tolist() == [INSERT]
        assert canon.values[0] == pytest.approx(4.0)

    def test_update_overrides_then_accumulates(self):
        batch = DeltaBatch.from_ops(
            [("insert", (2, 2), 100.0), ("update", (2, 2), 1.0),
             ("insert", (2, 2), 0.5)],
            SHAPE,
        )
        canon = batch.canonicalize()
        assert canon.kinds.tolist() == [UPDATE]
        assert canon.values[0] == pytest.approx(1.5)

    def test_trailing_delete_wins(self):
        batch = DeltaBatch.from_ops(
            [("insert", (1, 1), 5.0), ("update", (1, 1), 2.0),
             ("delete", (1, 1), 0.0)],
            SHAPE,
        )
        canon = batch.canonicalize()
        assert canon.kinds.tolist() == [DELETE]

    def test_delete_then_insert_becomes_update(self):
        # Delete clears the slot; later inserts set (not add to) it.
        batch = DeltaBatch.from_ops(
            [("delete", (1, 1), 0.0), ("insert", (1, 1), 3.0)], SHAPE
        )
        canon = batch.canonicalize()
        assert canon.kinds.tolist() == [UPDATE]
        assert canon.values[0] == pytest.approx(3.0)

    def test_idempotent(self):
        batch = DeltaBatch.from_ops(
            [("insert", (0, 0), 1.0), ("delete", (3, 3), 0.0),
             ("insert", (0, 0), 2.0)],
            SHAPE,
        )
        once = batch.canonicalize()
        twice = once.canonicalize()
        assert np.array_equal(once.kinds, twice.kinds)
        assert np.array_equal(once.coords, twice.coords)
        assert np.array_equal(once.values, twice.values)

    def test_canonical_equivalent_to_original_on_apply(self):
        rng = np.random.default_rng(3)
        tensor = random_coo(SHAPE, nnz=12, seed=5)
        ops = []
        for _ in range(40):
            kind = ("insert", "update", "delete")[int(rng.integers(0, 3))]
            coord = (int(rng.integers(0, 8)), int(rng.integers(0, 6)))
            ops.append((kind, coord, float(rng.normal())))
        batch = DeltaBatch.from_ops(ops, SHAPE)
        a = batch.apply(tensor)
        b = batch.canonicalize().apply(tensor)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.values, b.values)


class TestApply:
    def test_dense_semantics(self):
        tensor = COOTensor(
            np.array([[0, 1], [0, 1]]), np.array([1.0, 2.0]), SHAPE
        )
        batch = DeltaBatch.from_ops(
            [("insert", (0, 0), 0.5), ("update", (1, 1), 9.0),
             ("insert", (2, 2), 3.0), ("delete", (0, 0), 0.0)],
            SHAPE,
        )
        out = batch.apply(tensor)
        expected = np.zeros(SHAPE)
        expected[1, 1] = 9.0
        expected[2, 2] = 3.0
        np.testing.assert_array_equal(dense_of(out), expected)

    def test_result_is_canonical(self):
        tensor = random_coo(SHAPE, nnz=10, seed=1)
        batch = DeltaBatch.from_ops([("insert", (0, 0), 1.0)], SHAPE)
        out = batch.apply(tensor)
        lin = out.linearized()
        assert np.all(np.diff(lin) > 0)

    def test_update_zero_keeps_explicit_entry(self):
        tensor = COOTensor(np.array([[2], [2]]), np.array([5.0]), SHAPE)
        batch = DeltaBatch.from_ops([("update", (2, 2), 0.0)], SHAPE)
        out = batch.apply(tensor)
        assert out.nnz == 1 and out.values[0] == 0.0

    def test_delete_removes_entry(self):
        tensor = COOTensor(np.array([[2], [2]]), np.array([5.0]), SHAPE)
        out = DeltaBatch.from_ops([("delete", (2, 2), 0.0)], SHAPE).apply(tensor)
        assert out.nnz == 0

    def test_shape_mismatch_rejected(self):
        tensor = random_coo((4, 4), nnz=3, seed=0)
        batch = DeltaBatch.from_ops([("insert", (0, 0), 1.0)], SHAPE)
        with pytest.raises(ShapeError):
            batch.apply(tensor)
