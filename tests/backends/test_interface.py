"""Differential unit tests of every kernel op against the reference.

Each op runs on every detected backend and must agree with the
``numpy`` reference backend on the same inputs — elementwise ops
bit-identically, reductions to the documented ``rtol=1e-8`` (the
array-API backend reassociates segment sums; see ``docs/backends.md``).
"""

import numpy as np
import pytest

from repro.backends import KernelBackend, get_backend
from repro.errors import BackendError
from repro.util.arrays import INDEX_DTYPE, VALUE_DTYPE

REFERENCE = get_backend("numpy")

RNG = np.random.default_rng(0xFA57)


def _as_np(backend, arr):
    return np.asarray(backend.to_numpy(arr))


def test_gather_matches_fancy_index(backend):
    arr = RNG.uniform(-3, 3, size=40).astype(VALUE_DTYPE)
    idx = RNG.integers(0, 40, size=17).astype(INDEX_DTYPE)
    out = _as_np(backend, backend.gather(backend.asarray(arr), backend.asarray(idx)))
    np.testing.assert_array_equal(out, arr[idx])


def test_gather_empty(backend):
    arr = np.arange(5, dtype=VALUE_DTYPE)
    idx = np.empty(0, dtype=INDEX_DTYPE)
    out = _as_np(backend, backend.gather(backend.asarray(arr), backend.asarray(idx)))
    assert out.shape == (0,)


@pytest.mark.parametrize("n", [0, 1, 7, 200])
def test_scatter_accumulate_matches_add_at(backend, n):
    cells = 16
    positions = RNG.integers(0, cells, size=n).astype(INDEX_DTYPE)
    values = RNG.uniform(-2, 2, size=n).astype(VALUE_DTYPE)

    expected = np.zeros(cells, dtype=VALUE_DTYPE)
    np.add.at(expected, positions, values)

    buf = backend.zeros(cells, dtype=VALUE_DTYPE)
    backend.scatter_accumulate(
        buf, backend.asarray(positions), backend.asarray(values)
    )
    np.testing.assert_allclose(_as_np(backend, buf), expected, rtol=1e-8, atol=1e-12)


def test_scatter_accumulate_scalar_broadcast(backend):
    cells = 10
    positions = np.array([3, 3, 7, 0, 3], dtype=INDEX_DTYPE)
    buf = backend.zeros(cells, dtype=VALUE_DTYPE)
    backend.scatter_accumulate(buf, backend.asarray(positions), 1.0)
    expected = np.zeros(cells, dtype=VALUE_DTYPE)
    np.add.at(expected, positions, 1.0)
    np.testing.assert_allclose(_as_np(backend, buf), expected, rtol=1e-12)


def test_gemm_slices_matches_matmul_2d(backend):
    a = RNG.uniform(-1, 1, size=(9, 5)).astype(VALUE_DTYPE)
    b = RNG.uniform(-1, 1, size=(5, 11)).astype(VALUE_DTYPE)
    out = _as_np(backend, backend.gemm_slices(backend.asarray(a), backend.asarray(b)))
    np.testing.assert_allclose(out, a @ b, rtol=1e-10, atol=1e-12)


def test_gemm_slices_matches_matmul_batched(backend):
    a = RNG.uniform(-1, 1, size=(4, 6, 3)).astype(VALUE_DTYPE)
    b = RNG.uniform(-1, 1, size=(4, 3, 5)).astype(VALUE_DTYPE)
    out = _as_np(backend, backend.gemm_slices(backend.asarray(a), backend.asarray(b)))
    np.testing.assert_allclose(out, a @ b, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("n", [0, 1, 9, 300])
def test_hash_accumulate_matches_segment_sum(backend, n):
    keys = RNG.integers(0, 12, size=n).astype(INDEX_DTYPE)
    values = RNG.uniform(-2, 2, size=n).astype(VALUE_DTYPE)

    ref_keys, ref_sums = REFERENCE.hash_accumulate(keys, values)
    out_keys, out_sums = backend.hash_accumulate(
        backend.asarray(keys), backend.asarray(values)
    )
    np.testing.assert_array_equal(_as_np(backend, out_keys), ref_keys)
    np.testing.assert_allclose(
        _as_np(backend, out_sums), ref_sums, rtol=1e-8, atol=1e-12
    )


def test_hash_accumulate_unique_keys_sorted(backend):
    keys = np.array([9, 1, 9, 4, 1, 1], dtype=INDEX_DTYPE)
    values = np.ones(6, dtype=VALUE_DTYPE)
    out_keys, out_sums = backend.hash_accumulate(
        backend.asarray(keys), backend.asarray(values)
    )
    np.testing.assert_array_equal(_as_np(backend, out_keys), [1, 4, 9])
    np.testing.assert_allclose(_as_np(backend, out_sums), [3.0, 1.0, 2.0])


def test_dense_reduce_matches_sum(backend):
    arr = RNG.uniform(-5, 5, size=64).astype(VALUE_DTYPE)
    assert backend.dense_reduce(backend.asarray(arr)) == pytest.approx(
        float(arr.sum()), rel=1e-10
    )


def test_multiply_matches_elementwise(backend):
    a = RNG.uniform(-2, 2, size=33).astype(VALUE_DTYPE)
    b = RNG.uniform(-2, 2, size=33).astype(VALUE_DTYPE)
    out = _as_np(backend, backend.multiply(backend.asarray(a), backend.asarray(b)))
    np.testing.assert_array_equal(out, a * b)


def test_zeros_asarray_to_numpy_roundtrip(backend):
    buf = backend.zeros(6, dtype=VALUE_DTYPE)
    np.testing.assert_array_equal(
        _as_np(backend, buf), np.zeros(6, dtype=VALUE_DTYPE)
    )
    arr = np.array([1.5, -2.0, 0.0], dtype=VALUE_DTYPE)
    np.testing.assert_array_equal(_as_np(backend, backend.asarray(arr)), arr)


def test_require_available_raises_with_reason():
    class Unavailable(KernelBackend):
        name = "definitely-missing"

        @classmethod
        def detect(cls):
            return False, "the frobnicator is not installed"

    with pytest.raises(BackendError, match="frobnicator"):
        Unavailable().require_available()
