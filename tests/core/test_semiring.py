"""Unit and property tests for semiring contractions."""

import numpy as np
import pytest

from repro.core.semiring import (
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    OR_AND,
    PLUS_TIMES,
    Semiring,
    semiring_contract,
)
from repro.data.random_tensors import random_coo
from repro.tensors.coo import COOTensor


def brute_force(left: COOTensor, right: COOTensor, semiring):
    """Reference: dict-based semiring product over stored nonzeros."""
    out: dict[tuple[int, int], float] = {}
    for (i, k), lv in left:
        for (k2, j), rv in right:
            if k != k2:
                continue
            prod = float(semiring.multiply(np.array([lv]), np.array([rv]))[0])
            key = (i, j)
            if key in out:
                out[key] = float(
                    semiring.add(np.array([out[key]]), np.array([prod]))[0]
                )
            else:
                out[key] = prod
    return out


@pytest.mark.parametrize(
    "semiring", [PLUS_TIMES, MIN_PLUS, MAX_PLUS, MAX_TIMES, OR_AND]
)
def test_matches_brute_force(semiring):
    left = random_coo((8, 10), nnz=30, seed=1)
    right = random_coo((10, 7), nnz=25, seed=2)
    out = semiring_contract(left, right, [(1, 0)], semiring=semiring)
    expected = brute_force(left, right, semiring)
    got = {
        (int(out.coords[0, e]), int(out.coords[1, e])): out.values[e]
        for e in range(out.nnz)
    }
    assert got == pytest.approx(expected)


def test_plus_times_matches_contract():
    from repro import contract

    left = random_coo((9, 11, 6), nnz=40, seed=3)
    right = random_coo((6, 11, 8), nnz=35, seed=4)
    pairs = [(2, 0), (1, 1)]
    a = semiring_contract(left, right, pairs, semiring=PLUS_TIMES)
    b = contract(left, right, pairs)
    assert a.allclose(b)


def test_min_plus_shortest_paths():
    """(min, +) squared adjacency = all shortest 2-hop path lengths."""
    #   0 -1-> 1 -2-> 2,  0 -5-> 2 direct is NOT an edge here; also
    #   0 -4-> 3 -1-> 2: min(1+2, 4+1) = 3.
    edges = [(0, 1, 1.0), (1, 2, 2.0), (0, 3, 4.0), (3, 2, 1.0)]
    coords = np.array([[e[0] for e in edges], [e[1] for e in edges]])
    vals = np.array([e[2] for e in edges])
    g = COOTensor(coords, vals, (4, 4))
    two_hop = semiring_contract(g, g, [(1, 0)], semiring=MIN_PLUS)
    d = {
        (int(two_hop.coords[0, e]), int(two_hop.coords[1, e])): two_hop.values[e]
        for e in range(two_hop.nnz)
    }
    assert d[(0, 2)] == 3.0  # min over the two 2-hop routes

def test_or_and_reachability():
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]
    coords = np.array([[e[0] for e in edges], [e[1] for e in edges]])
    g = COOTensor(coords, np.ones(3), (3, 3))
    two_hop = semiring_contract(g, g, [(1, 0)], semiring=OR_AND)
    reach = {
        (int(two_hop.coords[0, e]), int(two_hop.coords[1, e]))
        for e in range(two_hop.nnz)
        if two_hop.values[e] != 0.0
    }
    assert reach == {(0, 2), (1, 0), (2, 1)}


def test_named_semirings():
    left = random_coo((5, 5), nnz=10, seed=5)
    out = semiring_contract(left, left, [(1, 0)], semiring="max_plus")
    ref = semiring_contract(left, left, [(1, 0)], semiring=MAX_PLUS)
    assert out.allclose(ref) or np.array_equal(out.values, ref.values)


def test_unknown_name():
    left = random_coo((3, 3), nnz=3, seed=6)
    with pytest.raises(ValueError):
        semiring_contract(left, left, [(1, 0)], semiring="tropical-deluxe")


def test_duplicate_inputs_add_combined():
    # (min,+): duplicate edges keep the lighter one.
    g = COOTensor([[0, 0], [1, 1]], [5.0, 2.0], (2, 2))
    h = COOTensor([[1], [0]], [1.0], (2, 2))
    out = semiring_contract(g, h, [(1, 0)], semiring=MIN_PLUS)
    assert out.values[0] == 3.0  # min(5,2) + 1


def test_empty_inputs():
    g = COOTensor.empty((4, 4))
    out = semiring_contract(g, g, [(1, 0)], semiring=MIN_PLUS)
    assert out.nnz == 0


def test_one_hash_query_per_left_key():
    from repro.analysis.counters import Counters

    a = random_coo((30, 30), nnz=100, seed=1)
    c = Counters()
    semiring_contract(a, a, [(1, 0)], semiring=MIN_PLUS, counters=c)
    assert c.hash_queries == np.unique(a.coords[1]).shape[0]


def test_custom_semiring():
    # (+, min): a legitimate exotic combination.
    custom = Semiring("plus_min", np.add, np.minimum, 0.0)
    left = random_coo((6, 6), nnz=12, seed=7)
    right = random_coo((6, 6), nnz=12, seed=8)
    out = semiring_contract(left, right, [(1, 0)], semiring=custom)
    expected = brute_force(left, right, custom)
    got = {
        (int(out.coords[0, e]), int(out.coords[1, e])): out.values[e]
        for e in range(out.nnz)
    }
    assert got == pytest.approx(expected)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    ring=st.sampled_from([PLUS_TIMES, MIN_PLUS, MAX_PLUS, MAX_TIMES]),
)
def test_semiring_matches_brute_force_property(data, ring):
    """Property: the vectorized semiring kernel equals the dict-based
    brute force on random matrices, for every built-in semiring."""
    L = data.draw(st.integers(1, 6))
    C = data.draw(st.integers(1, 6))
    R = data.draw(st.integers(1, 6))
    nnz_l = data.draw(st.integers(0, min(10, L * C)))
    nnz_r = data.draw(st.integers(0, min(10, C * R)))

    def tensor(rows, cols, nnz, seed_pool):
        coords = np.array(
            [[data.draw(st.integers(0, rows - 1)) for _ in range(nnz)],
             [data.draw(st.integers(0, cols - 1)) for _ in range(nnz)]],
            dtype=np.int64,
        ).reshape(2, nnz)
        vals = np.array(
            [data.draw(st.floats(-4, 4, allow_nan=False)) for _ in range(nnz)]
        )
        return COOTensor(coords, vals, (rows, cols)).sum_duplicates()

    left = tensor(L, C, nnz_l, 0)
    right = tensor(C, R, nnz_r, 1)
    out = semiring_contract(left, right, [(1, 0)], semiring=ring)
    expected = brute_force(left, right, ring)
    got = {
        (int(out.coords[0, e]), int(out.coords[1, e])): out.values[e]
        for e in range(out.nnz)
    }
    assert got == pytest.approx(expected)
