"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.plan import LinearizedOperand
from repro.errors import ConfigWarning
from repro.data.random_tensors import random_coo, random_operand_pair


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_tensor():
    """A 3-mode tensor small enough to densify in every test."""
    return random_coo((9, 7, 11), nnz=60, seed=42)


@pytest.fixture
def operand_pair():
    """A matched pair of linearized operands with moderate density."""
    return random_operand_pair(40, 30, 35, density_l=0.08, density_r=0.1, seed=3)


def make_pair(L=40, C=30, R=35, dl=0.08, dr=0.1, seed=0):
    return random_operand_pair(L, C, R, density_l=dl, density_r=dr, seed=seed)


def operand_to_dense(op: LinearizedOperand, transpose: bool = False) -> np.ndarray:
    """Materialize a linearized operand as a dense (ext, con) matrix."""
    mat = np.zeros((op.ext_extent, op.con_extent))
    np.add.at(mat, (op.ext, op.con), op.values)
    return mat.T if transpose else mat


def reference_product(left: LinearizedOperand, right: LinearizedOperand) -> np.ndarray:
    """Dense ground truth of the linearized contraction L @ R^T-ish form."""
    lm = operand_to_dense(left)            # (L, C)
    rm = operand_to_dense(right)           # (R, C)
    return lm @ rm.T                       # (L, R)


def triples_to_dense(l_idx, r_idx, values, L, R) -> np.ndarray:
    out = np.zeros((L, R))
    np.add.at(out, (np.asarray(l_idx), np.asarray(r_idx)), np.asarray(values))
    return out


def config_warning_codes(build) -> list[str]:
    """The ``FSTC`` codes of the :class:`ConfigWarning`s ``build()`` emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build()
    return [
        str(w.message).split(":")[0]
        for w in caught if issubclass(w.category, ConfigWarning)
    ]
