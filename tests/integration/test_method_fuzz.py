"""Differential fuzzing across every contraction method and the
serving layer.

Hypothesis generates random self-contraction problems (random tensor,
random contracted-mode subset) and all applicable methods must agree
with the dense ground truth — the widest net for cross-kernel
divergence bugs.  The serve mode pushes the same problems through a
live ContractionService (every admission policy, degradation on and
off) and requires the served results *bit-identical* to the direct
path that produced the same plan.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import COOTensor, contract
from repro.errors import PlanError
from repro.machine.specs import DESKTOP
from repro.serve import (
    ContractionService,
    Request,
    ServiceConfig,
    ShardedConfig,
    ShardRouter,
)
from repro.tensors.dense import dense_contract

ALL_METHODS = ["fastcc", "sparta", "sparta_improved", "taco", "taco_mm", "ci", "cm", "co"]


@st.composite
def self_contraction_problems(draw):
    ndim = draw(st.integers(2, 4))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(ndim))
    cells = int(np.prod(shape))
    nnz = draw(st.integers(0, min(18, cells)))
    coords = np.array(
        [[draw(st.integers(0, e - 1)) for _ in range(nnz)] for e in shape],
        dtype=np.int64,
    ).reshape(ndim, nnz)
    values = np.array(
        [draw(st.floats(-6, 6, allow_nan=False)) for _ in range(nnz)]
    )
    tensor = COOTensor(coords, values, shape)
    n_contracted = draw(st.integers(1, ndim - 1))
    modes = draw(
        st.permutations(range(ndim)).map(lambda p: sorted(p[:n_contracted]))
    )
    return tensor, [(m, m) for m in modes]


@settings(max_examples=10, deadline=None)
@given(problem=self_contraction_problems())
def test_serve_differential_bitwise(problem):
    """Served results must be bit-identical to the direct call that
    runs the same plan: the service adds scheduling, not arithmetic.

    Non-degraded requests compare against plain ``contract()``; forced
    cheap-path degradation compares against
    ``contract(accumulator="sparse")`` (a different plan changes float
    accumulation order, so each served path gets the reference that
    shares its plan parameters).
    """
    tensor, pairs = problem
    expected_full = contract(tensor, tensor, pairs)
    expected_sparse = contract(tensor, tensor, pairs, accumulator="sparse")
    for policy in ("reject", "shed_oldest", "block"):
        for force_degraded in (False, True):
            config = ServiceConfig(
                queue_capacity=8, policy=policy, n_workers=1,
                force_degraded=force_degraded,
            )
            with ContractionService(machine=DESKTOP, config=config) as svc:
                response = svc.call(
                    Request.pairwise(tensor, tensor, pairs), timeout=60.0
                )
            assert response.ok, (policy, force_degraded, response.detail)
            expected = expected_sparse if force_degraded else expected_full
            if force_degraded:
                assert response.degrade_rung == "cheap-path"
            np.testing.assert_array_equal(
                response.result.coords, expected.coords,
                err_msg=f"policy={policy}, degraded={force_degraded}",
            )
            np.testing.assert_array_equal(
                response.result.values, expected.values,
                err_msg=f"policy={policy}, degraded={force_degraded}",
            )


@pytest.fixture(scope="module")
def sharded_router():
    """One 2-shard router shared by the whole fuzz module (spawning
    processes per example would dominate the run)."""
    config = ShardedConfig(
        n_shards=2,
        service=ServiceConfig(queue_capacity=8, policy="block", n_workers=1),
    )
    with ShardRouter(machine=DESKTOP, config=config) as router:
        yield router


@settings(max_examples=5, deadline=None)
@given(problem=self_contraction_problems())
def test_sharded_serve_differential_bitwise(sharded_router, problem):
    """Process sharding must not change a single bit either: the shard
    worker runs the same runtime the direct call does, and results only
    cross the IPC boundary by pickling."""
    tensor, pairs = problem
    expected = contract(tensor, tensor, pairs)
    response = sharded_router.call(
        Request.pairwise(tensor, tensor, pairs), timeout=60.0
    )
    assert response.ok, response.detail
    np.testing.assert_array_equal(response.result.coords, expected.coords)
    np.testing.assert_array_equal(response.result.values, expected.values)


@settings(max_examples=30, deadline=None)
@given(problem=self_contraction_problems())
def test_every_method_matches_dense(problem):
    tensor, pairs = problem
    expected = dense_contract(tensor, tensor, pairs)
    for method in ALL_METHODS:
        try:
            out = contract(tensor, tensor, pairs, method=method)
        except PlanError:
            # taco_mm rejects contractions with no external modes.
            assert method == "taco_mm"
            continue
        np.testing.assert_allclose(
            out.to_dense(), expected, rtol=1e-8, atol=1e-10,
            err_msg=f"method={method}, pairs={pairs}, shape={tensor.shape}",
        )


@st.composite
def network_problems(draw):
    """Random chain networks exercising every pass annotation.

    Half the draws duplicate the chain into twin branches (CSE fires,
    including digest-guard rejections when contents differ), and
    operands are occasionally emptied (dead-step elimination fires).
    """
    n = draw(st.integers(3, 6))
    ops = []
    for k in range(3):
        nnz = draw(st.integers(0, 2 * n))
        coords = np.array(
            [[draw(st.integers(0, n - 1)) for _ in range(nnz)]
             for _ in range(2)],
            dtype=np.int64,
        ).reshape(2, nnz)
        values = np.array(
            [draw(st.floats(-4, 4, allow_nan=False)) for _ in range(nnz)]
        )
        ops.append(COOTensor(coords, values, (n, n)))
    if draw(st.booleans()):
        # twin branches; share or fork the second branch's operands
        share = draw(st.booleans())
        branch = ops[:2] if share else [ops[1], ops[2]]
        return "ij,jk,lm,mn->il", [ops[0], ops[1], *branch]
    return "ab,bc,cd->ad", ops


@settings(max_examples=25, deadline=None)
@given(problem=network_problems())
def test_pass_pipeline_differential_bitwise(problem):
    """Optimized plans must be bit-identical to unoptimized ones on
    every detected backend: passes only skip work the runtime guards
    prove redundant, never change arithmetic."""
    from repro.backends import backend_status
    from repro.network import NetworkExecutor

    subscripts, operands = problem
    backends = [
        name for name, (ok, _) in sorted(backend_status().items()) if ok
    ]
    for backend in backends:
        base = NetworkExecutor(machine=DESKTOP, passes=False)
        opt = NetworkExecutor(machine=DESKTOP)
        ref = base.contract(subscripts, *operands, backend=backend)
        out = opt.contract(subscripts, *operands, backend=backend)
        np.testing.assert_array_equal(
            ref.to_dense(), out.to_dense(),
            err_msg=f"backend={backend}, subscripts={subscripts}",
        )
