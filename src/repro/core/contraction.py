"""Public contraction API: COO in, COO out.

``contract`` runs the full FaSTCC pipeline of the paper: linearize the
mode groups (Section 2.1 preprocessing), choose an execution plan with
the probabilistic model (Section 5), run the 2-D tiled CO kernel
(Section 4), and delinearize the output (postprocessing).  Alternative
``method`` values dispatch to the baselines and reference schemes so
that every comparison in the evaluation is a one-argument change.

Example
-------
>>> import numpy as np
>>> from repro import COOTensor, contract
>>> a = COOTensor([[0, 1], [1, 0]], [2.0, 3.0], (2, 2))
>>> out = contract(a, a, pairs=[(1, 0)])  # matrix product a @ a
>>> out.to_dense()
array([[6., 0.],
       [0., 6.]])
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.analysis.counters import Counters, ensure_counters
from repro.backends.base import KernelBackend
from repro.backends.registry import choose_backend_for_densities, resolve_backend
from repro.core.model import choose_plan
from repro.core.plan import ContractionSpec, Plan
from repro.core.tiled_co import ContractionStats, tiled_co_contract
from repro.errors import ConfigError, PlanError
from repro.machine.specs import DESKTOP, MachineSpec
from repro.tensors.coo import COOTensor

__all__ = ["contract", "self_contract"]

_METHODS = (
    "fastcc", "sparta", "sparta_improved", "taco", "taco_mm", "ci", "cm", "co"
)


def contract(
    left: COOTensor,
    right: COOTensor,
    pairs: Sequence[tuple[int, int]],
    *,
    method: str = "fastcc",
    machine: MachineSpec = DESKTOP,
    accumulator: str = "auto",
    tile_size: int | None = None,
    plan: Plan | None = None,
    n_workers: int = 1,
    counters: Counters | None = None,
    return_stats: bool = False,
    canonical: bool = True,
    backend: "str | KernelBackend | None" = None,
):
    """Contract two sparse COO tensors.

    Parameters
    ----------
    left, right:
        Input tensors (duplicate coordinates are combined internally).
    pairs:
        ``(left_mode, right_mode)`` contraction pairs.  The output's
        modes are the remaining left modes in order, then the remaining
        right modes in order.
    method:
        ``"fastcc"`` (the paper's kernel), ``"sparta"`` (CM scheme on
        chaining tables, Algorithm 8), ``"taco"`` (sequential CI on CSF),
        or the untiled reference schemes ``"ci"``/``"cm"``/``"co"``.
    machine:
        Platform model feeding the tile-size/accumulator selection.
    accumulator:
        ``"auto"`` follows Algorithm 7; ``"dense"``/``"sparse"`` force a
        tile kind (FaSTCC only).
    tile_size:
        Overrides the model's tile size (FaSTCC only).
    plan:
        A precomputed :class:`~repro.core.plan.Plan` (e.g. from a
        :class:`~repro.runtime.PlanCache`); skips Algorithm 7 entirely.
        Its index-space extents must match this contraction's spec.
        Mutually exclusive with ``accumulator``/``tile_size`` overrides.
    n_workers:
        Worker threads for the tile-pair task queue (FaSTCC only).
        Instrumented runs (``counters`` given) should use 1 for exact
        counts.
    counters:
        Optional :class:`~repro.analysis.counters.Counters` tally.
    return_stats:
        When true, returns ``(tensor, stats)`` where ``stats`` is a
        :class:`~repro.core.tiled_co.ContractionStats` including the
        plan, phase timings and per-task costs.
    canonical:
        Sort and deduplicate the output (deterministic ordering).  The
        raw kernels already emit unique coordinates; this only reorders.
    backend:
        Kernel backend for the FaSTCC path: a registered name
        (``"numpy"``/``"scipy"``/``"arrayapi"``), ``"auto"`` (pick per
        problem from operand densities), a
        :class:`~repro.backends.KernelBackend` instance, or ``None``
        (``$REPRO_BACKEND``, defaulting to the bit-exact ``numpy``
        reference).  Non-reference backends may reassociate float
        accumulation; see ``docs/backends.md`` for the tolerance policy.

    Returns
    -------
    COOTensor, or ``(COOTensor, ContractionStats)`` with ``return_stats``.
    """
    if method not in _METHODS:
        raise ConfigError(f"method must be one of {_METHODS}, got {method!r}")
    counters = ensure_counters(counters)
    spec = ContractionSpec(left.shape, right.shape, pairs)

    if method == "taco_mm":
        # The multi-mode CSF baseline consumes the original tensors; it
        # has no linearize/delinearize phases by construction.
        from repro.baselines.taco_multimode import taco_multimode_contract

        t0 = time.perf_counter()
        out = taco_multimode_contract(left, right, pairs, counters=counters)
        stats = ContractionStats(plan=None, counters=counters)
        stats.phase_seconds["contract"] = time.perf_counter() - t0
        if canonical:
            out = out.sum_duplicates()
        stats.output_nnz = out.nnz
        return (out, stats) if return_stats else out

    t0 = time.perf_counter()
    left_op = spec.linearize_left(left).sum_duplicates()
    right_op = spec.linearize_right(right).sum_duplicates()
    linearize_seconds = time.perf_counter() - t0

    if plan is not None:
        if accumulator != "auto" or tile_size is not None:
            raise ConfigError(
                "a precomputed plan is mutually exclusive with "
                "accumulator/tile_size overrides"
            )
        if (plan.spec.L, plan.spec.R, plan.spec.C) != (spec.L, spec.R, spec.C):
            raise PlanError(
                f"plan was made for (L={plan.spec.L}, R={plan.spec.R}, "
                f"C={plan.spec.C}) but this contraction has (L={spec.L}, "
                f"R={spec.R}, C={spec.C})"
            )
    else:
        plan = choose_plan(
            spec,
            left_op.nnz,
            right_op.nnz,
            machine,
            accumulator=accumulator,
            tile_size=tile_size,
        )

    if method == "fastcc":
        if backend == "auto":
            backend = choose_backend_for_densities(
                left_op.density, right_op.density
            )
        l_idx, r_idx, values, stats = tiled_co_contract(
            left_op, right_op, plan, n_workers=n_workers, counters=counters,
            backend=resolve_backend(backend),
        )
    else:
        l_idx, r_idx, values, stats = _run_baseline(
            method, left_op, right_op, plan, counters
        )

    t0 = time.perf_counter()
    if canonical:
        _, out = spec.canonical_output(l_idx, r_idx, values)
    else:
        out = spec.delinearize_output(l_idx, r_idx, values)
    stats.phase_seconds["linearize"] = linearize_seconds
    stats.phase_seconds["delinearize"] = time.perf_counter() - t0
    stats.output_nnz = out.nnz
    if return_stats:
        return out, stats
    return out


def _run_baseline(method, left_op, right_op, plan: Plan, counters: Counters):
    """Dispatch to the baseline/reference kernels (imported lazily to
    keep ``repro.core`` import-light and cycle-free)."""
    t0 = time.perf_counter()
    if method == "sparta":
        from repro.baselines.sparta import sparta_contract

        l_idx, r_idx, values = sparta_contract(left_op, right_op, counters=counters)
    elif method == "sparta_improved":
        from repro.baselines.sparta_improved import sparta_improved_contract

        l_idx, r_idx, values = sparta_improved_contract(
            left_op, right_op, counters=counters
        )
    elif method == "taco":
        from repro.baselines.taco import taco_contract

        l_idx, r_idx, values = taco_contract(left_op, right_op, counters=counters)
    else:
        from repro.baselines.schemes import contract_untiled

        l_idx, r_idx, values = contract_untiled(
            method, left_op, right_op, counters=counters
        )
    stats = ContractionStats(plan=plan, counters=counters)
    stats.phase_seconds["contract"] = time.perf_counter() - t0
    return l_idx, r_idx, values, stats


def self_contract(tensor: COOTensor, modes: Sequence[int], **kwargs):
    """Contract a tensor with itself over ``modes``.

    This is the paper's FROSTT benchmark form (Section 6.1): e.g.
    ``self_contract(chicago, [1, 2, 3])`` is the "Chicago 123"
    experiment.  Keyword arguments are forwarded to :func:`contract`.
    """
    return contract(tensor, tensor, [(int(m), int(m)) for m in modes], **kwargs)
