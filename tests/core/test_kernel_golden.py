"""Golden digests pinning the tiled CO kernel's exact output bytes.

Every path in the library (direct, runtime, network, served, sharded,
streamed) promises results bit-identical to the plain NumPy reference
under the same plan.  That promise rests on the kernel emitting the same
``(l_idx, r_idx, values)`` triples in the same order: the same pair
order, the same per-cell summation order, the same ``apos`` drain order
and the same task order.  These blake2b digests were recorded from the
reference kernel and must not change when the kernel is optimized.

Cases are small seeded FROSTT-like and DLPNO-like inputs run under
forced ``dense`` and ``sparse`` plans, a small-tile sparse grid, tiny
``chunk_pairs`` runs (several ``update_batch`` calls per tile, on both
sides of the dense scatter's batch-size switch), and the canonical
``contract()`` output for three methods.

``python tests/core/test_kernel_golden.py`` prints the digests of the
current code; a mismatch in this test is a real behaviour change, not a
reason to paste new digests in.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.contraction import contract
from repro.core.model import choose_plan
from repro.core.plan import ContractionSpec
from repro.core.tiled_co import tiled_co_contract
from repro.data.frostt import generate_frostt
from repro.data.quantum import generate_dlpno_operands
from repro.machine.specs import DESKTOP


def _self_case(tensor, modes, **kw):
    def load():
        t = generate_frostt(tensor, seed=7, **kw)
        return t, t, [(m, m) for m in modes]

    return load


def _dlpno_case(molecule, contraction):
    return lambda: generate_dlpno_operands(molecule, contraction, seed=11)


CASES = {
    "chicago_0": _self_case("chicago", [0], scale=0.02),
    "chicago_123": _self_case("chicago", [1, 2, 3], scale=0.02),
    "nips_23": _self_case("nips", [2, 3], scale=0.05),
    "uber_02": _self_case("uber", [0, 2], scale=0.1),
    "vast_01": _self_case("vast", [0, 1], scale=0.02, nnz_target=3000),
    "G-ovov": _dlpno_case("guanine", "ovov"),
    "G-vvoo": _dlpno_case("guanine", "vvoo"),
    "C-ovov": _dlpno_case("caffeine", "ovov"),
}

#: (case, accumulator, tile_size or None for the model's, chunk_pairs or
#: None for the default) -> digest of the raw kernel triples.
RAW_DIGESTS = {
    ("chicago_0", "dense", None, None): "5f7445f8cc620de9f018fb15dd1ca022",
    ("chicago_0", "sparse", None, None): "577be69628c76ebe610424fade25e15f",
    ("chicago_0", "sparse", 256, None): "952127c4bc9d74e8392a92b30d439231",
    ("chicago_123", "dense", None, None): "07bf109c08b2e5a16359636231fdc63d",
    ("chicago_123", "sparse", None, None): "86eaf6fb1bfb584a9a3ba4913d283225",
    ("chicago_123", "sparse", 32, None): "6e5b84e4007fbb19eadacca38eba051f",
    ("nips_23", "dense", None, None): "0131cae5ef1756e6b0088f7b5b406789",
    ("nips_23", "sparse", None, None): "24d82ef63a7d64a054b1c6f861705b5e",
    ("nips_23", "sparse", 2048, None): "e8d6f7a569cd84d6698b8c9bc39f6b86",
    ("uber_02", "dense", None, None): "fe5c48fc03f677bf628d830c77fae794",
    ("uber_02", "sparse", None, None): "28cd38c20ab6101027d5c44c81b5fe94",
    ("uber_02", "sparse", 512, None): "d60ea3c1c0bd103c367d796fc237e0a5",
    ("vast_01", "dense", None, None): "986ade873dcd83d3f84f0256829ce57a",
    ("vast_01", "sparse", None, None): "a34a9fd07ca3c2c149016436c3efc94f",
    ("G-ovov", "dense", None, None): "e2b4647a5698ad4778b0e10d206076bf",
    ("G-ovov", "sparse", None, None): "67fba960400b5b37d19daef9c3a59512",
    ("G-ovov", "sparse", 128, None): "a68bce0b96bf63b925fa3c3661ab7154",
    ("G-vvoo", "dense", None, None): "49ef6023110163381172dcc3d680bbf3",
    ("G-vvoo", "sparse", None, None): "0ee64f290b637fbd5698f39ed6827d6b",
    ("G-vvoo", "sparse", 256, None): "56bf46548360be1dcacf2c7c2e580662",
    ("C-ovov", "dense", None, None): "627688a8aeedd530707a0dba1a2d2b5d",
    ("C-ovov", "sparse", None, None): "3d1a31bf2bcf6cbb31b2f49104bdb7b9",
    ("C-ovov", "sparse", 128, None): "305d7a16cacb7bbb60bd06ad1cb9535a",
    # Tiny chunks: many update_batch calls per tile.  Tile 16 has 256
    # cells, so 7-pair batches take the unbuffered scatter and 64-pair
    # batches the bincount pass of the reference dense scatter.
    ("C-ovov", "dense", 16, 7): "90f027c0fc5773bced4c10ba15698d15",
    ("C-ovov", "dense", 16, 64): "7c5cf95553dc6212a3dfc25c31465b45",
    ("C-ovov", "sparse", 16, 7): "9220d9b11a9a83ba34ee527441c4c03d",
    ("chicago_123", "dense", 16, 7): "ff52cebe60a4cc2cf959a3de742bff68",
    ("chicago_123", "dense", 16, 64): "bef7579b2fb0142ca63981f9bb6fd513",
    ("G-vvoo", "dense", 32, 100): "0e2b90074277357bca386464ae801e69",
}

#: (case, method) -> digest of the canonical contract() output.
CONTRACT_DIGESTS = {
    ("chicago_123", "fastcc"): "84fac8b09cc3d6f3ef8fcbcd985d5456",
    ("chicago_123", "sparta"): "2ea20c83748ca2d0cfc2a0f1f53bf7d6",
    ("chicago_123", "co"): "84fac8b09cc3d6f3ef8fcbcd985d5456",
    ("uber_02", "fastcc"): "cfe8bd7ad4b235f4ed4ab493d6aecbfc",
    ("uber_02", "sparta"): "6b2d816f169441139d8a25748c2d99dc",
    ("uber_02", "co"): "cfe8bd7ad4b235f4ed4ab493d6aecbfc",
    ("G-ovov", "fastcc"): "40b3b15da01e1d89e0292cfb82ee9a29",
    ("G-ovov", "sparta"): "156d0b67dc7ceeb69522d4834a956aff",
    ("G-ovov", "co"): "40b3b15da01e1d89e0292cfb82ee9a29",
    ("G-vvoo", "fastcc"): "239a7e62b213734f77644de4686cae13",
    ("G-vvoo", "sparta"): "8ef0c551ba7478f1af36703aaf1b8da9",
    ("G-vvoo", "co"): "239a7e62b213734f77644de4686cae13",
}


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


_LOADED: dict = {}


def _operands(case):
    if case not in _LOADED:
        left, right, pairs = CASES[case]()
        spec = ContractionSpec(left.shape, right.shape, pairs)
        _LOADED[case] = (
            left, right, pairs, spec,
            spec.linearize_left(left).sum_duplicates(),
            spec.linearize_right(right).sum_duplicates(),
        )
    return _LOADED[case]


def raw_digest(case, accumulator, tile_size, chunk_pairs) -> str:
    _, _, _, spec, left_op, right_op = _operands(case)
    plan = choose_plan(
        spec, left_op.nnz, right_op.nnz, DESKTOP,
        accumulator=accumulator, tile_size=tile_size,
    )
    kw = {} if chunk_pairs is None else {"chunk_pairs": chunk_pairs}
    l_idx, r_idx, values, _ = tiled_co_contract(
        left_op, right_op, plan, backend="numpy", **kw
    )
    return _digest(l_idx, r_idx, values)


def contract_digest(case, method) -> str:
    left, right, pairs, _, _, _ = _operands(case)
    out = contract(left, right, pairs, method=method, backend="numpy")
    return _digest(np.asarray(out.shape), out.coords, out.values)


@pytest.mark.parametrize("key", sorted(RAW_DIGESTS, key=str), ids=str)
def test_raw_kernel_triples_are_pinned(key):
    assert raw_digest(*key) == RAW_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(CONTRACT_DIGESTS), ids=str)
def test_canonical_contract_output_is_pinned(key):
    assert contract_digest(*key) == CONTRACT_DIGESTS[key]


if __name__ == "__main__":
    for key in RAW_DIGESTS:
        print(f"    {key!r}: {raw_digest(*key)!r},")
    print()
    for key in CONTRACT_DIGESTS:
        print(f"    {key!r}: {contract_digest(*key)!r},")
