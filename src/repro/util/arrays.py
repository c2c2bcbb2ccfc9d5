"""Small array and integer helpers used throughout the library."""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError, ShapeError

__all__ = [
    "INDEX_DTYPE",
    "VALUE_DTYPE",
    "as_index_array",
    "as_value_array",
    "ceil_div",
    "next_power_of_two",
    "prev_power_of_two",
]

#: Canonical index dtype for all coordinate / linearized-index arrays.
INDEX_DTYPE = np.int64

#: Canonical value dtype (the paper uses double precision throughout).
VALUE_DTYPE = np.float64


def as_index_array(data, *, copy: bool = False) -> np.ndarray:
    """Coerce ``data`` to a contiguous 1-D or 2-D ``int64`` array.

    Raises :class:`ShapeError` when the input cannot be represented as
    integers without loss (e.g. non-integral floats).
    """
    arr = np.asarray(data)
    if arr.dtype.kind == "f":
        rounded = np.rint(arr)
        if not np.array_equal(rounded, arr):
            raise ShapeError("index array contains non-integral values")
        arr = rounded
    if arr.dtype.kind not in "iu":
        try:
            arr = arr.astype(INDEX_DTYPE)
        except (TypeError, ValueError) as exc:  # pragma: no cover - defensive
            raise ShapeError(f"cannot interpret {arr.dtype} as indices") from exc
    out = np.ascontiguousarray(arr, dtype=INDEX_DTYPE)
    if copy and out is arr:
        out = out.copy()
    return out


def as_value_array(data, *, copy: bool = False) -> np.ndarray:
    """Coerce ``data`` to a contiguous 1-D ``float64`` array.

    Complex values are refused: casting them would drop the imaginary
    part, and the kernels accumulate in ``float64`` only.
    """
    if np.iscomplexobj(data):
        raise FormatError("complex values are not supported; the kernels "
                          "accumulate in float64")
    arr = np.ascontiguousarray(data, dtype=VALUE_DTYPE)
    if copy and arr is data:
        arr = arr.copy()
    return arr


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division; ``b`` must be positive."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    return -(-a // b)


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= ``n`` (and >= 1)."""
    if n <= 1:
        return 1
    return 1 << (int(n) - 1).bit_length()


def prev_power_of_two(n: int) -> int:
    """Largest power of two <= ``n``; requires ``n >= 1``."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 1 << (int(n).bit_length() - 1)
