"""Bit-index algebra: bit reversal, popcounts and the covering order.

All functions take the index width ``n`` explicitly; an index is valid for
width ``n`` when it lies in ``[0, 2**n)``, and width 0 is the N = 1 code.
Bit 1 of an expansion is the most significant bit, bit ``n`` the least
significant. Array functions take ``n`` shift-and-mask steps over the given
indices and build no ``2**n`` table, so every admitted width is cheap.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

import numpy as np

MIN_WIDTH = 0
MAX_WIDTH = 32


def check_width(n: int) -> None:
    if type(n) is not int or not MIN_WIDTH <= n <= MAX_WIDTH:
        raise ValueError(f"width must be an integer in [{MIN_WIDTH}, {MAX_WIDTH}], got {n!r}")


def check_ints(**counts) -> None:
    """``ValueError`` naming the first of ``counts`` whose type is not exactly ``int``."""
    for name, value in counts.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _is_integer_type(kind: type) -> bool:
    return issubclass(kind, (int, np.integer)) and kind is not bool


def integer_list(values: Iterable) -> list:
    """``values`` as a list; ``TypeError`` names the first that is not an integer.

    A bool is not one, though ``operator.index`` and numpy read it as 0 or 1. The
    entries' types are checked, and the entries themselves only when one fails.
    """
    values = list(values)
    if not all(map(_is_integer_type, set(map(type, values)))):
        bad = next(v for v in values if not _is_integer_type(type(v)))
        raise TypeError(f"index must be an integer, got {bad!r}")
    return values


def check_index(i, n: int) -> np.ndarray:
    """``i`` (an int or integer array) as int64, each entry checked against width ``n``."""
    check_width(n)
    idx = np.asarray(i)
    if idx.dtype.kind not in "iu" or not isinstance(i, np.ndarray):
        # Entries are read in their own types, so no float or bool passes as a whole number.
        try:
            integer_list(np.asarray(i, dtype=object).ravel())
        except TypeError as exc:
            raise ValueError(str(exc)) from None
    outside = (idx < 0) | (idx >= 1 << n)
    if outside.any():
        raise ValueError(f"index {idx[outside].flat[0]} out of range [0, {1 << n}) for width {n}")
    return idx.astype(np.int64)


def bit_reverse(i, n: int):
    """Reverse the ``n``-bit expansion of ``i``. Self-inverse.

    ``i`` is an int, giving an int, or an integer array, giving an int64
    array of the same shape.
    """
    idx = check_index(i, n)
    r = np.zeros_like(idx)
    for b in range(n):
        r |= ((idx >> b) & 1) << (n - 1 - b)
    return r if np.ndim(i) else int(r)


@lru_cache(maxsize=32)
def bit_reversal_permutation(n: int) -> np.ndarray:
    """Index table of the n-bit reversal; read-only, as the cache shares it."""
    check_width(n)
    perm = bit_reverse(np.arange(1 << n), n)
    perm.setflags(write=False)
    return perm


def popcount(i, n: int) -> np.ndarray:
    """Number of set bits of each ``n``-bit index in the integer array ``i``."""
    idx = check_index(i, n)
    pop = np.zeros_like(idx)
    for b in range(n):
        pop += (idx >> b) & 1
    return pop


def covers(i: int, j: int, n: int) -> bool:
    """True iff every bit of ``j``'s expansion is <= the matching bit of ``i``'s.

    This is the covering relation ``j`` below ``i``: reflexive, transitive,
    antisymmetric. A covered bit channel is stochastically degraded with
    respect to the covering one.
    """
    check_index(i, n)
    check_index(j, n)
    return (j & ~i) == 0
