"""Bit-index algebra: bit reversal, popcounts and the covering order.

All functions take the index width ``n`` explicitly; an index is valid for
width ``n`` when it lies in ``[0, 2**n)``, and width 0 is the N = 1 code.
Bit 1 of an expansion is the most significant bit, bit ``n`` the least
significant. Array functions take ``n`` shift-and-mask steps over the given
indices and build no ``2**n`` table, so every admitted width is cheap.

This module is the one reader of index sets: :func:`index_set` reads a flat set
once into an ascending int64 array, and a bad entry or shape raises ``ValueError``.
"""

from __future__ import annotations

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


def is_integer(value) -> bool:
    """True for an ``int`` or a numpy integer, never for a bool (which numpy reads as 0 or 1)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_index(i, n: int) -> np.ndarray:
    """``i`` (an int or integer array) as int64, each entry checked against width ``n``."""
    check_width(n)
    idx = i
    if not (isinstance(i, np.ndarray) and i.dtype.kind in "iu"):
        # Entries are read in their own types, so no float or bool passes as a whole number:
        # one entry of each type is tested, and the first bad one is sought only on failure.
        objects = np.asarray(i, dtype=object)
        entries = objects.ravel()
        if not all(map(is_integer, dict(zip(map(type, entries), entries)).values())):
            bad = next(v for v in entries if not is_integer(v))
            raise ValueError(f"index must be an integer, got {bad!r}")
        try:
            idx = objects.astype(np.int64)  # exact, never through float64
        except OverflowError:  # an entry beyond int64: find the first out of range as an int
            idx = entries
    outside = (idx < 0) | (idx >= 1 << n)
    if outside.any():
        raise ValueError(f"index {idx[outside].flat[0]} out of range [0, {1 << n}) for width {n}")
    return idx.astype(np.int64)


def index_set(values, n: int) -> np.ndarray:
    """The distinct entries of ``values``, a flat integer array or iterable, ascending as int64;
    ``ValueError`` names a bad entry (see :func:`check_index`) or a non-flat ``values``."""
    try:
        entries = values if isinstance(values, np.ndarray) else list(values)
    except TypeError:
        entries = None
    idx = None if entries is None else check_index(entries, n)
    if idx is None or idx.ndim != 1:
        raise ValueError(f"indices must be a flat sequence of integers, got {values!r}")
    idx = np.sort(idx)
    return idx[np.diff(idx, prepend=-1) != 0]  # a neighbour compare; -1 precedes every index


def bit_reverse(i, n: int):
    """Reverse the ``n``-bit expansion of ``i``. Self-inverse.

    ``i`` is an int, giving an int, or an integer array, giving an int64
    array of the same shape.
    """
    idx = check_index(i, n)
    r = np.zeros_like(idx)
    for b in range(n):
        r |= ((idx >> b) & 1) << (n - 1 - b)
    return r if r.ndim else int(r)


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
