"""Recursive degradation process on bit-channel index sets.

The process carries a set of bit-channel indices through ``n`` levels. At
level ``k`` the indices that differ only at bit ``k`` of their binary
expansions (bit 1 = MSB) form a pair, and the basic mapping is applied to
each pair:

* exactly one member occupied: it moves to the member whose bit ``k`` is 0,
* both members occupied: each maps to itself.

The resulting source-to-destination map is a bijection, and every
destination is covered by its source (see :func:`polarpunct.bitops.covers`).
The same mapping describes puncture propagation: when the coded symbols at
the bit-reversed image of a source set are not transmitted, the destination
set is exactly the set of bit channels that end up carrying zero
information (zero LLR at the decoder).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .bitops import bit_reverse, index_set


@dataclass(frozen=True)
class PropagationMap:
    """Source-to-destination bijection produced by the degradation process.

    ``sources`` lists the sources in ascending order and ``targets`` their
    destinations, aligned pairwise. ``pairs``, ``destination_set`` and ``levels``
    are built each time they are read; ``levels[k][j]`` is the position of the
    j-th source after ``k`` levels, found by walking the levels again.
    """

    n: int
    sources: tuple[int, ...]
    targets: tuple[int, ...]

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Each source with its destination, by ascending source."""
        return tuple(zip(self.sources, self.targets))

    @property
    def destination_set(self) -> tuple[int, ...]:
        """The destinations in ascending order."""
        return tuple(sorted(self.targets))

    @property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(position.tolist()) for position in _walk(self.sources, self.n))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "pairs": [{"source": s, "destination": d} for s, d in zip(self.sources, self.targets)],
            "levels": [position.tolist() for position in _walk(self.sources, self.n)],
        }


def _walk(sources, n: int) -> Iterator[np.ndarray]:
    """Positions of the ascending int64 ``sources`` before the first level and after each.

    Each level is one array step: a position keeps its place when its pair
    partner is occupied and clears bit ``k`` otherwise. Occupancy is found
    by binary search in the sorted positions, so no buffer of ``2**n``
    entries is needed at any admitted width.
    """
    position = np.asarray(sources, dtype=np.int64)
    yield position
    for k in range(1, n + 1):
        bit = 1 << (n - k)
        occupied = np.sort(position)
        partner = position ^ bit
        paired = occupied.take(np.searchsorted(occupied, partner), mode="clip") == partner
        position = np.where(paired, position, position & ~bit)
        yield position


def propagate(indices: Iterable[int], n: int) -> PropagationMap:
    """Run the degradation process on a level-0 index set of width ``n``.

    ``indices`` is read once by :func:`polarpunct.bitops.index_set`, which raises ``ValueError``
    on bad input; only the sources and their destinations are kept (see :func:`_walk`).
    """
    sources = index_set(indices, n)
    for position in _walk(sources, n):
        pass
    return PropagationMap(n=n, sources=tuple(sources.tolist()), targets=tuple(position.tolist()))


def punctured_bit_channels(coded_positions: Iterable[int], n: int) -> frozenset[int]:
    """Bit channels punctured when the given coded-symbol positions are dropped.

    Convenience wrapper: reads the coded positions once as for :func:`propagate`,
    bit-reverses them into the source domain, then propagates.
    """
    return frozenset(propagate(bit_reverse(index_set(coded_positions, n), n), n).targets)
