"""Puncture pattern generation and diagnostics.

Two pattern families plus explicit (custom) coded positions, each built by
its name in :data:`SCHEMES` through :func:`make_pattern`:

* QUP (quasi-uniform puncturing): source set {0, ..., Q-1}, coded symbols
  at its bit-reversed image. Channel independent.
* WQP (worst-quality puncturing): source set = the Q least reliable frozen
  bit channels. Requires Q <= |F|; the propagated destination set is then
  guaranteed to stay inside the frozen set, so no information bit channel
  is ever punctured.

Diagnostics report the punctured information channels, the union bound of
the block error probability (punctured information channels counted at
error probability 1/2, everything else at its unpunctured value) and the
quality loss: for each punctured coded bit, 1/2 minus the unpunctured error
probability of the destination channel its source propagates to.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bitops import bit_reverse, check_width, index_set, is_integer
from .construct import PolarCodeSpec, ReliabilityProfile
from .degrade import PropagationMap, propagate

QUP = "qup"
WQP = "wqp"
CUSTOM = "custom"
SCHEMES = (QUP, WQP, CUSTOM)


class UnsupportedConfiguration(ValueError):
    """Raised for configurations the pattern guarantees do not extend to."""


@dataclass(frozen=True)
class PuncturePattern(PropagationMap):
    """A puncture choice: the propagation map of its source set plus a scheme name.

    ``coded_set`` is the bit-reversed image of ``sources`` (the coded-symbol
    positions not transmitted), built each time it is read. ``kept_positions``,
    the transmitted coded positions in ascending order, is built once, as rate
    matching reads it per batch; it takes no part in repr, equality or hashing.
    """

    scheme: str

    @property
    def q(self) -> int:
        return len(self.sources)

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def transmitted(self) -> int:
        return self.size - self.q

    @property
    def coded_set(self) -> tuple[int, ...]:
        return tuple(np.sort(bit_reverse(np.array(self.sources, dtype=np.int64), self.n)).tolist())

    @cached_property
    def kept_positions(self) -> np.ndarray:
        keep = np.ones(self.size, dtype=bool)
        keep[bit_reverse(np.array(self.sources, dtype=np.int64), self.n)] = False
        kept = np.flatnonzero(keep)
        kept.setflags(write=False)
        return kept

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "n": self.n,
            "q": self.q,
            "source_set": list(self.sources),
            "coded_set": list(self.coded_set),
            "destination_set": list(self.destination_set),
            "pairs": [{"source": s, "destination": d} for s, d in zip(self.sources, self.targets)],
        }


@dataclass(frozen=True)
class PatternReport:
    """Diagnostics of a pattern against a code spec and reliability profile."""

    scheme: str
    q: int
    punctured_info_channels: tuple[int, ...]
    union_bound: float
    quality_loss: float
    per_bit_loss: tuple[float, ...]
    n: int
    info_set: tuple[int, ...]
    profile_method: str
    profile_params: tuple[tuple[str, float], ...]

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "q": self.q,
            "punctured_info_channels": list(self.punctured_info_channels),
            "union_bound": self.union_bound,
            "quality_loss": self.quality_loss,
            "per_bit_loss": list(self.per_bit_loss),
        }


@dataclass(frozen=True)
class PatternComparison:
    """Quality-loss and union-bound deltas between two reports (first minus second)."""

    quality_loss_delta: float
    union_bound_delta: float


def _pattern_from_source(source: Iterable[int], n: int, scheme: str) -> PuncturePattern:
    prop = propagate(source, n)
    return PuncturePattern(n=n, sources=prop.sources, targets=prop.targets, scheme=scheme)


def _puncture_count(q) -> int:
    if not is_integer(q):
        raise ValueError(f"puncture count q must be an integer, got {q!r}")
    return int(q)


def qup_pattern(n: int, q: int) -> PuncturePattern:
    """Quasi-uniform pattern: source {0, ..., q-1}, coded symbols bit-reversed."""
    check_width(n)
    q = _puncture_count(q)
    N = 1 << n
    if not 0 < q < N:
        raise ValueError(f"puncture count must be in (0, {N}), got {q}")
    return _pattern_from_source(np.arange(q), n, QUP)


def wqp_pattern(spec: PolarCodeSpec, profile: ReliabilityProfile, q: int) -> PuncturePattern:
    """Worst-quality pattern: the q least reliable frozen bit channels.

    The frozen set is taken in the order of
    :meth:`ReliabilityProfile.worst_first`: ascending quality metric
    (Bhattacharyya parameter descending for the BEC, LLR mean or
    polarization weight ascending otherwise), ties to the lower popcount
    first and then to the lower index. The first q entries become the
    source set. Raises :class:`UnsupportedConfiguration` for q > |F|, where
    the no-punctured-information-channel guarantee no longer holds.
    """
    if spec.n != profile.n:
        raise ValueError("spec and profile widths differ")
    q = _puncture_count(q)
    if q <= 0:
        raise ValueError(f"puncture count must be positive, got {q}")
    frozen = spec.size - len(spec.info_set)
    if q > frozen:
        raise UnsupportedConfiguration(
            f"q={q} exceeds the frozen-set size {frozen}; "
            "puncturing beyond N - (k + crc_bits) is not supported")
    order = profile.worst_first()
    return _pattern_from_source(order[spec.frozen_mask[order]][:q], spec.n, WQP)


def custom_pattern(coded_positions: Iterable[int], n: int) -> PuncturePattern:
    """Pattern from explicit coded-symbol positions (what a radio drops).

    The positions are read once by :func:`polarpunct.bitops.index_set`, which drops
    duplicates and raises ``ValueError`` naming a bad input, and bit-reversed into the
    bit-channel domain. An empty position set yields the trivial q = 0 pattern.
    """
    source = bit_reverse(index_set(coded_positions, n), n)
    if source.size >= 1 << n:
        raise ValueError("cannot puncture every coded symbol")
    return _pattern_from_source(source, n, CUSTOM)


def make_pattern(scheme: str, n: int, q: int, spec: PolarCodeSpec | None = None,
                 profile: ReliabilityProfile | None = None,
                 coded_positions: Iterable[int] | None = None) -> PuncturePattern:
    """The pattern of a :data:`SCHEMES` name; WQP needs ``spec`` and ``profile``,
    custom needs ``q`` distinct ``coded_positions``."""
    if scheme == QUP:
        return qup_pattern(n, q)
    if scheme == WQP:
        if spec is None or profile is None:
            raise ValueError("wqp needs a code spec and a reliability profile")
        return wqp_pattern(spec, profile, q)
    if scheme == CUSTOM:
        if coded_positions is None:
            raise ValueError("custom scheme needs coded positions")
        pattern = custom_pattern(coded_positions, n)
        if pattern.q != _puncture_count(q):
            raise ValueError(f"q={q} differs from the {pattern.q} distinct custom coded positions")
        return pattern
    raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def analyze_pattern(pattern: PuncturePattern, spec: PolarCodeSpec,
                    profile: ReliabilityProfile) -> PatternReport:
    """Union bound and quality loss of a pattern under a fixed information set.

    Punctured information channels are counted at error probability 1/2 in
    the union bound; all other information channels keep their unpunctured
    error probability. The per-bit quality loss of puncturing the coded bit
    paired with source i is 1/2 minus the unpunctured error probability of
    the destination channel i propagates to.
    """
    if pattern.n != spec.n or spec.n != profile.n:
        raise ValueError("pattern, spec and profile widths differ")
    if profile.error_prob is None:
        raise UnsupportedConfiguration(
            f"{profile.method} profiles carry no error probability; "
            "quality-loss reporting needs a probability-bearing construction")
    pb = profile.error_prob
    info = spec.info_positions
    dest = np.array(pattern.targets, dtype=np.intp)
    blank = np.zeros(spec.size, dtype=bool)
    blank[dest] = True
    blank_info = blank[info]
    hit = tuple(info[blank_info].tolist())

    per_bit = tuple((0.5 - pb[dest]).tolist())
    union = float(np.where(blank_info, 0.5, pb[info]).sum())
    return PatternReport(
        scheme=pattern.scheme, q=pattern.q,
        punctured_info_channels=hit,
        union_bound=union,
        quality_loss=float(sum(per_bit)),
        per_bit_loss=per_bit,
        n=spec.n, info_set=spec.info_set, profile_method=profile.method,
        profile_params=tuple(sorted(profile.params.items())),
    )


def compare_patterns(a: PatternReport, b: PatternReport) -> PatternComparison:
    """Deltas (first minus second); negative means the first pattern is better."""
    key = operator.attrgetter("n", "info_set", "profile_method", "profile_params")
    if key(a) != key(b):
        raise ValueError("reports come from different specs or profiles")
    return PatternComparison(
        quality_loss_delta=a.quality_loss - b.quality_loss,
        union_bound_delta=a.union_bound - b.union_bound,
    )
