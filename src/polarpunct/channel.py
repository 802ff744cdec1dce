"""Channel models and transmit/receive rate matching.

BPSK over AWGN maps bit 0 -> +1, bit 1 -> -1 with noise variance
sigma^2 = 1 / (2 R 10**(EbN0_dB / 10)) and LLR 2y / sigma^2, where R is the
punctured rate (information bits over transmitted symbols, CRC overhead
excluded). The BEC produces LLR 0 on an erasure and +/- the saturation
value otherwise. Dropped coded symbols reappear at the receiver as LLR 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, default_rng

from .codec import LLR_SATURATION, check_length, frame_major, position_major
from .puncture import PuncturePattern

AWGN = "awgn"
BEC = "bec"
KINDS = (AWGN, BEC)

# transmit fills its output in blocks of this many elements, so its temporaries stay in cache.
_BLOCK = 2**14


@dataclass(frozen=True)
class ChannelConfig:
    """Channel kind plus its sweep parameter.

    ``param`` is Eb/N0 in dB for AWGN and the erasure probability for the
    BEC. ``rate_for_ebn0`` is the punctured code rate R = K/M used in the
    Eb/N0 to noise-variance conversion (ignored for the BEC).
    """

    kind: str
    param: float
    rate_for_ebn0: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.kind == BEC and not 0.0 <= self.param <= 1.0:
            raise ValueError(f"erasure probability must be in [0, 1], got {self.param}")
        if self.kind == AWGN:
            if not 0.0 < self.rate_for_ebn0 <= 1.0:
                raise ValueError(f"rate must be in (0, 1], got {self.rate_for_ebn0}")
            try:
                sigma2 = self.noise_variance()
            except ArithmeticError:  # 10**(param/10) overflows, or underflows to 0
                sigma2 = math.nan
            if not (math.isfinite(self.param) and 0.0 < sigma2 < math.inf):
                raise ValueError(f"Eb/N0 of {self.param} dB gives no finite positive "
                                 "noise variance")

    def noise_variance(self) -> float:
        if self.kind != AWGN:
            raise ValueError("noise variance is only defined for the AWGN channel")
        return 1.0 / (2.0 * self.rate_for_ebn0 * 10.0 ** (self.param / 10.0))


def puncture_tx(x, pattern: PuncturePattern) -> np.ndarray:
    """Drop the pattern's coded positions; survivors keep ascending order."""
    x = np.asarray(x)
    check_length(x, "codeword", pattern.size, "N")
    return x[..., pattern.kept_positions]


def transmit(bits, cfg: ChannelConfig, rng) -> np.ndarray:
    """Send bits through the channel, returning received LLRs.

    ``rng`` is a :class:`numpy.random.Generator` or an integer seed.

    The one float64 output is filled in C-order blocks of ``_BLOCK``
    elements: each block draws its own noise (AWGN) or erasure uniforms
    (BEC) into itself and turns them into LLRs in place, so the
    temporaries stay in cache. The draws take the stream in the same
    order as one draw of the whole shape, so the output is that of
    ``2 * (1 - 2 bits + sigma z) / sigma^2`` (AWGN) or
    ``where(uniform < p, 0, +/-saturation)`` (BEC) bit for bit.
    """
    if not isinstance(rng, Generator):
        rng = default_rng(rng)
    bits = np.asarray(bits).astype(np.uint8, copy=False)
    out = np.empty(bits.shape)
    flat_bits, flat_out = bits.reshape(-1), out.reshape(-1)
    if cfg.kind == AWGN:
        sigma2 = cfg.noise_variance()
        sigma = np.sqrt(sigma2)
    for i in range(0, flat_out.size, _BLOCK):
        b, y = flat_bits[i : i + _BLOCK], flat_out[i : i + _BLOCK]
        if cfg.kind == AWGN:
            rng.standard_normal(out=y)
            y *= sigma
            y += 1.0 - 2.0 * b
            y *= 2.0
            y /= sigma2
        else:
            erased = rng.random(out=y) < cfg.param
            y[:] = np.where(b == 0, LLR_SATURATION, -LLR_SATURATION)
            y[erased] = 0.0
    return out


def depuncture_rx(rx_llr, pattern: PuncturePattern) -> np.ndarray:
    """Insert LLR 0 at the pattern's coded positions, restoring length N.

    The result is filled through :func:`~polarpunct.codec.position_major`,
    one row per kept position, and returned through
    :func:`~polarpunct.codec.frame_major`, so a decoder reads it without a copy."""
    rx_llr = np.asarray(rx_llr, dtype=np.float64)
    check_length(rx_llr, "received", pattern.transmitted, "N - Q")
    v, batch_shape = position_major(rx_llr)
    out = np.zeros((pattern.size, v.shape[1]))
    out[pattern.kept_positions] = v
    return frame_major(out, batch_shape)
