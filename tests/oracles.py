"""Independent reference implementations used as test oracles.

Everything here is written from first principles (explicit matrices,
integer long division, exhaustive enumeration) and stays independent of
the library code paths it checks.
"""

import itertools
import math
from functools import reduce

import numpy as np
from scipy.optimize import brentq
from scipy.special import erfc

from polarpunct.channel import AWGN
from polarpunct.codec import (
    LLR_SATURATION,
    _boxplus,
    _g,
    _softplus,
    crc_append,
    extract_payload,
    place_payload,
    sc_decode,
    scl_decode,
)
from polarpunct.construct import CRC_POLYNOMIALS, _ln_phi
from polarpunct.sim import _channel_llrs


def bit_reverse_str(i: int, n: int) -> int:
    """Reverse the ``n``-bit expansion of ``i`` by reversing its binary string."""
    return int(format(i, f"0{n}b")[::-1], 2)


def generator_matrix(n: int) -> np.ndarray:
    """Bit-reversal permutation times the n-fold Kronecker power of [[1,0],[1,1]]."""
    F = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    Fn = reduce(np.kron, [F] * n) if n else np.array([[1]], dtype=np.uint8)
    N = 1 << n
    B = np.zeros((N, N), dtype=np.uint8)
    for i in range(N):
        B[i, bit_reverse_str(i, n)] = 1
    return (B @ Fn) % 2


def propagate_reference(indices, n: int) -> list[dict[int, int]]:
    """Independent one-index-at-a-time recursion of the degradation process.

    Tracks each source separately but decides each level from the joint
    occupancy, which is the defining property of the process. Returns the
    position of every source after each of the ``n`` levels: ``n + 1``
    dicts, the first mapping each source to itself and the last to its
    destination.
    """
    levels = [{s: s for s in indices}]
    for k in range(1, n + 1):
        bit = 1 << (n - k)
        pos = levels[-1]
        occupied = set(pos.values())
        levels.append({s: (p if (p ^ bit) in occupied else p & ~bit) for s, p in pos.items()})
    return levels


def zero_capacity_channels(coded_set, n: int) -> set[int]:
    """Bit channels left with zero information when ``coded_set`` is not sent.

    Bit channel ``i`` sees ``u_0..u_{i-1}`` as known and ``u_{i+1}..u_{N-1}``
    as uniform. It carries nothing exactly when row ``i`` of the generator,
    restricted to the transmitted columns, lies in the GF(2) span of rows
    ``i+1..N-1`` restricted the same way: a flip of ``u_i`` is then absorbed
    by the later bits without changing what is sent. Rows are reduced from
    the last one up against an echelon basis keyed by leading column.
    """
    N = 1 << n
    dropped = set(coded_set)
    rows = generator_matrix(n)[:, [c for c in range(N) if c not in dropped]]
    basis: dict[int, np.ndarray] = {}
    zero = set()
    for i in reversed(range(N)):
        r = rows[i].copy()
        for col in range(r.size):
            if r[col] and col in basis:
                r ^= basis[col]
        nonzero = np.flatnonzero(r)
        if nonzero.size == 0:
            zero.add(i)
        else:
            basis[int(nonzero[0])] = r
    return zero


def butterfly_zero_set(coded_set, n: int) -> set[int]:
    """Bit channels with an exactly zero SC decision LLR when ``coded_set`` is dropped.

    One boolean pass of the SC tree on "this LLR is zero", with generic
    nonzero LLRs everywhere else. The dropped coded positions are marked
    and the mask is bit-reversed into decoder order (the decoder reads
    channel LLR ``c`` at position ``rev(c)``). A check-node (f) child is
    zero when either half is, a variable-node (g) child only when both
    are. The marked leaves, in order, are the zero-LLR bit channels.
    """
    N = 1 << n
    mask = np.zeros(N, dtype=bool)
    for c in set(coded_set):
        mask[bit_reverse_str(c, n)] = True
    leaves: list[bool] = []

    def visit(zero: np.ndarray) -> None:
        if zero.size == 1:
            leaves.append(bool(zero[0]))
            return
        upper, lower = np.split(zero, 2)
        visit(upper | lower)
        visit(upper & lower)

    visit(mask)
    return {i for i, z in enumerate(leaves) if z}


def crc_remainder_intdiv(bits, width: int, poly: int) -> list[int]:
    """Plain polynomial long division on a big integer, MSB first."""
    val = 0
    for b in bits:
        val = (val << 1) | int(b)
    val <<= width
    gen = (1 << width) | poly
    top = val.bit_length()
    for shift in range(top - width - 1, -1, -1):
        if val >> (shift + width) & 1:
            val ^= gen << shift
    return [(val >> (width - 1 - k)) & 1 for k in range(width)]


def transmit_reference(bits, cfg, rng) -> np.ndarray:
    """Received LLRs by the one-shot formulas: one draw of the whole shape's
    noise, 2 (1 - 2 bits + sigma z) / sigma^2 on the AWGN channel, or of its
    erasure uniforms, 0 where uniform < p and +/- the saturation value
    elsewhere, on the BEC. ``rng`` is a Generator or an integer seed."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    bits = np.asarray(bits).astype(np.uint8)
    if cfg.kind == AWGN:
        sigma2 = cfg.noise_variance()
        symbols = 1.0 - 2.0 * bits
        y = symbols + np.sqrt(sigma2) * rng.standard_normal(bits.shape)
        return 2.0 * y / sigma2
    erased = rng.random(bits.shape) < cfg.param
    llr = np.where(bits == 0, LLR_SATURATION, -LLR_SATURATION)
    return np.where(erased, 0.0, llr)


def run_batch_reference(components, cfg, channel_cfg, point_index, batch_index, frames):
    """Per-frame information-bit error counts of one seeded batch sent through
    the chain whole: one ``_channel_llrs`` call and one decoder call for all its
    frames. The block-streaming ``sim._run_batch`` must give the same record."""
    _, spec, pattern, crc = components
    rng = np.random.default_rng([cfg.master_seed, point_index, batch_index])
    info = rng.integers(0, 2, size=(frames, cfg.k), dtype=np.uint8)
    payload = crc_append(info, crc) if crc else info
    llr = _channel_llrs(payload, spec, pattern, channel_cfg, rng)
    u = sc_decode(llr, spec) if cfg.decoder == "sc" else scl_decode(llr, spec, cfg.list_size)
    return (extract_payload(u, spec)[:, : cfg.k] != info).sum(axis=1)


def phi_inv_ln_brentq(ln_y: float) -> float:
    """Inverse of the GA transfer function given log(y), by scipy's ``brentq``
    on the bracket [0, first power of two where ln phi <= ln y]."""
    if ln_y >= 0.0:
        return 0.0
    hi = 1.0
    for _ in range(80):
        if _ln_phi(hi) <= ln_y:
            break
        hi *= 2.0
    else:
        raise OverflowError(f"failed to bracket phi inverse for ln_y={ln_y}")
    return brentq(lambda x: _ln_phi(x) - ln_y, 0.0, hi, rtol=1e-9)


def ga_brentq_reference(n: int, snr: float,
                        phi_inv_ln=phi_inv_ln_brentq) -> tuple[np.ndarray, np.ndarray]:
    """GA bit-channel means and error probabilities Q(sqrt(m/2)) at design
    Es/N0 ``snr`` dB, one scalar ``phi_inv_ln`` call per channel (scipy's
    ``brentq`` unless given) and scipy's ``erfc``; only the transfer function
    ``_ln_phi`` is the library's."""
    sigma2 = 1.0 / (2.0 * 10.0 ** (snr / 10.0))
    means = np.array([2.0 / sigma2])
    for _ in range(n):
        lps = [_ln_phi(float(m)) for m in means]
        upper = [phi_inv_ln(lp + math.log(2.0 - math.exp(lp))) for lp in lps]
        means = np.column_stack([upper, 2.0 * means]).ravel()
    return means, 0.5 * erfc(np.sqrt(means) / 2.0)


def symbol_probs_from_llr(llr):
    p0 = 1.0 / (1.0 + np.exp(-llr))
    return p0, 1.0 - p0


def sequential_bit_map_oracle(llr, n: int) -> np.ndarray:
    """Per-bit MAP with the decoder's own prior decisions, by enumerating
    every input vector and summing codeword likelihoods (rate-1 code).
    Likelihood ties decide 0."""
    N = 1 << n
    G = generator_matrix(n)
    p0, p1 = symbol_probs_from_llr(np.asarray(llr, dtype=float))
    us = np.array(list(itertools.product([0, 1], repeat=N)), dtype=np.uint8)
    xs = us @ G % 2
    like = np.where(xs == 1, p1, p0).prod(axis=1)
    decided = np.zeros(N, dtype=np.uint8)
    alive = np.ones(len(us), dtype=bool)
    for i in range(N):
        m0 = alive & (us[:, i] == 0)
        m1 = alive & (us[:, i] == 1)
        b = 0 if like[m0].sum() >= like[m1].sum() else 1
        decided[i] = b
        alive &= us[:, i] == b
    return decided


def ml_codeword_oracle(llr, spec, crc=0) -> np.ndarray:
    """Exhaustive maximum likelihood over every payload, CRC-valid for width
    ``crc`` when it is not 0."""
    G = generator_matrix(spec.n)
    p0, p1 = symbol_probs_from_llr(np.asarray(llr, dtype=float))
    best_like, best_u = -1.0, None
    for msg in itertools.product([0, 1], repeat=spec.k):
        payload = np.array(msg, dtype=np.uint8)
        if crc:
            payload = crc_append(payload, crc)
        u = place_payload(payload, spec)
        x = u @ G % 2
        like = float(np.where(x == 1, p1, p0).prod())
        if like > best_like:
            best_like, best_u = like, u
    return best_u


def _decoder_inputs(llr, spec):
    """Channel LLRs as (B, N) in decoder (bit-reversed) order, and the frozen mask."""
    n, N = spec.n, spec.size
    perm = np.array([bit_reverse_str(i, n) for i in range(N)], dtype=np.intp)
    w = np.asarray(llr, dtype=np.float64).reshape(-1, N)[:, perm]
    frozen = np.ones(N, dtype=bool)
    frozen[list(spec.info_set)] = False
    return w, frozen


def sc_full_reference(llr, spec, return_decision_llrs=False):
    """SC decoding over all 2N - 1 nodes of the tree, Rate-0 subtrees included.

    This is the library's SC decoder as it was before it skipped Rate-0
    subtrees. It shares only the node kernels f and g with the library, so
    that every LLR it computes is the same float; bit reversal and the
    frozen mask are its own.
    """
    llr = np.asarray(llr, dtype=np.float64)
    batch_shape = llr.shape[:-1]
    w, frozen = _decoder_inputs(llr, spec)
    B, N = w.shape

    u_hat = np.zeros((B, N), dtype=np.uint8)
    dec_llr = np.zeros((B, N))

    def rec(node_llr: np.ndarray, lo: int) -> np.ndarray:
        m = node_llr.shape[1]
        if m == 1:
            dec_llr[:, lo] = node_llr[:, 0]
            if frozen[lo]:
                return np.zeros((B, 1), dtype=np.uint8)
            u = (node_llr[:, 0] < 0).astype(np.uint8)
            u_hat[:, lo] = u
            return u[:, None]
        half = m // 2
        a, b = node_llr[:, :half], node_llr[:, half:]
        x_left = rec(_boxplus(a, b), lo)
        x_right = rec(_g(a, b, x_left), lo + half)
        return np.concatenate([x_left ^ x_right, x_right], axis=1)

    rec(w, 0)
    u_hat = u_hat.reshape(batch_shape + (N,))
    if return_decision_llrs:
        return u_hat, dec_llr.reshape(batch_shape + (N,))
    return u_hat


class _EagerListState:
    """Batched list-decoder state: arrays indexed (frame, path, position).

    Per-depth LLR and partial-sum buffers hold the single active segment of
    each depth, so a path permutation has to reorder every buffer. Locals
    never survive across a leaf: everything is re-read from the registry,
    which keeps views valid after the fancy-indexed path gathers.
    """

    def __init__(self, w: np.ndarray, L: int, frozen: np.ndarray):
        B, N = w.shape
        self.B, self.L, self.N = B, L, N
        self.n = N.bit_length() - 1
        self.p = [np.repeat(w[:, None, :], L, axis=1)]
        self.c = [np.zeros((B, L, N), dtype=np.uint8)]
        for d in range(1, self.n + 1):
            self.p.append(np.zeros((B, L, N >> d)))
            self.c.append(np.zeros((B, L, N >> d), dtype=np.uint8))
        self.frozen = frozen
        self.pm = np.full((B, L), np.inf)
        self.pm[:, 0] = 0.0
        self.u = np.zeros((B, L, N), dtype=np.uint8)
        self._bidx = np.arange(B)[:, None]

    def run(self) -> None:
        self._rec(0, 0)

    def _rec(self, d: int, lo: int) -> None:
        if d == self.n:
            self._leaf(lo)
            return
        half = (self.N >> d) // 2
        self.p[d + 1][...] = _boxplus(self.p[d][..., :half], self.p[d][..., half:])
        self._rec(d + 1, lo)
        self.c[d][..., :half] = self.c[d + 1]
        self.p[d + 1][...] = _g(self.p[d][..., :half], self.p[d][..., half:],
                                self.c[d][..., :half])
        self._rec(d + 1, lo + half)
        self.c[d][..., half:] = self.c[d + 1]
        self.c[d][..., :half] ^= self.c[d][..., half:]

    def _leaf(self, lo: int) -> None:
        llr = self.p[self.n][..., 0]
        if self.frozen[lo]:
            self.pm = self.pm + _softplus(-llr)
            self.c[self.n][..., 0] = 0
            return
        hard = llr < 0
        mag = np.abs(llr)
        cand = np.concatenate([self.pm + _softplus(-mag), self.pm + _softplus(mag)], axis=1)
        order = np.argsort(cand, axis=1, kind="stable")[:, : self.L]
        src = order % self.L
        flip = (order >= self.L).astype(np.uint8)
        self._permute(src)
        dec = np.take_along_axis(hard, src, axis=1).astype(np.uint8) ^ flip
        self.pm = np.take_along_axis(cand, order, axis=1)
        self.u[..., lo] = dec
        self.c[self.n][..., 0] = dec

    def _permute(self, src: np.ndarray) -> None:
        # p[0] holds identical channel LLRs on every path; skip it.
        for d in range(1, self.n + 1):
            self.p[d] = self.p[d][self._bidx, src]
        for d in range(self.n + 1):
            self.c[d] = self.c[d][self._bidx, src]
        self.u = self.u[self._bidx, src]


def scl_eager_reference(llr, spec, L, crc=0) -> np.ndarray:
    """CRC-aided SCL with eager path copies: every buffer is gathered at
    every information leaf and the decisions ``u`` are carried per path.

    This is the library's list decoder as it was before its path
    bookkeeping became lazy. It shares only the node kernels (f, g and the
    softplus metric update) with the library, so that path-metric ties
    resolve on identical floats; bit reversal, the frozen mask, payload
    extraction and the CRC check are its own.
    """
    N = spec.size
    llr = np.asarray(llr, dtype=np.float64)
    batch_shape = llr.shape[:-1]
    w, frozen = _decoder_inputs(llr, spec)
    B = w.shape[0]
    state = _EagerListState(w, L, frozen)
    state.run()
    order = np.argsort(state.pm, axis=1, kind="stable")
    best = order[:, 0].copy()
    if crc:
        info = sorted(spec.info_set)
        for b in range(B):
            for j in order[b]:
                if not any(crc_remainder_intdiv(state.u[b, j, info], crc, CRC_POLYNOMIALS[crc])):
                    best[b] = j
                    break
    return state.u[np.arange(B), best].reshape(batch_shape + (N,))
