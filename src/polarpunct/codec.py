"""Polar codec: encoder, CRC helpers, SC decoding and CRC-aided SCL decoding.

Conventions (fixed so results are bit-exact reproducible):

* The generator is the bit-reversal permutation (from
  :mod:`polarpunct.bitops`) composed with the n-fold Kronecker power of
  [[1, 0], [1, 1]]; encoding is an involution.
* Bit channel i of the natural input index i matches the reliability
  profiles from :mod:`polarpunct.construct`.
* Frozen bits are all-zero. A decision LLR of exactly 0 decodes to 0, so a
  punctured information channel errs with probability 1/2 on uniform data.
* CRC: MSB-first long division, initial register 0, no reflection, no
  final XOR; CRC bits are appended after the information bits and the
  payload occupies the information set in ascending index order.
  ``crc_remainder``, ``crc_append`` and ``crc_check`` work over the last
  axis, so one call serves a message or a batch of any shape; all three
  multiply by one cached GF(2) remainder matrix per message length and
  width, in float64 so that the product goes through BLAS; it is exact, as
  every sum is an integer below 2**53. A width is a key of
  :data:`polarpunct.construct.CRC_POLYNOMIALS`.
* The check-node combine is the exact log-domain boxplus. The spec alone
  describes the code: SCL selects by the CRC that ``spec.crc_bits`` names.
* SCL path metrics are exact: a path extension by decision u on decision
  LLR L adds log(1 + exp(-(1 - 2u) L)), so with a full list the best
  final metric is the maximum-likelihood path.
* Neither decoder stores a decision. Each subtree returns its partial
  sums, and the decoded ``u`` (every final path's, for SCL) is the
  butterfly of the root's partial sums.
* SCL is SC's depth-first recursion with a path axis. Each subtree also
  returns its path permutation (``None`` when it holds no information
  leaf). A buffer misses exactly the permutations of the subtree decoded
  between its write and its one later read, so it is gathered at most
  once, by those alone, and an information leaf reorders no buffer.
* Batched data is position-major: the encoder and both decoders index
  their buffers (position, frame[, path]), so the two halves of a tree
  node, ``x[:half]`` and ``x[half:]``, are each one contiguous block and
  every node step is one vector operation over all frames. Inputs and
  outputs keep the caller's (..., N) shape.
* The decoders read the caller's LLRs in place, as a position-major
  ``(N, B)`` view in coded order (no copy for ``depuncture_rx``'s output),
  and make no copy of them in decoding-tree (bit-reversed) order. Every
  node step, the root's included, is one call of ``_step``: it reads a
  node's halves ``x[:half]`` and ``x[half:]``, or at the root the coded
  rows ``perm[i]`` and ``perm[i] + 1`` of tree rows ``i`` and ``N/2 + i``
  (``perm`` the n-bit reversal, ``i < N/2``). When an operand holds more
  than ``_BLOCK`` elements it runs in leading-axis row blocks, gathering
  each block's halves alone, so its temporaries stay in cache. Blocking is
  bit-identical: every ufunc in the kernels is elementwise, and numpy's
  SIMD exp and log1p do not depend on where an element sits in the array.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache

import numpy as np

from .bitops import bit_reversal_permutation, check_ints
from .construct import CRC_POLYNOMIALS, PolarCodeSpec

LLR_SATURATION = 40.0

# Node kernels split an operand of more than this many elements into row blocks.
_BLOCK = 2**14


# --------------------------------------------------------------------------- CRC

@lru_cache(maxsize=32)
def _crc_matrix(length: int, width: int) -> np.ndarray:
    """Row i: x**(length - 1 - i + width) mod g, MSB first, in float64; read-only, as cached.

    Register recurrence: the last row is x**width mod g, each row above it
    the row below shifted once and reduced by g.
    """
    if width not in CRC_POLYNOMIALS:
        raise ValueError(f"no CRC polynomial registered for width {width}")
    poly = CRC_POLYNOMIALS[width]
    top = 1 << (width - 1)
    reg = poly
    rows = np.empty(length, dtype=np.int64)
    for i in range(length - 1, -1, -1):
        rows[i] = reg
        reg = ((reg << 1) ^ (poly if reg & top else 0)) & (2 * top - 1)
    m = ((rows[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.float64)
    m.setflags(write=False)
    return m


def crc_remainder(bits, width: int) -> np.ndarray:
    """Remainder of polynomial long division over the last axis, MSB first, init 0."""
    check_ints(width=width)  # before the cache, whose keys 8.0 and True would match 8 and 1
    bits = np.asarray(bits).astype(np.uint8)
    return (bits @ _crc_matrix(bits.shape[-1], width) % 2).astype(np.uint8)


def crc_append(bits, width: int) -> np.ndarray:
    """Append the CRC remainder over the last axis; ``crc_check`` passes on the result."""
    bits = np.asarray(bits).astype(np.uint8)
    if bits.ndim == 0 or bits.shape[-1] < 1:
        raise ValueError("need at least one information bit")
    return np.concatenate([bits, crc_remainder(bits, width)], axis=-1)


def crc_check(bits, width: int):
    """True where the last axis ends in the CRC of the rest: a bool, or one per batch entry."""
    ok = ~crc_remainder(bits, width).any(axis=-1)
    return ok if np.ndim(ok) else bool(ok)


# --------------------------------------------------------------------------- encoder

def _check_block(x: np.ndarray) -> int:
    """log2 of the last axis of ``x``; ``ValueError`` naming the shape unless a power of two."""
    N = x.shape[-1] if x.ndim else 0
    if N < 1 or N & (N - 1):
        got = N if x.ndim else "undefined"
        raise ValueError(f"block length must be a power of two, got {got} (shape {x.shape})")
    return N.bit_length() - 1


def _butterfly(x: np.ndarray) -> np.ndarray:
    """The GF(2) butterfly over axis 0 of a C-contiguous position-major
    ``(N, ...)`` array, in place; returns ``x``. An involution."""
    N = len(x)
    m = 2
    while m <= N:
        v = x.reshape((N // m, m) + x.shape[1:])
        v[:, : m // 2] ^= v[:, m // 2 :]
        m *= 2
    return x


def _butterflies(u) -> tuple[np.ndarray, tuple[int, ...]]:
    """The butterfly transform of ``u`` as a position-major ``(N, frames)``
    uint8 array, and the batch shape of ``u``."""
    u = np.asarray(u)
    _check_block(u)
    N = u.shape[-1]
    batch_shape = u.shape[:-1]
    # Explicit, not -1: a reshape cannot infer a dimension of an empty batch.
    frames = math.prod(batch_shape)
    x = u.reshape(frames, N).T.astype(np.uint8, order="C")
    x &= 1
    return _butterfly(x), batch_shape


def _frame_major(x: np.ndarray, batch_shape: tuple[int, ...]) -> np.ndarray:
    """A position-major ``(N, frames)`` array in the caller's ``(..., N)`` shape.

    A transposed view, not a copy, for a batch of at most one axis: a
    consumer that gathers positions (rate matching, payload extraction)
    then reads whole contiguous rows."""
    return x.T.reshape(batch_shape + x.shape[:1])


def encode(u) -> np.ndarray:
    """Map input bits to the codeword; operates on the last axis, batchable.

    An involution: ``encode(encode(u)) == u``.
    """
    x, batch_shape = _butterflies(u)
    n = x.shape[0].bit_length() - 1
    return _frame_major(x[bit_reversal_permutation(n)], batch_shape)


def check_length(x: np.ndarray, what: str, want: int, name: str) -> None:
    """``ValueError`` naming the shape of ``x`` unless its last axis holds ``want`` entries."""
    if x.ndim == 0 or x.shape[-1] != want:
        got = x.shape[-1] if x.ndim else "undefined"
        raise ValueError(f"{what} length {got} != {name} = {want} (shape {x.shape})")


def place_payload(payload, spec: PolarCodeSpec) -> np.ndarray:
    """Spread info (+CRC) bits over the information set, zeros on frozen bits."""
    payload = np.asarray(payload).astype(np.uint8)
    check_length(payload, "payload", spec.k + spec.crc_bits, "k + crc_bits")
    u = np.zeros(payload.shape[:-1] + (spec.size,), dtype=np.uint8)
    u[..., spec.info_positions] = payload
    return u


def extract_payload(u, spec: PolarCodeSpec) -> np.ndarray:
    """Inverse of :func:`place_payload` (info + CRC bits, ascending index)."""
    u = np.asarray(u)
    check_length(u, "u", spec.size, "N")
    return u[..., spec.info_positions]


# --------------------------------------------------------------------------- node operations

def _boxplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact check-node combine 2*atanh(tanh(a/2)*tanh(b/2)), stable form.

    Exactly zero when either input is zero, which keeps punctured (zero-LLR)
    positions punctured through the tree.
    """
    out = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    out += np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))
    return out


def _g(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return b + (1.0 - 2.0 * c) * a


def _step(kernel, node: np.ndarray, rows: np.ndarray | None, *rest: np.ndarray) -> np.ndarray:
    """``kernel(a, b, *rest)`` over the halves ``a`` and ``b`` of a tree node.

    Below the root (``rows`` is ``None``) the halves are ``node[:half]`` and
    ``node[half:]``. At the root ``node`` is the channel LLRs in coded order
    and ``rows`` the first half of the n-bit reversal: the halves are
    ``node[rows]`` and ``node[1:][rows]``. ``rest`` shares the leading axis
    of ``half`` rows. When an operand holds more than ``_BLOCK`` elements
    the step runs over leading-axis row blocks of about ``_BLOCK`` output
    elements each (at least one row), gathering each block's halves alone;
    the output is float64.
    """
    half = len(node) // 2
    if rows is None:
        a, b = node[:half], node[half:]
    else:
        a, b = node, node[1:]
    size = node.size // 2
    for x in rest:
        if x.size > size:
            size = x.size
    if size <= _BLOCK:
        return kernel(a, b, *rest) if rows is None else kernel(a[rows], b[rows], *rest)
    out = np.empty(np.broadcast_shapes(node[:half].shape, *(x.shape for x in rest)))
    step = max(1, _BLOCK * half // out.size)
    for i in range(0, half, step):
        s = slice(i, i + step)
        r = s if rows is None else rows[s]
        out[s] = kernel(a[r], b[r], *(x[s] for x in rest))
    return out


# --------------------------------------------------------------------------- SC

def _coded_rows(llr, spec: PolarCodeSpec) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Channel LLRs as a float64 position-major ``(N, B)`` array in coded order,
    the root's ``rows`` for :func:`_step`, and the batch shape the decoded
    output takes back. No copy of a float64 ``llr`` whose batch axes merge
    into one, such as a C-contiguous batch or ``depuncture_rx``'s output: a
    transposed view of it."""
    llr = np.asarray(llr, dtype=np.float64)
    check_length(llr, "LLR", spec.size, "N")
    rows = bit_reversal_permutation(spec.n)[: spec.size // 2]
    return llr.reshape(-1, spec.size).T, rows, llr.shape[:-1]


def sc_decode(llr, spec: PolarCodeSpec) -> np.ndarray:
    """Successive cancellation decoding.

    Parameters
    ----------
    llr : array (..., N)
        Channel LLRs log P(y|0)/P(y|1) in coded-symbol order. Punctured
        positions carry exactly 0.
    spec : PolarCodeSpec
        Frozen positions decode to 0; information positions are
        hard-decided from the bit-channel LLR (0 on a tie).

    Returns the estimated input vector(s) with frozen zeros included:
    the butterfly of the root's partial sums, so no decision is stored.

    A subtree is Rate-0 when its leaf block holds no information position.
    Each node splits the slice ``info_set[first:last]`` of its block at the
    midpoint by one binary search, and an empty half is a Rate-0 child.
    Rate-0 subtrees are skipped: they decode to zeros without any LLR being
    computed, and a node with a Rate-0 left child takes its g step as the
    plain sum ``a + b``, which equals ``g(a, b, 0)`` bit for bit. The
    output is the same as from the full tree.

    Every node array below the root is position-major ``(m, B)`` in tree
    order; the root reads ``llr`` in coded order (see :func:`_step`).
    """
    v, rows, batch_shape = _coded_rows(llr, spec)
    info = spec.info_set

    def rec(node: np.ndarray, rows: np.ndarray | None, lo: int, first: int,
            last: int) -> np.ndarray:
        m = len(node)
        if m == 1:
            # Only information leaves are reached; frozen ones are skipped.
            return (node < 0).astype(np.uint8)
        half = m // 2
        mid = lo + half
        split = bisect_left(info, mid, first, last)
        # At most one child is skipped: a node with two Rate-0 children is Rate-0.
        if split == first:
            x_right = rec(_step(np.add, node, rows), None, mid, split, last)
            return np.concatenate([x_right, x_right])
        x_left = rec(_step(_boxplus, node, rows), None, lo, first, split)
        if split == last:
            return np.concatenate([x_left, np.zeros_like(x_left)])
        x_right = rec(_step(_g, node, rows, x_left), None, mid, split, last)
        return np.concatenate([x_left ^ x_right, x_right])

    if info:
        x = rec(v, rows, 0, 0, len(info))
    else:
        x = np.zeros(v.shape, dtype=np.uint8)
    return _frame_major(_butterfly(x), batch_shape)


# --------------------------------------------------------------------------- SCL

def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def scl_decode(llr, spec: PolarCodeSpec, list_size: int) -> np.ndarray:
    """Successive cancellation list decoding, CRC-aided when the spec carries CRC bits.

    Keeps the ``list_size`` best paths by exact path metric (ties to the
    lower path index) and returns the best-metric one that passes the CRC
    of width ``spec.crc_bits``; with no CRC bits, or no path passing, the
    best-metric one. ``list_size=1`` equals :func:`sc_decode` bit for bit,
    with or without CRC bits: one path leaves the CRC nothing to pick.

    Node buffers are position-major ``(m, frame, path)``. A buffer whose
    path axis has size 1 holds the same values on every path: the channel
    LLRs always, and every buffer computed before the first information
    leaf. Node kernels broadcast it, so that part of the tree is computed
    once per frame, not once per path.

    Each subtree returns its partial sums and its path permutation: a
    (frame, path) array that names, for each path after the subtree, the
    path before it that it extends, or ``None`` when the subtree holds no
    information leaf. No buffer is reordered when a leaf reorders the
    paths. The walk is depth first, so a node's LLRs miss exactly the left
    subtree's permutation before its g step reads them, and its left
    partial sums miss exactly the right subtree's before they are
    combined. Each buffer is gathered at most once, by the permutations it
    missed, right before its one later read.

    No decision is stored: each final path's ``u`` is the butterfly (an
    involution) of its partial sums at the root.

    As in :func:`sc_decode`, the root reads ``llr`` in coded order; the
    channel LLRs have one path, so no permutation ever gathers them.
    """
    check_ints(list_size=list_size)
    if list_size < 1:
        raise ValueError(f"list size must be >= 1, got {list_size}")
    v, rows, batch_shape = _coded_rows(llr, spec)
    B, L = v.shape[1], list_size
    frozen = spec.frozen_mask
    pm = np.full((B, L), np.inf)
    pm[:, 0] = 0.0
    bidx = np.arange(B)[:, None]
    zero = np.zeros((1, B, 1), dtype=np.uint8)

    def gather(buf: np.ndarray, perm: np.ndarray | None) -> np.ndarray:
        if perm is None or buf.shape[2] == 1:
            return buf
        # One gather over the flattened (frame, path) axis of every position.
        cols = (bidx * L + perm).ravel()
        return buf.reshape(len(buf), -1).take(cols, axis=1).reshape(buf.shape)

    def rec(p: np.ndarray, rows: np.ndarray | None,
            lo: int) -> tuple[np.ndarray, np.ndarray | None]:
        nonlocal pm
        m = len(p)
        if m == 1:
            llr = p[0]
            if frozen[lo]:
                pm = pm + _softplus(-llr)
                return zero, None
            hard = np.broadcast_to(llr < 0, pm.shape)
            mag = np.abs(llr)
            # softplus(mag) == mag + softplus(-mag) bit for bit for mag >= 0.
            t = _softplus(-mag)
            cand = np.concatenate([pm + t, pm + (mag + t)], axis=1)
            order = np.argsort(cand, axis=1, kind="stable")[:, :L]
            src = order % L
            dec = hard[bidx, src].astype(np.uint8) ^ (order >= L).astype(np.uint8)
            pm = cand[bidx, order]
            return dec[None], src
        half = m // 2
        x_left, left = rec(_step(_boxplus, p, rows), None, lo)
        p = gather(p, left)
        x_right, right = rec(_step(_g, p, rows, x_left), None, lo + half)
        x_left = gather(x_left, right) ^ x_right
        x = np.concatenate([x_left, np.broadcast_to(x_right, x_left.shape)])
        if left is None or right is None:
            return x, right if left is None else left
        return x, left[bidx, right]

    x = rec(v[..., None], rows, 0)[0]
    # A code without an information leaf keeps one path, and its path 0 has the best metric.
    u = _butterfly(x)
    ok = (crc_check(u[spec.info_positions].transpose(1, 2, 0), spec.crc_bits) if spec.crc_bits
          else np.ones(pm.shape, dtype=bool))
    # CRC-valid paths first, then the lowest metric; the stable sort ties to the lower path.
    best = np.lexsort((pm, ~ok))[:, 0]
    return _frame_major(u[:, np.arange(B), best], batch_shape)
