"""Bit-channel reliability profiles and fixed information-set selection.

Three constructions are provided:

* ``bec_bhattacharyya`` -- exact Bhattacharyya recursion for the binary
  erasure channel (Z_upper = 2Z - Z^2, Z_lower = Z^2 per level),
* ``ga_reliability`` -- density evolution under a Gaussian approximation
  for BPSK over AWGN, tracking the per-channel LLR mean,
* ``pw_reliability`` -- polarization-weight beta expansion (rank only, no
  error probability).

Indices are natural bit-channel indices: the MSB of the index selects the
transform applied at the first (size-2) polarization level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Optional

import numpy as np

from .bitops import check_index, check_ints, popcount

BEC_EXACT = "bec"
GA = "ga"
PW = "pw"

DEFAULT_PW_BETA = 2.0 ** 0.25
# CRC generator polynomials by width (coefficients below x**width); a spec may also carry none.
CRC_POLYNOMIALS = {8: 0x9B, 16: 0x8005}
CRC_WIDTHS = (0, *CRC_POLYNOMIALS)
# Largest code width n for a profile or a simulation, which hold arrays of 2**n entries.
MAX_CODE_WIDTH = 20

# Mean value where the LLR-mean transfer function switches from the
# exponential-polynomial fit to the asymptotic tail form.
_PHI_SPLIT = 10.0
_PHI_INV_RTOL = 1e-9
_LN_PI = math.log(math.pi)
# Narrowest GA level solved in lockstep. A lockstep iteration costs about 65 us of numpy
# overhead at any width, and a level takes about 9; a scalar root costs 10-20 us per channel.
_LOCKSTEP_MIN_WIDTH = 128


@dataclass(frozen=True, eq=False)
class ReliabilityProfile:
    """Per-bit-channel quality metric plus derived error probability.

    ``metric`` holds Z for the BEC construction (lower is better), the LLR
    mean for GA (higher is better) and the polarization weight for PW
    (higher is better). ``error_prob`` is ``None`` for PW.
    """

    n: int
    method: str
    params: dict = field(repr=False)
    metric: np.ndarray = field(repr=False)
    error_prob: Optional[np.ndarray] = field(repr=False, default=None)

    def __post_init__(self):
        if self.method not in (BEC_EXACT, GA, PW):
            raise ValueError(f"unknown construction method {self.method!r}")
        if len(self.metric) != 1 << self.n:
            raise ValueError("metric length must be 2**n")

    @property
    def size(self) -> int:
        return 1 << self.n

    def quality(self) -> np.ndarray:
        """Per-index quality key; higher means more reliable."""
        if self.method == BEC_EXACT:
            return -self.metric
        return self.metric

    def best_first(self) -> np.ndarray:
        """Indices from most to least reliable.

        Exact metric ties are broken by higher popcount first (an index with
        more ones covers, hence upgrades, one with fewer), then by lower
        index. The popcount key only matters for degenerate profiles (metric
        underflow, erasure probability 0 or 1) and keeps the selected set
        upward-closed under the covering order, which the puncture-closure
        guarantee relies on.
        """
        idx = np.arange(self.size)
        return np.lexsort((idx, -popcount(idx, self.n), -self.quality()))

    def worst_first(self) -> np.ndarray:
        """Indices from least to most reliable (ties: lower popcount, lower index)."""
        idx = np.arange(self.size)
        return np.lexsort((idx, popcount(idx, self.n), self.quality()))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "method": self.method,
            "params": dict(self.params),
            "metric": self.metric.tolist(),
            "error_prob": None if self.error_prob is None else self.error_prob.tolist(),
        }


@dataclass(frozen=True)
class PolarCodeSpec:
    """Code parameters with a fixed information set; a broken rule raises ``ValueError``.

    ``crc_bits`` is one of :data:`CRC_WIDTHS`. ``info_set`` holds the ``k + crc_bits``
    most reliable indices under the construction it was derived from, strictly
    ascending, and stays fixed once selected, in particular across puncturing.
    The read-only arrays ``info_positions`` and ``frozen_mask`` that the codec
    reads are built once per spec and take no part in equality or hashing;
    ``frozen_set``, the ascending complement (``"F"`` in JSON), is built at each read.
    """

    n: int
    k: int
    crc_bits: int
    info_set: tuple[int, ...]
    construction: str

    def __post_init__(self):
        check_ints(k=self.k, crc_bits=self.crc_bits)
        info = check_index(self.info_set, self.n)
        if info.ndim != 1 or (info[1:] <= info[:-1]).any():
            raise ValueError("information set must be a strictly ascending sequence")
        # Python ints, so numpy integer entries compare, hash and write to JSON as ints.
        object.__setattr__(self, "info_set", tuple(info.tolist()))
        # So a code without an information bit carries no CRC bits either.
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.crc_bits not in CRC_WIDTHS:
            raise ValueError(f"crc_bits must be one of {CRC_WIDTHS}, got {self.crc_bits}")
        if info.size != self.k + self.crc_bits:
            raise ValueError("information set size must equal k + crc_bits")

    @property
    def size(self) -> int:
        return 1 << self.n

    @cached_property
    def info_positions(self) -> np.ndarray:
        """The information set as an ascending ``np.intp`` array."""
        info = np.array(self.info_set, dtype=np.intp)
        info.setflags(write=False)
        return info

    @property
    def frozen_set(self) -> tuple[int, ...]:
        """The complement of the information set, ascending."""
        return tuple(np.flatnonzero(self.frozen_mask).tolist())

    @cached_property
    def frozen_mask(self) -> np.ndarray:
        """Read-only boolean mask of the frozen set."""
        mask = np.ones(self.size, dtype=bool)
        mask[self.info_positions] = False
        mask.setflags(write=False)
        return mask

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "crc_bits": self.crc_bits,
            "I": list(self.info_set),
            "F": list(self.frozen_set),
            "construction": self.construction,
        }


def _check_code_width(n: int) -> None:
    check_ints(n=n)
    if not 0 <= n <= MAX_CODE_WIDTH:
        raise ValueError(f"n must be in [0, {MAX_CODE_WIDTH}], got {n}")


def bec_bhattacharyya(n: int, erasure_prob: float) -> ReliabilityProfile:
    """Exact Bhattacharyya parameters of all bit channels of a BEC.

    Starting from Z = erasure probability, each level maps
    Z -> 2Z - Z^2 (index bit 0) and Z -> Z^2 (index bit 1). The reported
    error probability is Z/2, the bit error probability of an erasure
    channel under a fair tie break.
    """
    _check_code_width(n)
    if not 0.0 <= erasure_prob <= 1.0:
        raise ValueError(f"erasure probability must be in [0, 1], got {erasure_prob}")
    z = np.array([float(erasure_prob)])
    for _ in range(n):
        nxt = np.empty(2 * z.size)
        nxt[0::2] = 2.0 * z - z * z
        nxt[1::2] = z * z
        z = nxt
    return ReliabilityProfile(
        n=n, method=BEC_EXACT, params={"erasure_prob": float(erasure_prob)},
        metric=z, error_prob=z / 2.0,
    )


def _ln_phi(x: float) -> float:
    """log of the LLR-mean transfer function (mean -> 1 - normalized capacity proxy)."""
    if x < 0:
        raise ValueError("mean must be >= 0")
    if x == 0.0:
        return 0.0
    if x < _PHI_SPLIT:
        return -0.4527 * x ** 0.86 + 0.0218
    return 0.5 * (_LN_PI - math.log(x)) - x / 4.0 + math.log1p(-10.0 / (7.0 * x))


# phi inverse brackets: 2**k for k < 80 and ln phi there, decreasing in k
_BRACKET_X = np.array([2.0 ** k for k in range(80)])
_BRACKET_LN_PHI = np.array([_ln_phi(x) for x in _BRACKET_X.tolist()])


def _libm(func, x: np.ndarray, *args) -> np.ndarray:
    """``func`` of every element of ``x`` (and of ``args``' iterables), by the scalar function.

    Each value is the float the scalar call gives, bit for bit. numpy's SIMD ufuncs for
    ``power``, ``exp``, ``log1p`` and ``log`` differ from libm in the last bit on a few per cent
    of inputs, which would move GA roots and so the selected sets.
    """
    return np.fromiter(map(func, x.tolist(), *args), float, x.size)


def _ln_phi_array(x: np.ndarray) -> np.ndarray:
    """:func:`_ln_phi` of every element, with the same float operations in the same order."""
    if (x < 0).any():
        raise ValueError("mean must be >= 0")
    out = np.zeros(x.size)
    zero = x == 0.0
    low = (x < _PHI_SPLIT) & ~zero
    high = ~(low | zero)  # NaN takes the tail form, as in the scalar code
    out[low] = -0.4527 * _libm(pow, x[low], repeat(0.86)) + 0.0218
    xh = x[high]
    out[high] = (0.5 * (_LN_PI - _libm(math.log, xh)) - xh / 4.0
                 + _libm(math.log1p, -10.0 / (7.0 * xh)))
    return out


def _brent(f, xpre: float, xcur: float, rtol: float, xtol: float = 2e-12,
           maxiter: int = 100) -> float:
    """Root of ``f`` between ``xpre`` and ``xcur``, given f(xpre) > 0 >= f(xcur): scipy's
    ``brentq`` (``Zeros/brentq.c``) step for step, same float operations, same root."""
    fpre, fcur = f(xpre), f(xcur)
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless inter- or extrapolation takes a good short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} iterations")


def _quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den``, raising ``ZeroDivisionError`` where Python's float division would."""
    if not den.all():
        raise ZeroDivisionError("float division by zero")
    return num / den


def _phi_inv_ln_lockstep(ln_y: np.ndarray, maxiter: int = 100) -> np.ndarray:
    """:func:`_phi_inv_ln` of every element of ``ln_y``, by :func:`_brent` run in lockstep.

    Every element keeps its own bracket, steps and function values, takes the same float
    operations as the scalar code, and leaves the active set on the same convergence test,
    with the same root. The secant and inverse quadratic steps are computed only on the
    elements that take them, so a division by zero raises where the scalar code's would;
    overflow and NaN pass silently, as in Python floats.
    """
    root = np.zeros(ln_y.size)
    idx = np.flatnonzero(~(ln_y >= 0.0))
    if not idx.size:
        return root
    ln_y = ln_y[idx]
    # first k with ln phi(2**k) <= ln y; the table decreases, NaN and -inf land past its end
    k = np.searchsorted(-_BRACKET_LN_PHI, -ln_y)
    if k.max() == _BRACKET_LN_PHI.size:
        raise OverflowError(f"failed to bracket phi inverse for ln_y={ln_y[k.argmax()]}")
    rtol, xtol = _PHI_INV_RTOL, 2e-12
    xpre, xcur = np.zeros(idx.size), _BRACKET_X[k]
    fpre, fcur = 0.0 - ln_y, _BRACKET_LN_PHI[k] - ln_y
    xblk, fblk, spre, scur = (np.zeros(idx.size) for _ in range(4))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(maxiter):
            flip = (fpre != 0.0) & (fcur != 0.0) & ((fpre < 0.0) != (fcur < 0.0))
            xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
            step = xcur - xpre
            spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                                np.where(swap, xcur, xblk))
            fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                                np.where(swap, fcur, fblk))
            delta = (xtol + rtol * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0.0) | (np.abs(sbis) < delta)
            if done.any():
                root[idx[done]] = xcur[done]
                live = ~done
                if not live.any():
                    return root
                (idx, ln_y, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis) = (
                    a[live] for a in (idx, ln_y, xpre, xcur, xblk, fpre, fcur, fblk, spre,
                                      scur, delta, sbis))
            # bisect unless inter- or extrapolation takes a good short step
            stry = np.full(idx.size, math.inf)
            interp = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
            secant = interp & (xpre == xblk)
            i = np.flatnonzero(secant)
            if i.size:
                stry[i] = _quotient(-fcur[i] * (xcur[i] - xpre[i]), fcur[i] - fpre[i])
            i = np.flatnonzero(interp & ~secant)
            if i.size:
                fp, fc, fb = fpre[i], fcur[i], fblk[i]
                dpre = _quotient(fp - fc, xpre[i] - xcur[i])
                dblk = _quotient(fb - fc, xblk[i] - xcur[i])
                stry[i] = _quotient(-fc * (fb * dblk - fp * dpre), dblk * dpre * (fb - fp))
            limit, bound = np.abs(spre), 3 * np.abs(sbis) - delta
            limit = np.where(bound < limit, bound, limit)  # Python's min: the first on ties and NaN
            take = 2 * np.abs(stry) < limit
            spre, scur = np.where(take, scur, sbis), np.where(take, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
            fcur = _ln_phi_array(xcur) - ln_y
    raise RuntimeError(f"Brent's method did not converge in {maxiter} iterations")


def _phi_inv_ln(ln_y: float) -> float:
    """Inverse of the transfer function given log(y); ``OverflowError`` past 2**79."""
    if ln_y >= 0.0:
        return 0.0
    # first k with ln phi(2**k) <= ln y, as in the lockstep kernel; NaN and -inf find none
    k = int(np.searchsorted(-_BRACKET_LN_PHI, -ln_y))
    if k == _BRACKET_LN_PHI.size:
        raise OverflowError(f"failed to bracket phi inverse for ln_y={ln_y}")
    return _brent(lambda x: _ln_phi(x) - ln_y, 0.0, float(_BRACKET_X[k]), _PHI_INV_RTOL)


def ga_reliability(n: int, design_snr_db: float) -> ReliabilityProfile:
    """Gaussian-approximation density evolution for BPSK over AWGN.

    ``design_snr_db`` is the design Es/N0 in dB; the all-channel LLR mean is
    initialized to 2/sigma^2 with sigma^2 = 1 / (2 * 10**(snr/10)). Per
    level the pair of output means is

        m_upper = phi_inv(1 - (1 - phi(m))**2)        (index bit 0)
        m_lower = 2 m                                  (index bit 1)

    where phi is the standard two-regime transfer approximation
    (exp(-0.4527 x**0.86 + 0.0218) below x = 10, the asymptotic
    sqrt(pi/x) exp(-x/4) (1 - 10/(7x)) above). The upper branch is carried
    in the log domain so large means do not underflow. phi_inv is Brent's
    method, bit-identical to scipy's ``brentq``; a level of at least
    ``_LOCKSTEP_MIN_WIDTH`` channels solves all its roots in lockstep. Every
    transcendental function is libm's, element by element. The error
    probability is Q(sqrt(m/2)), by ``math.erfc``. A design SNR whose means
    leave the floating-point range raises ``ValueError``.
    """
    _check_code_width(n)
    if not math.isfinite(design_snr_db):
        raise ValueError("design SNR must be finite")
    try:
        sigma2 = 1.0 / (2.0 * 10.0 ** (design_snr_db / 10.0))
        means = np.array([2.0 / sigma2])
        for _ in range(n):
            # ln(1 - (1 - phi)^2) = ln(phi) + ln(2 - phi), stable for tiny phi
            lp = _ln_phi_array(means)
            ln_y = lp + _libm(math.log, 2.0 - _libm(math.exp, lp))
            upper = (_phi_inv_ln_lockstep(ln_y) if ln_y.size >= _LOCKSTEP_MIN_WIDTH
                     else _libm(_phi_inv_ln, ln_y))
            means = np.column_stack([upper, 2.0 * means]).ravel()
    except ArithmeticError as exc:
        raise ValueError(f"GA construction is out of range at design SNR {design_snr_db:g} dB: "
                         f"{exc}") from None
    error_prob = 0.5 * _libm(math.erfc, np.sqrt(means) / 2.0)  # Q(sqrt(m/2))
    return ReliabilityProfile(
        n=n, method=GA, params={"design_snr_db": float(design_snr_db)},
        metric=means, error_prob=error_prob,
    )


def pw_reliability(n: int, beta: float = DEFAULT_PW_BETA) -> ReliabilityProfile:
    """Polarization weights: weight(i) = sum of beta**j over set bits j of i.

    Bit j = 0 is the LSB. Provides a reliability rank only; no error
    probability is attached. A beta that is not positive and finite, or
    whose powers leave the floating-point range, raises ``ValueError``.
    """
    _check_code_width(n)
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    try:
        powers = [beta ** j for j in range(n)]
    except OverflowError:
        raise ValueError(f"PW weights are out of range at beta {beta:g} for n = {n}") from None
    N = 1 << n
    weights = np.zeros(N)
    for j, power in enumerate(powers):
        weights[(np.arange(N) >> j) & 1 == 1] += power
    return ReliabilityProfile(n=n, method=PW, params={"beta": float(beta)}, metric=weights)


def parse_construction(text: str, ga_snr_db: Optional[float] = None) -> tuple[str, float]:
    """Method and parameter of a construction string ``bec:EPS | ga[:SNR] | pw[:BETA]``.

    A bare ``ga`` takes the fallback design Es/N0 ``ga_snr_db`` and is
    rejected when there is none; a bare ``pw`` takes ``DEFAULT_PW_BETA``.
    """
    method, _, value = text.partition(":")
    if method not in (BEC_EXACT, GA, PW):
        raise ValueError(f"unknown construction {text!r}; expected bec:EPS, ga[:SNR] or pw[:BETA]")
    if value:
        try:
            return method, float(value)
        except ValueError:
            raise ValueError(f"construction parameter must be a number, got {text!r}") from None
    if method == BEC_EXACT:
        raise ValueError("bec construction needs an erasure probability, e.g. bec:0.5")
    if method == GA:
        if ga_snr_db is None:
            raise ValueError("ga construction needs a design Es/N0 in dB here, e.g. ga:1.0")
        return method, ga_snr_db
    return method, DEFAULT_PW_BETA


def build_profile(text: str, n: int, ga_snr_db: Optional[float] = None) -> ReliabilityProfile:
    """Reliability profile of width ``n`` for a construction string (see :func:`parse_construction`)."""
    method, param = parse_construction(text, ga_snr_db)
    build = {BEC_EXACT: bec_bhattacharyya, GA: ga_reliability, PW: pw_reliability}[method]
    return build(n, param)


def select_information_set(profile: ReliabilityProfile, count: int,
                           crc_bits: int = 0) -> PolarCodeSpec:
    """Pick the ``count`` most reliable indices as the information set.

    ``count`` includes any CRC bits (``k = count - crc_bits`` pure
    information bits). The selection is deterministic; see
    :meth:`ReliabilityProfile.best_first` for the tie-break rule.
    """
    check_ints(count=count, crc_bits=crc_bits)
    N = profile.size
    if not 0 < count <= N:
        raise ValueError(f"count must be in [1, {N}], got {count}")
    if count <= crc_bits:
        raise ValueError("count must exceed crc_bits")
    info = np.sort(profile.best_first()[:count])
    params = ",".join(f"{k}={v:g}" for k, v in profile.params.items())
    return PolarCodeSpec(
        n=profile.n, k=count - crc_bits, crc_bits=crc_bits, info_set=info,
        construction=f"{profile.method}({params})",
    )
