import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import ga_brentq_reference, phi_inv_ln_brentq
from polarpunct.bitops import covers
from polarpunct.construct import (
    DEFAULT_PW_BETA,
    GA,
    MAX_CODE_WIDTH,
    PolarCodeSpec,
    ReliabilityProfile,
    _BRACKET_LN_PHI,
    _brent,
    _ln_phi,
    _ln_phi_array,
    _phi_inv_ln,
    _phi_inv_ln_lockstep,
    _quotient,
    bec_bhattacharyya,
    build_profile,
    ga_reliability,
    parse_construction,
    pw_reliability,
    select_information_set,
)

# frozen from the exact recursion starting at Z = 0.5 (all values dyadic)
BEC_HALF_N3 = [0.99609375, 0.87890625, 0.80859375, 0.31640625,
               0.68359375, 0.19140625, 0.12109375, 0.00390625]


class TestBecBhattacharyya:
    def test_exact_table_n3_half(self):
        prof = bec_bhattacharyya(3, 0.5)
        assert prof.metric.tolist() == BEC_HALF_N3
        assert prof.error_prob.tolist() == [z / 2 for z in BEC_HALF_N3]

    def test_descending_quality_order_n3_half(self):
        prof = bec_bhattacharyya(3, 0.5)
        assert prof.best_first().tolist() == [7, 6, 5, 3, 4, 2, 1, 0]

    def test_perfect_channel(self):
        assert bec_bhattacharyya(2, 0.0).metric.tolist() == [0, 0, 0, 0]

    def test_useless_channel(self):
        assert bec_bhattacharyya(1, 1.0).metric.tolist() == [1, 1]

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            bec_bhattacharyya(3, -0.1)
        with pytest.raises(ValueError):
            bec_bhattacharyya(3, 1.5)

    def test_capacity_conservation(self):
        # sum of (1 - Z) stays N * (1 - eps) at every block length
        for n in range(1, 13):
            for eps in (0.1, 0.37, 0.5, 0.9):
                prof = bec_bhattacharyya(n, eps)
                total = np.sum(1.0 - prof.metric)
                assert total == pytest.approx((1 << n) * (1.0 - eps), rel=1e-12)

    def test_covering_monotone(self):
        for n in range(1, 7):
            for eps in (0.2, 0.5, 0.8):
                z = bec_bhattacharyya(n, eps).metric
                for i in range(1 << n):
                    for j in range(1 << n):
                        if covers(i, j, n):
                            assert z[j] >= z[i] - 1e-15


def _ref_phi(x):
    if x == 0:
        return 1.0
    if x < 10:
        return math.exp(-0.4527 * x ** 0.86 + 0.0218)
    return math.sqrt(math.pi / x) * math.exp(-x / 4) * (1 - 10 / (7 * x))


class TestGaReliability:
    def test_single_channel_mean(self):
        prof = ga_reliability(0, 2.0)
        sigma2 = 1.0 / (2.0 * 10 ** 0.2)
        assert prof.metric[0] == pytest.approx(2.0 / sigma2, rel=1e-12)

    def test_one_level_split(self):
        # design with m0 = 2: sigma^2 = 1 -> Es/N0 = 1/2
        snr_db = 10 * math.log10(0.5)
        prof = ga_reliability(1, snr_db)
        m0 = 2.0
        assert prof.metric[1] == pytest.approx(2.0 * m0, rel=1e-12)
        # the upper mean must satisfy phi(m) = 1 - (1 - phi(m0))^2
        target = 1.0 - (1.0 - _ref_phi(m0)) ** 2
        assert _ref_phi(prof.metric[0]) == pytest.approx(target, rel=1e-6)
        assert prof.metric[0] < m0

    def test_lower_branch_doubles_exactly(self):
        for n in (2, 4, 6):
            big = ga_reliability(n, 1.0).metric
            small = ga_reliability(n - 1, 1.0).metric
            assert np.array_equal(big[1::2], 2.0 * small)

    def test_high_design_snr_drives_error_to_zero(self):
        prof = ga_reliability(4, 20.0)
        assert prof.error_prob.max() < 1e-12

    def test_error_prob_decreasing_in_mean(self):
        prof = ga_reliability(6, 0.0)
        order = np.argsort(prof.metric)
        ep = prof.error_prob[order]
        assert np.all(np.diff(ep) <= 1e-18)

    def test_covering_monotone_within_tolerance(self):
        for snr in (-1.0, 1.0, 3.0):
            prof = ga_reliability(6, snr)
            m = prof.metric
            for i in range(64):
                for j in range(64):
                    if covers(i, j, 6):
                        assert m[j] <= m[i] * (1 + 1e-6)

    def test_design_snr_must_be_finite(self):
        with pytest.raises(ValueError):
            ga_reliability(3, float("inf"))

    @pytest.mark.parametrize("snr", [250.0, 4000.0, -4000.0])
    def test_means_out_of_range_name_the_design_snr(self, snr):
        with pytest.raises(ValueError, match=f"design SNR {snr:g} dB"):
            ga_reliability(4, snr)


# n = 12 design Es/N0 values of the perfbench ``design`` workload at seed 0
# and at the held-out seed 7919.
DESIGN_SNRS_SEED0 = (-0.8241796307598458, 0.09352758711496073, 0.9808818015536134)
DESIGN_SNRS_SEED7919 = (-1.0011813544279828, -0.04311772792884577, 0.8090815652220593)

# ln y drawn for phi inverse; the explicit examples of
# ``test_phi_inverse_bit_for_bit``, and 0, which has the root 0.
LN_Y = st.floats(min_value=-1e20, max_value=0.0, exclude_max=True)
LN_Y_EXAMPLES = (-5e-324, -1e-12, -3.2576, -3.245, -3.2332, 0.0)


class TestGaMatchesScipy:
    """The scipy-free GA reproduces the ``brentq``/``erfc`` construction."""

    @pytest.mark.parametrize("n, snr", [(10, s / 2) for s in range(-12, 17)]
                             + [(12, s) for s in DESIGN_SNRS_SEED0 + DESIGN_SNRS_SEED7919])
    def test_profile(self, n, snr):
        prof = ga_reliability(n, snr)
        means, error_prob = ga_brentq_reference(n, snr)
        assert prof.metric.tobytes() == means.tobytes()
        ref = ReliabilityProfile(n=n, method=GA, params={}, metric=means, error_prob=error_prob)
        assert np.array_equal(prof.best_first(), ref.best_first())
        assert np.array_equal(prof.worst_first(), ref.worst_first())
        keep = error_prob >= 1e-300
        np.testing.assert_allclose(prof.error_prob[keep], error_prob[keep], rtol=1e-13, atol=0)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(LN_Y)
    @example(-5e-324)
    @example(-1e-12)
    @example(-3.2576)  # (-3.2577, -3.2331): ln phi jumps up at the split, two roots
    @example(-3.245)
    @example(-3.2332)
    def test_phi_inverse_bit_for_bit(self, ln_y):
        assert _phi_inv_ln(ln_y).hex() == phi_inv_ln_brentq(ln_y).hex()

    def test_brent_gives_up_after_maxiter(self):
        with pytest.raises(RuntimeError, match="did not converge"):
            _brent(lambda x: _ln_phi(x) + 5.0, 0.0, 32.0, 1e-9, maxiter=1)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.lists(st.one_of(LN_Y, st.sampled_from(LN_Y_EXAMPLES),
                              st.floats(min_value=0.0, max_value=1e3)),
                    min_size=1, max_size=64))
    def test_lockstep_bit_for_bit(self, ln_y):
        # every element leaves the lockstep iteration after its own number of steps
        roots = _phi_inv_ln_lockstep(np.array(ln_y))
        assert [r.hex() for r in roots.tolist()] == [phi_inv_ln_brentq(v).hex() for v in ln_y]

    def test_lockstep_gives_up_after_maxiter(self):
        with pytest.raises(RuntimeError, match="did not converge"):
            _phi_inv_ln_lockstep(np.array([-0.5, -5.0]), maxiter=1)

    @pytest.mark.parametrize("bad", [-1e30, -math.inf, math.nan])
    def test_lockstep_bracket_fails_like_the_scalar(self, bad):
        with pytest.raises(OverflowError, match="failed to bracket"):
            _phi_inv_ln(bad)
        with pytest.raises(OverflowError, match="failed to bracket"):
            _phi_inv_ln_lockstep(np.array([-1.0, bad, 0.5]))

    def test_bracket_table_decreases(self):
        # the lockstep bracket search (a sorted search) relies on it
        assert np.all(np.diff(_BRACKET_LN_PHI) < 0)

    def test_ln_phi_array_bit_for_bit(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([[0.0, np.nextafter(10.0, 0.0), 10.0, 5e-324, math.inf, math.nan],
                            rng.uniform(0.0, 20.0, 3000), 10.0 ** rng.uniform(-300, 300, 3000)])
        want = np.array([_ln_phi(v) for v in x.tolist()])
        assert _ln_phi_array(x).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="mean must be >= 0"):
            _ln_phi_array(np.array([1.0, -1e-300]))

    def test_ln_phi_rejects_a_negative_mean(self):
        with pytest.raises(ValueError, match="mean must be >= 0"):
            _ln_phi(-1.0)

    def test_quotient_raises_where_python_does(self):
        assert _quotient(np.array([1.0, -3e-300]), np.array([4.0, 5e-324])).tolist() == [
            1.0 / 4.0, -3e-300 / 5e-324]
        for den in (0.0, -0.0):
            with pytest.raises(ZeroDivisionError):
                _quotient(np.array([1.0, 0.0]), np.array([2.0, den]))

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.floats(min_value=-40.0, max_value=40.0))
    def test_profile_matches_the_scalar_path(self, snr):
        # either the same bytes as one scalar root per channel, or both raise
        try:
            means, _ = ga_brentq_reference(10, snr, phi_inv_ln=_phi_inv_ln)
        except ArithmeticError:
            with pytest.raises(ValueError, match="out of range"):
                ga_reliability(10, snr)
            return
        assert ga_reliability(10, snr).metric.tobytes() == means.tobytes()


def _genie_leaf_llrs(w_llr):
    """Per-bit-channel decision LLRs for the all-zero input with genie
    partial sums. Written from the combine rules directly; independent of
    the package decoders."""
    N = w_llr.shape[-1]
    if N == 1:
        return w_llr
    a, b = w_llr[..., : N // 2], w_llr[..., N // 2:]
    t = np.tanh(np.clip(a, -38, 38) / 2) * np.tanh(np.clip(b, -38, 38) / 2)
    f = 2 * np.arctanh(np.clip(t, -1 + 1e-16, 1 - 1e-16))
    left = _genie_leaf_llrs(f)
    right = _genie_leaf_llrs(b + a)  # true partial sums are all zero
    return np.concatenate([left, right], axis=-1)


class TestGaAgainstMonteCarlo:
    def test_selection_agrees_with_genie_simulation(self):
        """Monte-Carlo density-evolution oracle: simulate the all-zero
        codeword, estimate per-bit-channel error rates with genie-aided
        priors, and compare the selected information set."""
        n, N, count = 8, 256, 128
        esn0_db = 0.0
        sigma2 = 1.0 / (2.0 * 10 ** (esn0_db / 10))
        rng = np.random.default_rng(2024)
        trials, chunk = 120_000, 20_000
        errors = np.zeros(N)
        for _ in range(trials // chunk):
            y = 1.0 + math.sqrt(sigma2) * rng.standard_normal((chunk, N))
            llr = 2.0 * y / sigma2
            leaf = _genie_leaf_llrs(llr)
            errors += (leaf < 0).sum(axis=0)
        pe_mc = errors / trials
        mc_best = set(np.lexsort((np.arange(N), pe_mc))[:count].tolist())

        ga_best = set(select_information_set(ga_reliability(n, esn0_db), count).info_set)
        agreement = N - len(mc_best.symmetric_difference(ga_best))
        assert agreement >= 250


class TestPwReliability:
    def test_weights_n3(self):
        b = DEFAULT_PW_BETA
        prof = pw_reliability(3)
        expected = [0.0, 1.0, b, 1 + b, b * b, 1 + b * b, b + b * b, 1 + b + b * b]
        assert prof.metric.tolist() == pytest.approx(expected, rel=1e-12)

    def test_descending_order_matches_bec_half(self):
        prof = pw_reliability(3)
        assert prof.best_first().tolist() == [7, 6, 5, 3, 4, 2, 1, 0]

    def test_extremes(self):
        prof = pw_reliability(5, 1.3)
        assert prof.metric[0] == 0.0
        assert prof.metric[-1] == pytest.approx(sum(1.3 ** j for j in range(5)))
        assert prof.metric.argmax() == 31

    def test_no_error_prob(self):
        assert pw_reliability(3).error_prob is None

    def test_beta_validated(self):
        with pytest.raises(ValueError):
            pw_reliability(3, 0.0)

    @pytest.mark.parametrize("beta, message", [
        (math.inf, "positive and finite, got inf"), (-math.inf, "positive and finite"),
        (math.nan, "positive and finite"), (1e200, "out of range at beta 1e[+]200")])
    def test_unusable_beta_rejected(self, beta, message):
        with pytest.raises(ValueError, match=message):
            pw_reliability(3, beta)

    def test_covering_monotone(self):
        prof = pw_reliability(6)
        w = prof.metric
        for i in range(64):
            for j in range(64):
                if covers(i, j, 6):
                    assert w[j] <= w[i] + 1e-12


class TestProfileOrders:
    def test_match_python_popcount_reference(self):
        # Degenerate profiles (erasure probability 0 or 1, PW) tie on the
        # metric, so the popcount key decides most of their order.
        profiles = [bec_bhattacharyya(n, eps) for n in range(11) for eps in (0.0, 0.5, 1.0)]
        profiles += [ga_reliability(n, 1.0) for n in (0, 3, 8)]
        profiles += [pw_reliability(n) for n in (0, 3, 8)]
        for prof in profiles:
            idx = np.arange(prof.size)
            pop = np.array([bin(i).count("1") for i in range(prof.size)])
            q = prof.quality()
            assert prof.best_first().tolist() == np.lexsort((idx, -pop, -q)).tolist()
            assert prof.worst_first().tolist() == np.lexsort((idx, pop, q)).tolist()


class TestSelectInformationSet:
    def test_bec_half_k4(self):
        spec = select_information_set(bec_bhattacharyya(3, 0.5), 4)
        assert spec.info_set == (3, 5, 6, 7)
        assert spec.frozen_set == (0, 1, 2, 4)

    def test_pw_k4(self):
        spec = select_information_set(pw_reliability(3), 4)
        assert spec.info_set == (3, 5, 6, 7)

    def test_full_rate(self):
        spec = select_information_set(bec_bhattacharyya(3, 0.5), 8)
        assert spec.info_set == tuple(range(8))
        assert spec.frozen_set == ()

    def test_crc_accounting(self):
        spec = select_information_set(ga_reliability(5, 1.0), 20, crc_bits=8)
        assert spec.k == 12
        assert spec.crc_bits == 8
        assert len(spec.info_set) == 20

    def test_deterministic(self):
        a = select_information_set(ga_reliability(7, 1.5), 70)
        b = select_information_set(ga_reliability(7, 1.5), 70)
        assert a == b

    def test_count_validated(self):
        prof = bec_bhattacharyya(3, 0.5)
        with pytest.raises(ValueError):
            select_information_set(prof, 0)
        with pytest.raises(ValueError):
            select_information_set(prof, 9)

    @pytest.mark.parametrize("kwargs, name", [
        ({"count": 4.0}, "count"),
        ({"count": np.int64(4)}, "count"),
        ({"count": 12, "crc_bits": 8.0}, "crc_bits")])
    def test_counts_must_be_ints(self, kwargs, name):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, "
                                                       f"got {kwargs[name]!r}")):
            select_information_set(bec_bhattacharyya(4, 0.5), **kwargs)

    def test_count_must_exceed_crc_bits(self):
        with pytest.raises(ValueError, match="count must exceed crc_bits"):
            select_information_set(bec_bhattacharyya(3, 0.5), 8, crc_bits=8)

    def test_degenerate_ties_keep_info_set_upward_closed(self):
        # erasure probability 0 makes every metric equal; the selection must
        # still never freeze a channel that covers a selected one
        for count in (3, 4, 6):
            spec = select_information_set(bec_bhattacharyya(3, 0.0), count)
            info = set(spec.info_set)
            for j in info:
                for i in range(8):
                    if covers(i, j, 3):
                        assert i in info

    def test_json_round_trip_shapes(self):
        prof = bec_bhattacharyya(3, 0.5)
        spec = select_information_set(prof, 4)
        blob = json.dumps({**prof.to_json_dict(), **spec.to_json_dict()})
        back = json.loads(blob)
        assert back["metric"] == BEC_HALF_N3
        assert back["I"] == [3, 5, 6, 7]
        assert back["F"] == [0, 1, 2, 4]


class TestSpecArrays:
    def test_info_positions(self):
        spec = select_information_set(ga_reliability(5, 1.0), 20, crc_bits=8)
        info = spec.info_positions
        assert info.dtype == np.intp and info.tolist() == list(spec.info_set)
        with pytest.raises(ValueError):
            info[0] = 0
        # derived data: no part of repr, equality or hashing; JSON writes the frozen set as "F"
        other = select_information_set(ga_reliability(5, 1.0), 20, crc_bits=8)
        assert spec == other and hash(spec) == hash(other)
        assert all(name not in repr(spec) for name in ("positions", "tree", "frozen"))
        assert set(spec.to_json_dict()) == {"n", "k", "crc_bits", "I", "F", "construction"}

    def test_frozen_mask_marks_frozen_set(self):
        rng = np.random.default_rng(3)
        for n in range(7):
            N = 1 << n
            for _ in range(20):
                info = set(rng.choice(N, int(rng.integers(0, N + 1)), replace=False).tolist())
                spec = PolarCodeSpec(n=n, k=len(info), crc_bits=0,
                                     info_set=tuple(sorted(info)), construction="explicit")
                mask = spec.frozen_mask
                assert mask.tolist() == [i not in info for i in range(N)]
                assert spec.frozen_set == tuple(sorted(set(range(N)) - info))
                with pytest.raises(ValueError):
                    mask[0] = True


class TestProfileValidation:
    @pytest.mark.parametrize("method, length, message", [
        ("quantized", 8, "unknown construction method 'quantized'"),
        (GA, 4, r"metric length must be 2\*\*n"),
    ])
    def test_rejected(self, method, length, message):
        with pytest.raises(ValueError, match=message):
            ReliabilityProfile(n=3, method=method, params={}, metric=np.zeros(length))


class TestSpecValidation:
    @pytest.mark.parametrize("info, k, message", [
        ((3, 2), 2, "information set must be a strictly ascending"),
        ((2, 2, 3), 3, "information set must be a strictly ascending"),
        ((-1, 3), 2, "index -1 out of range"),
        ((2, 4), 2, "index 4 out of range"),
        ((1.5, 3), 2, "must be an integer"),
        ((2, 3), 3, "k [+] crc_bits"),
        ((), -1, "k must be >= 0, got -1"),
        ((2, 3), 2.0, "k must be an integer, got 2.0"),
        ((2, 3), True, "k must be an integer, got True"),
        ((True, 3), 2, "index must be an integer, got True"),
        ((True,), 1, "index must be an integer, got True"),
    ])
    def test_rejected(self, info, k, message):
        with pytest.raises(ValueError, match=message):
            PolarCodeSpec(n=2, k=k, crc_bits=0, info_set=info, construction="explicit")

    @pytest.mark.parametrize("crc_bits", [5, -1, 4])
    def test_unregistered_crc_width_rejected_when_built(self, crc_bits):
        # Not later, by the decoder that looks up its polynomial.
        info = tuple(range(1, 3 + crc_bits))  # k + crc_bits indices: only the width is wrong
        with pytest.raises(ValueError, match=r"crc_bits must be one of \(0, 8, 16\)"):
            PolarCodeSpec(n=3, k=2, crc_bits=crc_bits, info_set=info, construction="x")

    @pytest.mark.parametrize("crc_bits", [8.0, np.int64(0), True])
    def test_crc_bits_must_be_an_int(self, crc_bits):
        with pytest.raises(ValueError, match=re.escape(f"crc_bits must be an integer, "
                                                       f"got {crc_bits!r}")):
            PolarCodeSpec(n=3, k=2, crc_bits=crc_bits, info_set=(6, 7), construction="x")

    def test_numpy_integer_info_set_is_stored_as_ints(self):
        spec = PolarCodeSpec(n=3, k=2, crc_bits=0, info_set=(np.int64(6), np.int64(7)),
                             construction="x")
        assert spec == PolarCodeSpec(n=3, k=2, crc_bits=0, info_set=(6, 7), construction="x")
        assert [type(i) for i in spec.info_set] == [int, int]
        assert json.loads(json.dumps(spec.to_json_dict()))["I"] == [6, 7]

    def test_int64_array_info_set(self):
        # The array select_information_set hands on builds the same spec as a tuple.
        spec = PolarCodeSpec(n=3, k=2, crc_bits=0, info_set=np.array([6, 7], dtype=np.int64),
                             construction="x")
        expected = PolarCodeSpec(n=3, k=2, crc_bits=0, info_set=(6, 7), construction="x")
        assert spec == expected and hash(spec) == hash(expected)
        assert json.dumps(spec.to_json_dict()) == json.dumps(expected.to_json_dict())


class TestCodeWidthLimit:
    @pytest.mark.parametrize("build", [lambda n: bec_bhattacharyya(n, 0.5),
                                       lambda n: ga_reliability(n, 1.0), pw_reliability],
                             ids=["bec", "ga", "pw"])
    @pytest.mark.parametrize("n", [-1, MAX_CODE_WIDTH + 1, 40])
    def test_rejected_before_allocating(self, build, n):
        with pytest.raises(ValueError, match=rf"n must be in \[0, {MAX_CODE_WIDTH}\], got {n}"):
            build(n)

    @pytest.mark.parametrize("build, n", [(lambda n: bec_bhattacharyya(n, 0.5), 3.0),
                                          (lambda n: ga_reliability(n, 0.0), 3.0),
                                          (pw_reliability, 3.0),
                                          (lambda n: bec_bhattacharyya(n, 0.5), True)],
                             ids=["bec-float", "ga-float", "pw-float", "bec-bool"])
    def test_width_must_be_an_int(self, build, n):
        with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
            build(n)

    def test_pw_at_the_limit_builds(self):
        assert pw_reliability(MAX_CODE_WIDTH).metric.size == 1 << MAX_CODE_WIDTH


class TestParseConstruction:
    def test_values_and_defaults(self):
        assert parse_construction("bec:0.5") == ("bec", 0.5)
        assert parse_construction("ga:1.25", 3.0) == ("ga", 1.25)
        assert parse_construction("ga", 3.0) == ("ga", 3.0)
        assert parse_construction("pw") == ("pw", DEFAULT_PW_BETA)
        assert parse_construction("pw:1.1") == ("pw", 1.1)

    @pytest.mark.parametrize("text", ["bec", "ga", "ga:", "pw:beta", "quantized:1", ""])
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_construction(text)

    def test_build_profile(self):
        assert np.array_equal(build_profile("bec:0.5", 3).metric, BEC_HALF_N3)
        assert build_profile("ga", 4, 1.0).params == ga_reliability(4, 1.0).params
        assert build_profile("pw", 3).params == {"beta": DEFAULT_PW_BETA}
