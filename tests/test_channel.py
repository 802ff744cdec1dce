import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from oracles import transmit_reference

from polarpunct.channel import (
    _BLOCK,
    AWGN,
    BEC,
    ChannelConfig,
    depuncture_rx,
    puncture_tx,
    transmit,
)
from polarpunct.puncture import custom_pattern, qup_pattern, wqp_pattern
from polarpunct.construct import bec_bhattacharyya, select_information_set


def _wqp_toy():
    prof = bec_bhattacharyya(3, 0.5)
    spec = select_information_set(prof, 4)
    return wqp_pattern(spec, prof, 4)  # coded set {0, 1, 2, 4}


class TestChannelConfig:
    def test_noise_variance(self):
        cfg = ChannelConfig(AWGN, 3.0, rate_for_ebn0=0.5)
        assert cfg.noise_variance() == pytest.approx(1.0 / (2 * 0.5 * 10 ** 0.3))

    @pytest.mark.parametrize("ebn0_db", [-300.0, -30.0, 30.0, 300.0])
    def test_noise_variance_at_extreme_finite_points(self, ebn0_db):
        cfg = ChannelConfig(AWGN, ebn0_db, rate_for_ebn0=0.5)
        assert cfg.noise_variance() == 1.0 / (2.0 * 0.5 * 10.0 ** (ebn0_db / 10.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelConfig("fading", 1.0)
        with pytest.raises(ValueError):
            ChannelConfig(BEC, 1.2)
        with pytest.raises(ValueError):
            ChannelConfig(AWGN, 1.0, rate_for_ebn0=0.0)
        with pytest.raises(ValueError):
            ChannelConfig(BEC, 0.5).noise_variance()

    # nan and +inf give nan or 0; -inf and -4000 underflow 10**(p/10) to 0
    # (ZeroDivisionError), and 4000 overflows it (OverflowError).
    @pytest.mark.parametrize("ebn0_db", [math.nan, math.inf, -math.inf, 4000.0, -4000.0])
    def test_awgn_point_without_finite_noise_variance(self, ebn0_db):
        with pytest.raises(ValueError, match=f"Eb/N0 of {ebn0_db} dB gives no finite positive"):
            ChannelConfig(AWGN, ebn0_db, rate_for_ebn0=0.5)


class TestPunctureTx:
    def test_zero_puncture_identity(self):
        p = custom_pattern([], 3)
        x = np.arange(8)
        assert np.array_equal(puncture_tx(x, p), x)

    def test_wqp_toy_survivors(self):
        x = np.arange(8)
        assert puncture_tx(x, _wqp_toy()).tolist() == [3, 5, 6, 7]

    def test_output_length(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            q = int(rng.integers(1, 1 << n))
            p = qup_pattern(n, q)
            x = rng.integers(0, 2, (3, 1 << n), dtype=np.uint8)
            assert puncture_tx(x, p).shape == (3, (1 << n) - q)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            puncture_tx(np.zeros(16), qup_pattern(3, 2))

    def test_scalar_input_names_the_shape(self):
        with pytest.raises(ValueError, match=r"codeword length undefined != N = 8 \(shape \(\)\)"):
            puncture_tx(np.float64(1.0), qup_pattern(3, 2))


def _shapes():
    """0-d, 1-D, (rows, N - Q)-like 2-D with an empty batch and totals on
    and off a multiple of ``_BLOCK``, and 3-D shapes."""
    near = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 7]
    one = st.one_of(st.integers(0, 3 * _BLOCK), st.sampled_from(near)).map(lambda m: (m,))
    two = st.sampled_from([1, 64, 128, 186, 256]).flatmap(lambda cols: st.one_of(
        st.integers(0, 3 * _BLOCK // cols + 2),
        st.sampled_from([m // cols + d for m in near for d in (-1, 0, 1)]),
    ).map(lambda rows: (rows, cols)))
    three = st.tuples(st.integers(0, 5), st.integers(0, 40), st.integers(1, 300))
    return st.one_of(st.just(()), one, two, three)


@st.composite
def _channels(draw):
    if draw(st.booleans()):
        return ChannelConfig(AWGN, draw(st.floats(-5.0, 12.0)),
                             rate_for_ebn0=draw(st.floats(0.05, 1.0)))
    return ChannelConfig(BEC, draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))))


class TestTransmit:
    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(_shapes(), _channels(), st.integers(0, 2**32 - 1), st.booleans())
    @example((), ChannelConfig(AWGN, 1.0, 0.5), 1, False)
    @example((0, 186), ChannelConfig(BEC, 0.3), 2, True)
    @example((2, 3, _BLOCK // 3 + 1), ChannelConfig(AWGN, 2.0, 0.5), 3, True)
    @example((_BLOCK // 128, 128), ChannelConfig(BEC, 0.5), 4, False)
    def test_blocked_draws_equal_the_one_shot_formula(self, shape, cfg, seed, as_generator):
        bits = np.random.default_rng(seed ^ 0x5EED).integers(0, 2, shape, dtype=np.uint8)
        rngs = [np.random.default_rng(seed) if as_generator else seed for _ in range(2)]
        got, want = transmit(bits, cfg, rngs[0]), transmit_reference(bits, cfg, rngs[1])
        assert got.dtype == np.float64 and got.shape == np.shape(want) == shape
        assert got.tobytes() == np.asarray(want).tobytes()
        if as_generator:  # Both leave the caller's stream at the same place.
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_awgn_high_snr_sign_matches(self):
        cfg = ChannelConfig(AWGN, 40.0, rate_for_ebn0=0.5)
        bits = np.random.default_rng(1).integers(0, 2, 256, dtype=np.uint8)
        llr = transmit(bits, cfg, 2)
        assert np.array_equal(llr < 0, bits == 1)

    def test_awgn_llr_scaling(self):
        # mean LLR for the zero bit is 2/sigma^2, variance 4/sigma^2
        cfg = ChannelConfig(AWGN, 2.0, rate_for_ebn0=0.5)
        sigma2 = cfg.noise_variance()
        llr = transmit(np.zeros(200_000, dtype=np.uint8), cfg, 3)
        assert llr.mean() == pytest.approx(2 / sigma2, rel=0.02)
        assert llr.var() == pytest.approx(4 / sigma2, rel=0.02)

    def test_awgn_sign_error_rate(self):
        ebn0_db, rate = 2.0, 0.5
        cfg = ChannelConfig(AWGN, ebn0_db, rate_for_ebn0=rate)
        n_sym = 1_000_000
        llr = transmit(np.zeros(n_sym, dtype=np.uint8), cfg, 4)
        p_hat = (llr < 0).mean()
        arg = math.sqrt(2 * rate * 10 ** (ebn0_db / 10))
        p_theory = 0.5 * erfc(arg / math.sqrt(2))
        tol = 3 * math.sqrt(p_theory * (1 - p_theory) / n_sym)
        assert abs(p_hat - p_theory) <= tol

    def test_bec_full_erasure(self):
        cfg = ChannelConfig(BEC, 1.0)
        assert not transmit(np.ones(64, dtype=np.uint8), cfg, 5).any()

    def test_bec_no_erasure_saturated(self):
        cfg = ChannelConfig(BEC, 0.0)
        bits = np.array([0, 1, 0, 1], dtype=np.uint8)
        assert transmit(bits, cfg, 6).tolist() == [40.0, -40.0, 40.0, -40.0]

    def test_bec_empirical_erasure_rate(self):
        cfg = ChannelConfig(BEC, 0.3)
        llr = transmit(np.zeros(100_000, dtype=np.uint8), cfg, 7)
        assert (llr == 0).mean() == pytest.approx(0.3, abs=0.01)

    def test_seed_reproducible(self):
        cfg = ChannelConfig(AWGN, 1.0, rate_for_ebn0=0.5)
        bits = np.zeros(100, dtype=np.uint8)
        assert np.array_equal(transmit(bits, cfg, 42), transmit(bits, cfg, 42))


class TestDepunctureRx:
    def test_zero_puncture_identity(self):
        p = custom_pattern([], 3)
        llr = np.linspace(-1, 1, 8)
        assert np.array_equal(depuncture_rx(llr, p), llr)

    def test_wqp_toy_placement(self):
        rx = np.array([1.0, 2.0, 3.0, 4.0])
        out = depuncture_rx(rx, _wqp_toy())
        assert out.tolist() == [0.0, 0.0, 0.0, 1.0, 0.0, 2.0, 3.0, 4.0]

    def test_round_trip_positions(self):
        rng = np.random.default_rng(8)
        for batch in [(), (5,), (2, 3), (0,)]:
            for _ in range(30):
                n = int(rng.integers(2, 9))
                q = int(rng.integers(1, 1 << n))
                p = qup_pattern(n, q)
                llr = rng.normal(0, 1, batch + (1 << n,))
                rx = puncture_tx(llr, p)
                restored = depuncture_rx(rx, p)
                assert restored.shape == llr.shape and restored.dtype == np.float64
                keep = np.setdiff1d(np.arange(1 << n), np.array(p.coded_set))
                assert np.array_equal(restored[..., keep], llr[..., keep])
                assert not restored[..., np.array(p.coded_set)].any()
                assert (restored == 0).sum() >= q * math.prod(batch)
                # The reference: a frame-major scatter.
                scatter = np.zeros(batch + (1 << n,))
                scatter[..., p.kept_positions] = rx
                assert np.array_equal(restored, scatter)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            depuncture_rx(np.zeros(5), _wqp_toy())

    def test_scalar_input_names_the_shape(self):
        with pytest.raises(ValueError,
                           match=r"received length undefined != N - Q = 4 \(shape \(\)\)"):
            depuncture_rx(0.5, _wqp_toy())
