import gc
import itertools
import json
import tracemalloc
import weakref
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from polarpunct import codec
from polarpunct.bitops import bit_reversal_permutation, bit_reverse
from polarpunct.codec import (
    _BLOCK,
    _boxplus,
    _g,
    _softplus,
    _step,
    crc_append,
    crc_check,
    crc_remainder,
    encode,
    extract_payload,
    place_payload,
    sc_decode,
    scl_decode,
)
from polarpunct.construct import (
    CRC_POLYNOMIALS,
    CRC_WIDTHS,
    PolarCodeSpec,
    bec_bhattacharyya,
    ga_reliability,
    select_information_set,
)

from oracles import (
    crc_remainder_intdiv,
    generator_matrix,
    ml_codeword_oracle,
    sc_full_reference,
    scl_eager_reference,
    sequential_bit_map_oracle,
)

DATA = Path(__file__).parent / "data"


# ------------------------------------------------------------------ encoder

class TestEncode:
    def test_golden_vectors(self):
        with open(DATA / "golden_encodings.json") as fh:
            vectors = json.load(fh)["vectors"]
        for vec in vectors:
            assert encode(vec["u"]).tolist() == vec["x"]

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(17)
        for n in range(1, 11):
            G = generator_matrix(n)
            u = rng.integers(0, 2, (100, 1 << n), dtype=np.uint8)
            assert np.array_equal(encode(u), u @ G % 2)

    def test_generator_is_an_involution(self):
        for n in range(1, 7):
            G = generator_matrix(n)
            assert np.array_equal(G @ G % 2, np.eye(1 << n, dtype=np.uint8))

    def test_encode_involution(self):
        rng = np.random.default_rng(1)
        for n in (1, 4, 9):
            u = rng.integers(0, 2, (16, 1 << n), dtype=np.uint8)
            assert np.array_equal(encode(encode(u)), u)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 2, 64, dtype=np.uint8)
        b = rng.integers(0, 2, 64, dtype=np.uint8)
        assert np.array_equal(encode(a ^ b), encode(a) ^ encode(b))

    def test_all_zero(self):
        assert not encode(np.zeros(32, dtype=np.uint8)).any()

    def test_size_two_kernel(self):
        assert encode([1, 0]).tolist() == [1, 0]
        assert encode([0, 1]).tolist() == [1, 1]
        assert encode([1, 1]).tolist() == [0, 1]

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            encode(np.zeros(12, dtype=np.uint8))

    def test_transform_permutation_split(self):
        # encode == the Kronecker power of [[1, 0], [1, 1]] followed by the bit-reversal gather
        rng = np.random.default_rng(3)
        u = rng.integers(0, 2, 128, dtype=np.uint8)
        w = u @ reduce(np.kron, [np.array([[1, 0], [1, 1]])] * 7) % 2
        perm = np.array([bit_reverse(i, 7) for i in range(128)])
        assert np.array_equal(encode(u), w[perm])

    def test_bit_reversal_table(self):
        # N = 1 needs no special case; the cached table is shared, so read-only
        assert bit_reversal_permutation(0).tolist() == [0]
        assert encode([1]).tolist() == [1]
        for n in range(1, 11):
            perm = bit_reversal_permutation(n)
            assert perm.tolist() == [bit_reverse(i, n) for i in range(1 << n)]
            with pytest.raises(ValueError):
                perm[0] = 1


@pytest.mark.parametrize("transform", [encode])
@pytest.mark.parametrize("shape", [(8,), (0, 8), (2, 3, 8), (1,), (4, 1)])
def test_encoder_keeps_batch_shape(transform, shape):
    # Position-major inside, the caller's (..., N) layout outside; an empty
    # batch and N = 1 included.
    N = shape[-1]
    u = np.random.default_rng(23).integers(0, 2, shape, dtype=np.uint8)
    x = transform(u)
    assert x.shape == shape and x.dtype == np.uint8
    G = generator_matrix(N.bit_length() - 1)
    assert np.array_equal(x, u @ G % 2)


class TestEncodeProperties:
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.integers(0, 9).flatmap(lambda n: hnp.arrays(
        np.uint8, st.tuples(st.integers(1, 3), st.just(1 << n)), elements=st.integers(0, 1))))
    def test_encode_is_an_involution(self, u):
        assert np.array_equal(encode(encode(u)), u)


class TestPayloadPlacement:
    def test_round_trip(self):
        spec = select_information_set(bec_bhattacharyya(4, 0.5), 9)
        rng = np.random.default_rng(4)
        payload = rng.integers(0, 2, (5, 9), dtype=np.uint8)
        u = place_payload(payload, spec)
        assert np.array_equal(extract_payload(u, spec), payload)
        frozen = np.array(spec.frozen_set)
        assert not u[..., frozen].any()

    def test_length_checked(self):
        spec = select_information_set(bec_bhattacharyya(4, 0.5), 9)
        with pytest.raises(ValueError):
            place_payload(np.zeros(8, dtype=np.uint8), spec)
        # Too short would index past the end, too long would drop bits unnoticed.
        for length in (8, 32):
            with pytest.raises(ValueError, match=f"u length {length} != N = 16"):
                extract_payload(np.zeros((2, length), dtype=np.uint8), spec)

    @pytest.mark.parametrize("call", [
        lambda spec: place_payload(np.uint8(1), spec),
        lambda spec: extract_payload(np.uint8(1), spec),
        lambda spec: sc_decode(1.0, spec),
        lambda spec: scl_decode(1.0, spec, 2),
        lambda spec: encode(np.uint8(1)),
    ], ids=["place_payload", "extract_payload", "sc_decode", "scl_decode", "encode"])
    def test_scalar_input_names_its_shape(self, call):
        spec = select_information_set(bec_bhattacharyya(4, 0.5), 9)
        with pytest.raises(ValueError, match=r"\(shape \(\)\)"):
            call(spec)


# ------------------------------------------------------------------ CRC

# Each registered CRC width; the ids poly0 and poly1 follow the table's order.
_EACH_WIDTH = pytest.mark.parametrize("poly", [8, 16], ids=["poly0", "poly1"])


class TestCrc:
    @_EACH_WIDTH
    def test_matches_long_division_oracle(self, poly):
        rng = np.random.default_rng(5)
        for _ in range(500):
            length = int(rng.integers(1, 96))
            bits = rng.integers(0, 2, length, dtype=np.uint8)
            assert crc_remainder(bits, poly).tolist() == \
                crc_remainder_intdiv(bits, poly, CRC_POLYNOMIALS[poly])

    @_EACH_WIDTH
    def test_single_bit_messages(self, poly):
        for bit in (0, 1):
            assert crc_remainder([bit], poly).tolist() == \
                crc_remainder_intdiv([bit], poly, CRC_POLYNOMIALS[poly])

    def test_zero_message_zero_crc(self):
        assert not crc_remainder(np.zeros(40, dtype=np.uint8), 8).any()

    @_EACH_WIDTH
    def test_append_then_check(self, poly):
        rng = np.random.default_rng(6)
        for _ in range(100):
            bits = rng.integers(0, 2, int(rng.integers(1, 60)), dtype=np.uint8)
            assert crc_check(crc_append(bits, poly), poly)

    @_EACH_WIDTH
    def test_detects_every_single_bit_flip(self, poly):
        rng = np.random.default_rng(7)
        msg = crc_append(rng.integers(0, 2, 24, dtype=np.uint8), poly)
        for pos in range(msg.size):
            bad = msg.copy()
            bad[pos] ^= 1
            assert not crc_check(bad, poly)

    def test_batch_check_matches_scalar(self):
        rng = np.random.default_rng(8)
        frames = rng.integers(0, 2, (64, 30), dtype=np.uint8)
        got = crc_check(frames, 8)
        want = np.array([crc_check(f, 8) for f in frames])
        assert np.array_equal(got, want)

    def test_polynomial_table(self):
        # The one table of polynomials, and the widths a spec may carry, derived from it.
        assert CRC_POLYNOMIALS == {8: 0x9B, 16: 0x8005}
        assert CRC_WIDTHS == (0, 8, 16)
        for width in (12, 4):
            with pytest.raises(ValueError,
                               match=f"^no CRC polynomial registered for width {width}$"):
                crc_remainder([1, 0, 1], width)
        # 8.0 == 8 and True == 1 as dict and cache keys, so the type is checked first.
        for width in (8.0, True):
            with pytest.raises(ValueError, match=f"width must be an integer, got {width!r}"):
                crc_remainder([1, 0, 1], width)

    def test_unknown_poly_rejected(self):
        with pytest.raises(ValueError):
            crc_remainder([1, 0, 1], 0x9B)


class TestCrcProperties:
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.sampled_from([8, 16]),
           st.lists(st.integers(1, 4), min_size=1, max_size=2), st.integers(1, 40), st.data())
    def test_batched_append_check_and_remainder(self, poly, batch, k, data):
        # (B, k) and (B, L, k) batches: every message passes after crc_append,
        # fails with one bit flipped, and has the long-division remainder.
        bits = data.draw(hnp.arrays(np.uint8, (*batch, k), elements=st.integers(0, 1)))
        coded = crc_append(bits, poly)
        assert coded.shape == (*batch, k + poly)
        assert np.array_equal(coded[..., :k], bits)
        ok = crc_check(coded, poly)
        assert ok.shape == tuple(batch) and ok.all()
        flip = data.draw(st.integers(0, k + poly - 1))
        coded[..., flip] ^= 1
        assert not crc_check(coded, poly).any()
        rows = crc_remainder(bits, poly).reshape(-1, poly)
        for row, msg in zip(rows, bits.reshape(-1, k)):
            assert row.tolist() == crc_remainder_intdiv(msg, poly, CRC_POLYNOMIALS[poly])


# ------------------------------------------------------------------ node kernels

def _boxplus_formula(a, b):
    """The exact boxplus written out once, unblocked, as the decoders define it."""
    out = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    out += np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))
    return out


def _g_formula(a, b, c):
    return b + (1.0 - 2.0 * c) * a


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@st.composite
def _kernel_operands(draw):
    """Operands ``a`` and ``b`` of shape (rows, frames[, paths_ab]) and partial
    sums ``c`` of shape (rows, frames[, paths_c]), sized around ``_BLOCK``:
    one row of exactly or more than a block, row counts a block does not
    divide, and one or L paths on either side. LLRs mix noise, integers and
    exact zeros."""
    frames = draw(st.sampled_from([1, 5, 700, 2100, _BLOCK, _BLOCK + 3]))
    L = draw(st.sampled_from([1, 3, 8]))
    paths_ab, paths_c = draw(st.sampled_from([(1, L), (L, 1), (L, L)]))
    rows = draw(st.integers(1, max(1, 3 * _BLOCK // (frames * L)) + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()) and paths_ab == paths_c == 1:
        ab_shape = c_shape = (rows, frames)
    else:
        ab_shape, c_shape = (rows, frames, paths_ab), (rows, frames, paths_c)

    def llrs():
        x = rng.normal(0.0, 8.0, ab_shape)
        pick = rng.random(ab_shape)
        x[pick < 0.3] = rng.integers(-3, 4, ab_shape)[pick < 0.3]
        x[pick < 0.1] = 0.0
        return x

    return llrs(), llrs(), rng.integers(0, 2, c_shape, dtype=np.uint8)


class TestNodeKernels:
    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(_kernel_operands(), st.sampled_from([_BLOCK, 1000, 37]), st.booleans())
    def test_blocked_kernels_equal_the_unblocked_formula(self, ops, block, root):
        # The halves of a node below the root, or the root's halves gathered
        # from coded order: tree row i at an even coded row, rows[i], and its
        # partner at rows[i] + 1, as the bit reversal places them; the coded
        # array is F-ordered, so each gather reads a strided source.
        a, b, c = ops
        if root:
            rows = 2 * np.random.default_rng(len(a)).permutation(len(a))
            node = np.empty((2 * len(a),) + a.shape[1:], order="F")
            node[rows], node[rows + 1] = a, b
        else:
            rows, node = None, np.concatenate([a, b])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codec, "_BLOCK", block)
            box = _step(_boxplus, node, rows)
            g = _step(_g, node, rows, c)
        assert box.shape == a.shape
        assert np.array_equal(_bits(box), _bits(_boxplus_formula(a, b)))
        # A zero input stays exactly zero through the check node.
        assert not box[(a == 0) | (b == 0)].any()
        want = _g_formula(a, b, c)
        assert g.shape == want.shape
        assert np.array_equal(_bits(g), _bits(want))

    def test_softplus_identity_is_bitwise(self):
        # The SCL leaf takes softplus(m) as m + softplus(-m) for m >= 0.
        tiny = np.finfo(np.float64).tiny
        m = np.concatenate([
            [0.0, 5e-324, 1e-320, tiny / 2, tiny, 1e-300, 1e-16, 0.5, np.log(2.0), 1.0,
             36.7, 37.0, 40.0, 709.0, 710.0, 745.2, 1e16, 1e300, 1e308,
             np.finfo(np.float64).max, np.inf],
            np.random.default_rng(25).uniform(0.0, 50.0, 10_000),
            10.0 ** np.random.default_rng(26).uniform(-320.0, 308.0, 10_000),
        ])
        assert np.array_equal(_bits(_softplus(m)), _bits(m + _softplus(-m)))
        assert _softplus(np.float64(0.0)) == np.log(2.0)


# ------------------------------------------------------------------ SC

def _noiseless_llr(x):
    return np.where(np.asarray(x) == 0, 40.0, -40.0)


def _spec(n, info):
    return PolarCodeSpec(n=n, k=len(info), crc_bits=0, info_set=tuple(sorted(info)),
                         construction="explicit")


class TestScDecode:
    def test_noiseless_round_trip(self):
        rng = np.random.default_rng(9)
        for n in (2, 4, 6, 8, 10):
            N = 1 << n
            k = max(1, N // 2)
            spec = select_information_set(bec_bhattacharyya(n, 0.5), k)
            payload = rng.integers(0, 2, (8, k), dtype=np.uint8)
            u = place_payload(payload, spec)
            u_hat = sc_decode(_noiseless_llr(encode(u)), spec)
            assert np.array_equal(u_hat, u)

    def test_all_zero_erasure_free(self):
        spec = select_information_set(bec_bhattacharyya(4, 0.5), 8)
        llr = np.full(16, 40.0)
        assert not sc_decode(llr, spec).any()

    def test_matches_sequential_bit_map_oracle_n4(self):
        n = 2
        spec = select_information_set(bec_bhattacharyya(n, 0.5), 4)
        rng = np.random.default_rng(10)
        for _ in range(300):
            llr = rng.normal(0.0, 2.0, 4)
            assert np.array_equal(sc_decode(llr, spec),
                                  sequential_bit_map_oracle(llr, n))

    def test_zero_llr_ties_decode_to_zero(self):
        spec = select_information_set(bec_bhattacharyya(3, 0.5), 8)
        assert not sc_decode(np.zeros(8), spec).any()

    def test_deterministic(self):
        spec = select_information_set(ga_reliability(5, 1.0), 16)
        rng = np.random.default_rng(11)
        llr = rng.normal(0, 2, 32)
        assert np.array_equal(sc_decode(llr, spec), sc_decode(llr, spec))

    def test_punctured_source_zeroes_destination_llr(self):
        # dropping the coded symbol paired with one source index must leave
        # exactly zero decision LLR at the propagated destination channel
        from polarpunct.degrade import propagate

        rng = np.random.default_rng(12)
        for n in (1, 2, 3):
            N = 1 << n
            spec = select_information_set(bec_bhattacharyya(n, 0.5), N)
            for src in range(N):
                [(_, dst)] = propagate({src}, n).pairs
                llr = rng.uniform(0.5, 3.0, N)
                llr[bit_reverse(src, n)] = 0.0
                _, dec = sc_full_reference(llr, spec, return_decision_llrs=True)
                assert dec[dst] == 0.0

    def test_blocked_batch_matches_full_reference(self):
        # 160 frames at n = 8: the top node halves hold 128 * 160 elements,
        # more than one kernel block.
        assert 128 * 160 > _BLOCK
        rng = np.random.default_rng(27)
        spec = select_information_set(ga_reliability(8, 1.0), 93)
        x = encode(place_payload(rng.integers(0, 2, (160, 93), dtype=np.uint8), spec))
        llr = (1.0 - 2.0 * x) * 1.5 + rng.normal(0.0, 1.5, x.shape)
        llr[:, rng.choice(256, 70, replace=False)] = 0.0
        llr[::4] = np.round(llr[::4])
        assert np.array_equal(sc_decode(llr, spec), sc_full_reference(llr, spec))

    def test_tie_survives_information_only_node(self):
        # Both channels carry information (a Rate-1 node). Bit 0 sees
        # f(0, -1) = 0 and ties to 0; bit 1 then sees -1 + 0 < 0. Hard
        # deciding the channel LLRs and re-encoding would give [1, 1].
        spec = _spec(1, {0, 1})
        assert sc_decode(np.array([0.0, -1.0]), spec).tolist() == [0, 1]

    def test_all_frozen_code(self):
        for n in (0, 1, 4):
            spec = _spec(n, set())
            llr = np.random.default_rng(n).normal(0, 2, (3, 1 << n))
            assert not sc_decode(llr, spec).any()
            assert not sc_full_reference(llr, spec).any()
            for L in (1, 4):
                out = scl_decode(llr, spec, L)
                assert out.shape == llr.shape and out.dtype == np.uint8 and not out.any()

    def test_pruned_matches_full_reference(self):
        # Every information set at n <= 3, the empty one included, and 240
        # random sets at n = 4..8. Integer LLRs and exact zeros make
        # decision LLRs tie at 0, which exercises the tie rule.
        rng = np.random.default_rng(22)
        specs = [_spec(n, set(info)) for n in range(4)
                 for r in range((1 << n) + 1)
                 for info in itertools.combinations(range(1 << n), r)]
        for _ in range(240):
            n = int(rng.integers(4, 9))
            N = 1 << n
            info = rng.choice(N, int(rng.integers(0, N + 1)), replace=False)
            specs.append(_spec(n, set(info.tolist())))
        for spec in specs:
            shape = (6, spec.size)
            noisy = rng.normal(0.5, 2.0, shape)
            noisy[rng.random(shape) < 0.3] = 0.0
            llr = np.concatenate([rng.integers(-2, 3, shape).astype(float), noisy])
            assert np.array_equal(sc_decode(llr, spec), sc_full_reference(llr, spec))


# ------------------------------------------------------------------ SCL

class TestSclDecode:
    def test_list_one_no_crc_equals_sc(self):
        spec = select_information_set(ga_reliability(5, 0.0), 16)
        rng = np.random.default_rng(14)
        payload = rng.integers(0, 2, (1000, 16), dtype=np.uint8)
        u = place_payload(payload, spec)
        x = encode(u)
        llr = (1.0 - 2.0 * x) * 2.0 + rng.normal(0, 1.8, x.shape)
        assert np.array_equal(scl_decode(llr, spec, 1), sc_decode(llr, spec))

    def test_noiseless_any_list(self):
        spec = select_information_set(bec_bhattacharyya(4, 0.5), 8)
        rng = np.random.default_rng(15)
        payload = rng.integers(0, 2, (10, 8), dtype=np.uint8)
        u = place_payload(payload, spec)
        for L in (1, 2, 8):
            assert np.array_equal(scl_decode(_noiseless_llr(encode(u)), spec, L), u)

    def test_full_list_equals_exhaustive_ml(self):
        n, k = 3, 4
        spec = select_information_set(bec_bhattacharyya(n, 0.5), k)
        rng = np.random.default_rng(16)
        for _ in range(60):
            payload = rng.integers(0, 2, k, dtype=np.uint8)
            x = encode(place_payload(payload, spec))
            llr = (1.0 - 2.0 * x) * 1.2 + rng.normal(0, 1.5, x.shape)
            got = scl_decode(llr, spec, 1 << k)
            want = ml_codeword_oracle(llr, spec)
            assert np.array_equal(got, want)

    def test_full_list_with_crc_equals_crc_filtered_ml(self):
        n, k, crc = 4, 4, 8
        spec = select_information_set(ga_reliability(n, 0.0), k + crc, crc_bits=crc)
        rng = np.random.default_rng(18)
        L = 1 << (k + crc)
        for _ in range(12):
            payload = crc_append(rng.integers(0, 2, k, dtype=np.uint8), crc)
            x = encode(place_payload(payload, spec))
            llr = (1.0 - 2.0 * x) * 1.0 + rng.normal(0, 1.6, x.shape)
            got = scl_decode(llr, spec, L)
            want = ml_codeword_oracle(llr, spec, crc=crc)
            assert np.array_equal(got, want)

    def test_unregistered_crc_width_rejected(self):
        # A spec carries no CRC width without a polynomial, so none reaches the decoder.
        with pytest.raises(ValueError, match=r"crc_bits must be one of \(0, 8, 16\), got 4"):
            PolarCodeSpec(n=4, k=4, crc_bits=4, info_set=tuple(range(8, 16)),
                          construction="fixed")
        with pytest.raises(ValueError, match="width 4"):
            crc_remainder([1, 0, 1], 4)

    def test_list_size_validated(self):
        spec = select_information_set(ga_reliability(3, 0.0), 4)
        with pytest.raises(ValueError):
            scl_decode(np.zeros(8), spec, 0)

    @pytest.mark.parametrize("list_size", [2.5, "2", True])
    def test_list_size_must_be_an_int(self, list_size):
        spec = select_information_set(ga_reliability(3, 0.0), 4)
        with pytest.raises(ValueError, match=f"list_size must be an integer, got {list_size!r}"):
            scl_decode(np.zeros(8), spec, list_size)

    def test_deterministic(self):
        spec = select_information_set(ga_reliability(6, 0.5), 40, crc_bits=8)
        rng = np.random.default_rng(19)
        llr = rng.normal(0, 2, (4, 64))
        a = scl_decode(llr, spec, 8)
        b = scl_decode(llr, spec, 8)
        assert np.array_equal(a, b)

    def test_pruned_list_matches_eager_reference(self):
        # Every list is shorter than 2**(k + crc_bits), so paths are pruned
        # and cloned. Integer LLRs and exact zeros make path metrics tie
        # exactly, which exercises the stable tie rule.
        rng = np.random.default_rng(21)
        for n in range(1, 8):
            N = 1 << n
            for crc in (0, 8):
                for L in (2, 3, 5, 8):
                    count = max(N // 2, crc + 1, L.bit_length())
                    if count > N:
                        continue
                    assert L < 1 << count
                    spec = select_information_set(ga_reliability(n, 0.0), count,
                                                  crc_bits=crc)
                    payload = rng.integers(0, 2, (12, count - crc), dtype=np.uint8)
                    if crc:
                        payload = np.stack([crc_append(p, crc) for p in payload])
                    x = encode(place_payload(payload, spec))
                    noisy = (1.0 - 2.0 * x) * 1.5 + rng.normal(0, 1.5, x.shape)
                    noisy[rng.random(x.shape) < 0.2] = 0.0
                    integer = rng.integers(-2, 3, x.shape).astype(float)
                    llr = np.concatenate([noisy, integer])
                    got = scl_decode(llr, spec, L)
                    want = scl_eager_reference(llr, spec, L, crc=crc)
                    assert np.array_equal(got, want), (n, L, crc)

    def test_blocked_list_matches_eager_reference(self):
        # 40 frames, L = 8 at n = 7: the root's g step meets 8-path partial
        # sums of 64 * 40 * 8 elements, more than one kernel block.
        assert 64 * 40 * 8 > _BLOCK
        rng = np.random.default_rng(28)
        crc = 8
        spec = select_information_set(ga_reliability(7, 1.0), 48 + crc, crc_bits=crc)
        payload = crc_append(rng.integers(0, 2, (40, 48), dtype=np.uint8), crc)
        x = encode(place_payload(payload, spec))
        llr = (1.0 - 2.0 * x) * 1.2 + rng.normal(0.0, 1.5, x.shape)
        llr[:, rng.choice(128, 30, replace=False)] = 0.0
        llr[::4] = np.round(llr[::4])
        got = scl_decode(llr, spec, 8)
        assert np.array_equal(got, scl_eager_reference(llr, spec, 8, crc=crc))

    def test_crc_rescues_frames_sc_loses(self):
        spec = select_information_set(ga_reliability(6, 1.0), 40, crc_bits=8)
        rng = np.random.default_rng(20)
        payload = np.stack([crc_append(rng.integers(0, 2, 32, dtype=np.uint8),
                                       8) for _ in range(400)])
        u = place_payload(payload, spec)
        x = encode(u)
        llr = (1.0 - 2.0 * x) * 1.4 + rng.normal(0, 1.3, x.shape)
        sc_err = (sc_decode(llr, spec) != u).any(axis=1).sum()
        scl_err = (scl_decode(llr, spec, 8) != u).any(axis=1).sum()
        assert scl_err < sc_err


@st.composite
def _code_and_llrs(draw, crc_bits=0):
    """A random information set at n <= 6 and up to 4 frames of LLRs with
    exact zeros."""
    n = draw(st.integers(crc_bits.bit_length(), 6))
    N = 1 << n
    info = draw(st.sets(st.integers(0, N - 1), min_size=crc_bits + (crc_bits > 0)))
    spec = PolarCodeSpec(n=n, k=len(info) - crc_bits, crc_bits=crc_bits,
                         info_set=tuple(sorted(info)), construction="random")
    values = st.one_of(st.just(0.0), st.integers(-3, 3).map(float),
                       st.floats(-30.0, 30.0))
    frames = draw(st.integers(1, 4))
    return spec, draw(hnp.arrays(np.float64, (frames, N), elements=values))


class TestScProperties:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(_code_and_llrs())
    def test_pruned_equals_full_reference(self, case):
        spec, llr = case
        assert np.array_equal(sc_decode(llr, spec), sc_full_reference(llr, spec))

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(_code_and_llrs())
    def test_batch_equals_frame_by_frame(self, case):
        spec, llr = case
        alone = np.stack([sc_decode(frame, spec) for frame in llr])
        assert np.array_equal(sc_decode(llr, spec), alone)


class TestSclProperties:
    # With one path the CRC has nothing to pick, so CRC specs decode as SC too.
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.one_of(_code_and_llrs(), _code_and_llrs(crc_bits=8)))
    def test_list_one_equals_sc(self, case):
        spec, llr = case
        assert np.array_equal(scl_decode(llr, spec, 1), sc_decode(llr, spec))

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.one_of(_code_and_llrs(), _code_and_llrs(crc_bits=8)))
    def test_batch_equals_frame_by_frame(self, case):
        spec, llr = case
        batch = scl_decode(llr, spec, 4)
        alone = np.stack([scl_decode(frame, spec, 4) for frame in llr])
        assert np.array_equal(batch, alone)

    # Random information sets reach nodes where only one child holds an
    # information leaf, so only one side returns a path permutation.
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.one_of(_code_and_llrs(), _code_and_llrs(crc_bits=8)),
           st.sampled_from([2, 3, 4, 8]))
    def test_matches_eager_reference(self, case, L):
        spec, llr = case
        assert np.array_equal(scl_decode(llr, spec, L),
                              scl_eager_reference(llr, spec, L, crc=spec.crc_bits))


def _peak(decode, llr, spec):
    """tracemalloc peak of ``decode(llr, spec)``, after a first call fills the caches."""
    decode(llr, spec)
    tracemalloc.start()
    try:
        decode(llr, spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("decode", [sc_decode, lambda llr, spec: scl_decode(llr, spec, 1),
                                    lambda llr, spec: scl_decode(llr, spec, 4)],
                         ids=["sc", "scl", "scl4"])
class TestDecoderFrontEnd:
    def setup_method(self):
        self.spec = _spec(3, {3, 5, 6, 7})

    def test_wrong_length_names_both(self, decode):
        with pytest.raises(ValueError, match=r"LLR length 7 != N = 8"):
            decode(np.zeros(7), self.spec)

    @pytest.mark.parametrize("shape", [(8,), (0, 8), (2, 3, 8)])
    def test_batch_shape_kept(self, decode, shape):
        llr = np.random.default_rng(5).normal(1.0, 2.0, size=shape)
        out = decode(llr, self.spec)
        assert out.shape == shape
        frames = llr.reshape(-1, 8)
        alone = [decode(frame, self.spec) for frame in frames]
        assert np.array_equal(out.reshape(-1, 8), np.array(alone, dtype=np.uint8).reshape(-1, 8))

    @pytest.mark.parametrize("frames", [None, 2 * _BLOCK // 8 + 1], ids=["frame", "blocks"])
    def test_input_freed_on_return(self, decode, frames):
        # The recursion refers to itself, a reference cycle: LLRs it captured
        # would live until the collector ran, so it must take them as arguments.
        # Position-major like depuncture_rx's output, so the decoder reads a
        # view of it; "blocks" gathers the root in more than one block.
        data = np.random.default_rng(6).normal(1.0, 2.0, (8,) if frames is None else (8, frames))
        ref = weakref.ref(data)
        gc.disable()
        try:
            decode(data.T, self.spec)
            del data
            assert ref() is None
        finally:
            gc.enable()

    def test_frame_major_input_costs_no_more_memory(self, decode):
        # A C-contiguous (B, N) batch, as transmit hands it on unpunctured,
        # reaches the root as a strided (N, B) view. Each root block gathers
        # its own rows of it, with no copy of the whole view per block: the
        # peak is that of the same LLRs in position-major order. At N = 256
        # the root's halves hold 128 * 1024 elements, eight blocks.
        assert 128 * 1024 > 2 * _BLOCK
        spec = select_information_set(ga_reliability(8, 1.0), 93)
        llr = np.random.default_rng(29).normal(1.0, 2.0, (1024, 256))
        position_major = np.ascontiguousarray(llr.T).T
        frame_major_peak, position_major_peak = (_peak(decode, x, spec)
                                                 for x in (llr, position_major))
        assert frame_major_peak <= position_major_peak + 16 * 1024

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(case=st.one_of(_code_and_llrs(), _code_and_llrs(crc_bits=8)),
           block=st.integers(1, 40))
    def test_any_block_size_gives_the_same_bits(self, decode, case, block):
        # The root gathers its halves from the coded-order input block by
        # block; frame-major and position-major inputs read the same values.
        spec, llr = case
        want = decode(llr, spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codec, "_BLOCK", block)
            for x in (llr, np.ascontiguousarray(llr.T).T):
                assert np.array_equal(decode(x, spec), want)
