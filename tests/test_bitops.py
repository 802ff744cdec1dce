import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarpunct.bitops import bit_reverse, check_index, covers, index_set, popcount
from polarpunct.degrade import propagate, punctured_bit_channels
from polarpunct.puncture import custom_pattern
from polarpunct.sim import SimConfig

from oracles import bit_reverse_str


class TestBitReverse:
    def test_worked_values(self):
        assert bit_reverse(4, 3) == 1
        assert bit_reverse(3, 3) == 6
        assert bit_reverse(7, 3) == 7

    def test_involution_and_permutation(self):
        for n in range(1, 11):
            images = [bit_reverse(i, n) for i in range(1 << n)]
            assert sorted(images) == list(range(1 << n))
            for i in range(1 << n):
                assert bit_reverse(images[i], n) == i

    @pytest.mark.parametrize("n", [-1, 33, True, 3.0, np.int64(3), "3"])
    def test_width_out_of_range(self, n):
        with pytest.raises(ValueError, match="width"):
            bit_reverse(0, n)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            bit_reverse(8, 3)
        with pytest.raises(ValueError, match="out of range"):
            bit_reverse(-1, 3)

    def test_array_matches_string_oracle_at_every_width(self):
        rng = np.random.default_rng(0)
        for n in range(33):
            N = 1 << n
            idx = np.unique(np.concatenate([[0, N - 1], rng.integers(0, N, 64)]))
            rev = bit_reverse(idx, n)
            assert rev.shape == idx.shape
            assert rev.tolist() == [bit_reverse_str(int(i), n) for i in idx]
            assert np.array_equal(bit_reverse(rev, n), idx)

    def test_array_keeps_shape_and_int_stays_int(self):
        idx = np.arange(8).reshape(2, 4)
        assert bit_reverse(idx, 3).tolist() == [[0, 4, 2, 6], [1, 5, 3, 7]]
        assert type(bit_reverse(np.int64(3), 3)) is int
        assert bit_reverse([], 3).tolist() == []

    def test_widest_width_needs_no_table(self):
        idx = np.array([1, 5, (1 << 32) - 2])
        tracemalloc.start()
        try:
            rev = bit_reverse(idx, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rev.tolist() == [1 << 31, (1 << 31) | (1 << 29), (1 << 31) - 1]
        assert peak < 1 << 16

    @pytest.mark.parametrize("bad", [1.5, [1.5, 2], [2, 2.5], np.array([2.0]), ["1"]])
    def test_non_integer_rejected(self, bad):
        with pytest.raises(ValueError, match="integer"):
            bit_reverse(bad, 3)

    @pytest.mark.parametrize("bad", [True, np.True_, [True, 2], [2, np.False_],
                                     np.array([True, False]), [[2], [True]]])
    def test_bool_rejected(self, bad):
        # Not read as the index 1 or 0.
        with pytest.raises(ValueError, match="index must be an integer, got"):
            bit_reverse(bad, 3)

    @pytest.mark.parametrize("bad", [[8], [-1], np.array([0, 9], dtype=np.uint8)])
    def test_array_index_out_of_width(self, bad):
        with pytest.raises(ValueError, match="out of range"):
            bit_reverse(bad, 3)


    @pytest.mark.parametrize("bad, shown", [
        ([-1, 2**63], -1), ([5, 2**63], 2**63), ([np.uint64(2**64 - 1), 3], 2**64 - 1),
        (np.uint64(2**63), 2**63), (np.array([3, 2**63], dtype=np.uint64), 2**63)])
    def test_out_of_range_entry_named_exactly(self, bad, shown):
        # A list is read as int64, never through float64, which would print -1.0 or 9.2e+18.
        with pytest.raises(ValueError, match=rf"^index {shown} out of range") as exc:
            check_index(bad, 3)
        assert "." not in str(exc.value) and "e+" not in str(exc.value)

    def test_mixed_numpy_integer_list_read_exactly(self):
        idx = check_index([np.uint64(5), np.int64(3)], 3)
        assert idx.dtype == np.int64 and idx.tolist() == [5, 3]


class TestEdgeWidths:
    def test_width_zero_is_the_single_index_code(self):
        assert bit_reverse(0, 0) == 0
        assert bit_reverse(np.zeros(3, dtype=int), 0).tolist() == [0, 0, 0]
        assert propagate({0}, 0).pairs == ((0, 0),)
        assert propagate(set(), 0).levels == ((),)
        with pytest.raises(ValueError):
            bit_reverse(1, 0)

    def test_width_one(self):
        assert bit_reverse(np.array([0, 1]), 1).tolist() == [0, 1]
        assert propagate({1}, 1).pairs == ((1, 0),)
        assert propagate({0, 1}, 1).pairs == ((0, 0), (1, 1))


class TestPopcount:
    def test_matches_python_count(self):
        for n in (0, 1, 5, 12):
            idx = np.arange(1 << n)
            assert popcount(idx, n).tolist() == [bin(i).count("1") for i in range(1 << n)]
        assert popcount(np.array([(1 << 32) - 1]), 32).tolist() == [32]


class TestBitReverseSet:
    # A set of indices is reversed as a list, element by element.
    def test_per_element(self):
        assert bit_reverse([0, 1, 2, 3], 3).tolist() == [0, 4, 2, 6]

    def test_pi_closed_set(self):
        assert set(bit_reverse([0, 1, 2, 4], 3).tolist()) == {0, 1, 2, 4}

    def test_empty(self):
        assert bit_reverse([], 3).tolist() == []

    def test_cardinality_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            size = int(rng.integers(0, 1 << n))
            s = set(rng.choice(1 << n, size=size, replace=False).tolist())
            assert len(set(bit_reverse(list(s), n).tolist())) == len(s)

    def test_element_out_of_width(self):
        with pytest.raises(ValueError):
            bit_reverse([0, 9], 3)


class TestCovers:
    def test_worked_values(self):
        assert covers(6, 4, 3)
        assert not covers(4, 3, 3)

    def test_reflexive(self):
        for k in range(8):
            assert covers(k, k, 3)

    def test_transitive_and_antisymmetric(self):
        for n in range(1, 7):
            N = 1 << n
            mat = np.array([[covers(i, j, n) for j in range(N)] for i in range(N)])
            both = mat & mat.T
            assert np.array_equal(both, np.eye(N, dtype=bool))
            # i covers j and j covers k implies i covers k
            reach = (mat.astype(int) @ mat.astype(int)) > 0
            assert not (reach & ~mat).any()

    def test_covered_count_is_two_to_popcount(self):
        for n in range(1, 7):
            for i in range(1 << n):
                count = sum(covers(i, j, n) for j in range(1 << n))
                assert count == 1 << bin(i).count("1")

    def test_mixed_width_rejected(self):
        with pytest.raises(ValueError):
            covers(9, 1, 3)


@st.composite
def _index_input(draw):
    """A width n <= 6 and an index set for it: flat, with bad entries, nested or bare."""
    n = draw(st.integers(1, 6))
    index = st.integers(-2, (1 << n) + 1)
    good = st.one_of(index, index.map(np.int64), st.integers(0, (1 << n) + 1).map(np.uint8))
    bad = st.one_of(st.booleans(), st.booleans().map(np.bool_), index.map(float), st.floats(),
                    st.text(max_size=2), st.none())
    xs = draw(st.one_of(
        st.lists(good, max_size=12), st.lists(good, max_size=12),
        st.lists(st.one_of(good, bad), max_size=6),
        st.lists(st.lists(index, max_size=2), max_size=3), st.sets(index, max_size=6),
        st.builds(range, index, index), index))
    return n, xs


def _outcome(f, *args, **kwargs):
    """What ``f`` returns, or the ``ValueError`` it raises; any other error escapes."""
    try:
        return f(*args, **kwargs)
    except ValueError as exc:
        return exc


class TestIndexEntryPoints:
    # Every reader of an index or position set reads it through bitops.index_set.
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(_index_input())
    def test_entry_points_agree(self, case):
        n, xs = case
        read = _outcome(index_set, xs, n)
        pmap = _outcome(propagate, xs, n)
        assert isinstance(pmap, ValueError) == isinstance(read, ValueError)
        _outcome(bit_reverse, xs, n)
        _outcome(SimConfig, n=n, k=1, puncturing="custom", custom_coded=xs, sweep=(1.0,))
        punctured = _outcome(punctured_bit_channels, xs, n)
        pattern = _outcome(custom_pattern, xs, n)
        if isinstance(read, ValueError):
            return
        assert pmap.sources == tuple(sorted(set(xs)))
        if len(pmap.sources) < 1 << n:
            assert pattern.destination_set == tuple(sorted(punctured))
