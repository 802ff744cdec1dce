import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import butterfly_zero_set, propagate_reference, zero_capacity_channels

from polarpunct.bitops import bit_reverse, covers
from polarpunct.construct import (
    bec_bhattacharyya,
    ga_reliability,
    pw_reliability,
    select_information_set,
)
from polarpunct.degrade import PropagationMap, propagate, punctured_bit_channels


class TestPropagate:
    def test_worked_chain(self):
        pmap = propagate({2, 3, 4, 7}, 3)
        assert pmap.levels == ((2, 3, 4, 7), (2, 3, 0, 7), (2, 1, 0, 5), (2, 1, 0, 4))
        assert pmap.pairs == ((2, 2), (3, 1), (4, 0), (7, 4))
        assert pmap.destination_set == (0, 1, 2, 4)

    def test_full_occupancy_is_identity(self):
        for n in (1, 2, 3, 4):
            pmap = propagate(range(1 << n), n)
            assert all(s == d for s, d in pmap.pairs)

    def test_singleton_reaches_zero(self):
        # with no partner ever occupied every set bit is cleared in turn
        for n in (1, 3, 5):
            for i in (0, (1 << n) - 1, 1 << (n - 1)):
                pmap = propagate({i}, n)
                assert pmap.pairs == ((i, 0),)

    def test_empty_set(self):
        pmap = propagate(set(), 4)
        assert pmap.pairs == ()
        assert pmap.destination_set == ()

    def test_non_integer_rejected(self):
        # a float would otherwise be truncated silently by the array step
        with pytest.raises(ValueError, match="index must be an integer, got 2.5"):
            propagate([2.5], 3)

    @pytest.mark.parametrize("indices", [[True, 2], [2, np.False_], {True},
                                         np.array([True, False])])
    def test_bool_rejected(self, indices):
        # Not read as the index 1 or 0.
        with pytest.raises(ValueError, match="index must be an integer, got"):
            propagate(indices, 3)

    def test_numpy_integer_indices(self):
        assert propagate([np.int64(2), np.uint8(3)], 3) == propagate([2, 3], 3)
        for dtype in (np.int64, np.uint8):
            assert propagate(np.array([3, 2, 3], dtype=dtype), 3) == propagate([2, 3], 3)

    def test_matches_reference_exhaustively_n3(self):
        for bits in range(1 << 8):
            s = {i for i in range(8) if (bits >> i) & 1}
            got = dict(propagate(s, 3).pairs)
            assert got == propagate_reference(s, 3)[-1]

    def test_matches_reference_random(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            size = int(rng.integers(1, 1 << n))
            s = set(rng.choice(1 << n, size=size, replace=False).tolist())
            assert dict(propagate(s, n).pairs) == propagate_reference(s, n)[-1]

    def test_bijection_cardinality_covering(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            size = int(rng.integers(1, 1 << n))
            s = set(rng.choice(1 << n, size=size, replace=False).tolist())
            pmap = propagate(s, n)
            dests = [d for _, d in pmap.pairs]
            assert len(set(dests)) == len(s)
            assert all(covers(src, dst, n) for src, dst in pmap.pairs)

    def test_map_stores_only_its_two_ends(self):
        # the sources and their destinations; the levels between are derived
        assert [f.name for f in dataclasses.fields(PropagationMap)] == ["n", "sources", "targets"]
        pmap = propagate({2, 3, 4, 7}, 3)
        assert (pmap.n, pmap.sources, pmap.targets) == (3, (2, 3, 4, 7), (2, 1, 0, 4))
        same = PropagationMap(n=3, sources=(2, 3, 4, 7), targets=(2, 1, 0, 4))
        assert same == pmap and hash(same) == hash(pmap)
        assert same.levels == ((2, 3, 4, 7), (2, 3, 0, 7), (2, 1, 0, 5), (2, 1, 0, 4))
        assert pmap != PropagationMap(n=4, sources=pmap.sources, targets=pmap.targets)

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.integers(0, 10).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1)))))
    def test_levels_match_reference(self, case):
        n, s = case
        pmap = propagate(s, n)
        expected = tuple(tuple(level[i] for i in sorted(s)) for level in propagate_reference(s, n))
        assert pmap.levels == expected
        assert pmap.levels[0] == pmap.sources and pmap.levels[-1] == pmap.targets

    def test_iteration_order_irrelevant(self):
        a = propagate([7, 2, 4, 3], 3)
        b = propagate([2, 3, 4, 7], 3)
        assert a == b

    def test_json_dump_shape(self):
        d = propagate({2, 3, 4, 7}, 3).to_json_dict()
        assert d["pairs"][0] == {"source": 2, "destination": 2}
        assert d["levels"][0] == [2, 3, 4, 7]
        assert d["levels"][-1] == [2, 1, 0, 4]


class TestPropagatePuncture:
    # propagate applied to the source sets of puncturing patterns
    def test_low_block_source(self):
        # {0,..,3} at n=3 pairs only within itself, so it maps to itself;
        # its image cannot contain 4, which no source covers
        pmap = propagate({0, 1, 2, 3}, 3)
        assert pmap.destination_set == (0, 1, 2, 3)

    def test_pi_closed_source(self):
        assert propagate({0, 1, 2, 4}, 3).destination_set == (0, 1, 2, 4)

    def test_empty(self):
        assert propagate(set(), 3).pairs == ()


class TestPuncturedBitChannels:
    def test_coded_domain_wrapper(self):
        # coded positions {0,4,2,6} bit-reverse to sources {0,1,2,3}
        assert punctured_bit_channels({0, 4, 2, 6}, 3) == \
            set(propagate(bit_reverse([0, 4, 2, 6], 3), 3).destination_set)

    def test_empty(self):
        assert punctured_bit_channels(set(), 4) == frozenset()

    def test_full(self):
        assert punctured_bit_channels(range(8), 3) == frozenset(range(8))

    def test_matches_gf2_rank_oracle(self):
        # exhaustive for n <= 3, random coded sets at n = 4
        cases = [(n, {c for c in range(1 << n) if (bits >> c) & 1})
                 for n in range(1, 4) for bits in range(1, 1 << (1 << n))]
        rng = np.random.default_rng(11)
        for _ in range(200):
            size = int(rng.integers(1, 17))
            cases.append((4, set(rng.choice(16, size=size, replace=False).tolist())))
        for n, coded in cases:
            assert punctured_bit_channels(coded, n) == zero_capacity_channels(coded, n)

    def test_matches_butterfly_oracle(self):
        # design sizes: n <= 12 and up to 1500 dropped positions
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            size = int(rng.integers(0, min(1 << n, 1500) + 1))
            coded = set(rng.choice(1 << n, size=size, replace=False).tolist())
            assert punctured_bit_channels(coded, n) == butterfly_zero_set(coded, n)

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.integers(1, 10).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1)))))
    def test_propagation_equals_zero_llr_trace(self, case):
        n, coded = case
        assert punctured_bit_channels(coded, n) == butterfly_zero_set(coded, n)


class TestClosureUnderFrozenSets:
    """Any subset of the frozen set propagates back into the frozen set,
    provided the information set is upward-closed under covering."""

    @pytest.mark.parametrize("method", ["bec", "ga", "pw"])
    def test_closure(self, method):
        rng = np.random.default_rng(19)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            N = 1 << n
            if method == "bec":
                profile = bec_bhattacharyya(n, float(rng.uniform(0.05, 0.95)))
            elif method == "ga":
                profile = ga_reliability(n, float(rng.uniform(-2.0, 4.0)))
            else:
                profile = pw_reliability(n, float(rng.uniform(1.05, 1.6)))
            count = int(rng.integers(1, N))
            spec = select_information_set(profile, count)
            frozen = set(spec.frozen_set)
            if not frozen:
                continue
            size = int(rng.integers(1, len(frozen) + 1))
            q0 = set(rng.choice(sorted(frozen), size=size, replace=False).tolist())
            dest = set(propagate(q0, n).destination_set)
            assert dest <= frozen
