import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarpunct.construct import (
    PolarCodeSpec,
    bec_bhattacharyya,
    ga_reliability,
    pw_reliability,
    select_information_set,
)
from polarpunct.degrade import propagate
from polarpunct.puncture import (
    PuncturePattern,
    UnsupportedConfiguration,
    analyze_pattern,
    compare_patterns,
    custom_pattern,
    make_pattern,
    qup_pattern,
    wqp_pattern,
)
from polarpunct.puncture import _pattern_from_source

from oracles import bit_reverse_str, butterfly_zero_set, propagate_reference


class TestQupPattern:
    def test_toy_n3(self):
        p = qup_pattern(3, 4)
        assert p.sources == (0, 1, 2, 3)
        assert p.coded_set == (0, 2, 4, 6)
        # {0,1,2,3} pairs only within itself level by level, so it is a
        # fixed point of the propagation; no source covers 4, so 4 can
        # never appear in the image
        assert p.destination_set == (0, 1, 2, 3)

    def test_single_puncture(self):
        p = qup_pattern(4, 1)
        assert p.sources == (0,)
        assert p.coded_set == (0,)
        assert p.destination_set == (0,)

    def test_n8_q70_contains_64(self):
        p = qup_pattern(8, 70)
        assert 64 in p.destination_set
        assert p.destination_set == tuple(range(70))

    def test_q_validated(self):
        with pytest.raises(ValueError):
            qup_pattern(3, 0)
        with pytest.raises(ValueError):
            qup_pattern(3, 8)

    @pytest.mark.parametrize("n, q", [(-1, 1), (3.0, 2), (True, 1)])
    def test_width_checked_first(self, n, q):
        # Before 1 << n, which raises its own error (or none) for these widths.
        with pytest.raises(ValueError, match=rf"width must be an integer in \[0, 32\], got {n!r}"):
            qup_pattern(n, q)

    @pytest.mark.parametrize("q", [3.0, "3"])
    def test_non_integer_q_rejected(self, q):
        with pytest.raises(ValueError, match="puncture count q must be an integer"):
            qup_pattern(3, q)

    def test_numpy_integer_q(self):
        assert qup_pattern(3, np.int64(3)) == qup_pattern(3, 3)

    @pytest.mark.parametrize("q", [True, np.True_])
    def test_bool_q_rejected(self, q):
        # Not a q = 1 pattern.
        with pytest.raises(ValueError, match="puncture count q must be an integer"):
            qup_pattern(3, q)

    def test_large_pattern_in_bounded_memory(self):
        # A map that held all n + 1 levels peaked at 869 B per punctured position
        # here; one that keeps its two ends peaks at about 190 B. A pattern that
        # stores only those two ends retains about 80 B, where one that also
        # stored its coded and destination sets and pairs retained 184 B.
        qup_pattern(4, 3)
        tracemalloc.start()
        try:
            pattern = qup_pattern(18, 60_000)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pattern.destination_set == tuple(range(60_000))
        assert peak < 400 * 60_000
        assert retained < 120 * 60_000

    def test_kept_positions(self):
        p = qup_pattern(5, 11)
        kept = p.kept_positions
        assert kept.dtype == np.intp
        assert kept.tolist() == sorted(set(range(32)) - set(p.coded_set))
        with pytest.raises(ValueError):
            kept[0] = 0
        # derived data: no part of repr, equality, hashing or JSON
        assert "kept" not in repr(p) and "kept" not in json.dumps(p.to_json_dict())
        assert p == qup_pattern(5, 11) and hash(p) == hash(qup_pattern(5, 11))

    def test_invariants(self):
        p = qup_pattern(5, 11)
        assert len(p.sources) == len(p.coded_set) == len(p.destination_set) == 11
        assert p.transmitted == 32 - 11
        assert p.destination_set == propagate(p.sources, 5).destination_set


class TestPatternRecord:
    def test_stores_the_map_and_a_scheme(self):
        assert [f.name for f in dataclasses.fields(PuncturePattern)] == \
            ["n", "sources", "targets", "scheme"]
        p, pmap = qup_pattern(5, 11), propagate(range(11), 5)
        assert (p.n, p.sources, p.targets) == (pmap.n, pmap.sources, pmap.targets)
        assert p != pmap and pmap != p

    def test_derived_fields_take_no_part_in_identity(self):
        p, fresh = custom_pattern([3, 17, 4, 30], 5), custom_pattern([3, 17, 4, 30], 5)
        assert (p.coded_set, p.destination_set) == ((3, 4, 17, 30), (0, 1, 2, 4))
        assert p.kept_positions.size == 28
        assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
        assert not any(name in repr(p) for name in ("coded", "destination", "kept"))

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_json_fields_match_the_reference(self, data):
        n = data.draw(st.integers(1, 8))
        N = 1 << n
        if data.draw(st.booleans()):
            q = data.draw(st.integers(1, N - 1))
            p, scheme, sources = qup_pattern(n, q), "qup", range(q)
        else:
            coded = data.draw(st.sets(st.integers(0, N - 1), max_size=N - 1))
            p, scheme = custom_pattern(coded, n), "custom"
            sources = [bit_reverse_str(c, n) for c in coded]
        dest = propagate_reference(sources, n)[-1]
        expected = {
            "scheme": scheme,
            "n": n,
            "q": len(dest),
            "source_set": sorted(dest),
            "coded_set": sorted(bit_reverse_str(s, n) for s in dest),
            "destination_set": sorted(dest.values()),
            "pairs": [{"source": s, "destination": dest[s]} for s in sorted(dest)],
        }
        assert list(p.to_json_dict().items()) == list(expected.items())


# Each view the codec or channel indexes per batch is built once; every other view
# is built at each read, so reading one, or writing the JSON, pins no copy of it.
@pytest.mark.parametrize("make, views, cached", [
    (lambda: select_information_set(bec_bhattacharyya(4, 0.5), 7),
     ("size", "info_positions", "frozen_set", "frozen_mask"), {"info_positions", "frozen_mask"}),
    (lambda: custom_pattern([3, 17, 4], 5),
     ("q", "size", "transmitted", "pairs", "coded_set", "destination_set", "levels",
      "kept_positions"), {"kept_positions"}),
    (lambda: propagate([3, 17, 4], 5), ("pairs", "destination_set", "levels"), set()),
], ids=["spec", "pattern", "map"])
def test_only_the_codec_arrays_are_cached(make, views, cached):
    record = make()
    for view in views:
        getattr(record, view)
    json.dumps(record.to_json_dict())
    assert set(vars(record)) == {f.name for f in dataclasses.fields(record)} | cached


class TestWqpPattern:
    def test_toy_bec_half(self):
        prof = bec_bhattacharyya(3, 0.5)
        spec = select_information_set(prof, 4)
        p = wqp_pattern(spec, prof, 4)
        assert p.sources == (0, 1, 2, 4)
        assert p.coded_set == (0, 1, 2, 4)
        assert p.destination_set == (0, 1, 2, 4)

    def test_full_frozen_puncture(self):
        prof = bec_bhattacharyya(4, 0.4)
        spec = select_information_set(prof, 10)
        p = wqp_pattern(spec, prof, 6)
        assert set(p.sources) == set(spec.frozen_set)

    def test_no_information_channel_hit(self):
        prof = ga_reliability(8, -0.5)
        spec = select_information_set(prof, 101, crc_bits=8)
        p = wqp_pattern(spec, prof, 70)
        assert not set(p.destination_set) & set(spec.info_set)

    def test_q_beyond_frozen_rejected(self):
        prof = bec_bhattacharyya(3, 0.5)
        spec = select_information_set(prof, 4)
        with pytest.raises(UnsupportedConfiguration):
            wqp_pattern(spec, prof, 5)

    def test_frozen_set_not_built(self, monkeypatch):
        # At n = 20 and K = N/2 the frozen-set tuple alone holds 26 MB of ints.
        prof = bec_bhattacharyya(3, 0.5)
        spec = select_information_set(prof, 4)
        monkeypatch.setattr(PolarCodeSpec, "frozen_set",
                            property(lambda self: pytest.fail("wqp_pattern built the frozen set")))
        wqp_pattern(spec, prof, 4)
        with pytest.raises(UnsupportedConfiguration, match="frozen-set size 4;"):
            wqp_pattern(spec, prof, 5)

    @pytest.mark.parametrize("q", [True, np.True_])
    def test_bool_q_rejected(self, q):
        prof = bec_bhattacharyya(3, 0.5)
        spec = select_information_set(prof, 4)
        with pytest.raises(ValueError, match="puncture count q must be an integer"):
            wqp_pattern(spec, prof, q)

    @pytest.mark.parametrize("q", [2.0, "2"])
    def test_non_integer_q_rejected(self, q):
        prof = bec_bhattacharyya(3, 0.5)
        spec = select_information_set(prof, 4)
        with pytest.raises(ValueError, match="puncture count q must be an integer"):
            wqp_pattern(spec, prof, q)

    @pytest.mark.parametrize("profile_n, q, message", [
        (4, 2, "spec and profile widths differ"),
        (3, 0, "puncture count must be positive, got 0"),
        (3, -1, "puncture count must be positive, got -1"),
    ])
    def test_rejected(self, profile_n, q, message):
        spec = select_information_set(bec_bhattacharyya(3, 0.5), 4)
        with pytest.raises(ValueError, match=message):
            wqp_pattern(spec, bec_bhattacharyya(profile_n, 0.5), q)

    def test_numpy_integer_q(self):
        prof = bec_bhattacharyya(3, 0.5)
        spec = select_information_set(prof, 4)
        assert wqp_pattern(spec, prof, np.int64(2)) == wqp_pattern(spec, prof, 2)

    def test_closure_random(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            n = int(rng.integers(2, 11))
            N = 1 << n
            if rng.integers(2):
                prof = bec_bhattacharyya(n, float(rng.uniform(0.05, 0.95)))
            else:
                prof = ga_reliability(n, float(rng.uniform(-2, 4)))
            count = int(rng.integers(1, N))
            spec = select_information_set(prof, count)
            q_max = N - count
            if q_max == 0:
                continue
            q = int(rng.integers(1, q_max + 1))
            p = wqp_pattern(spec, prof, q)
            assert set(p.destination_set) <= set(spec.frozen_set)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_never_punctures_an_information_channel(self, data):
        n = data.draw(st.integers(1, 8))
        N = 1 << n
        prof = data.draw(st.one_of(
            st.floats(-5.0, 8.0).map(lambda snr: ga_reliability(n, snr)),
            st.floats(1.0, 2.0).map(lambda beta: pw_reliability(n, beta)),
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
            .map(lambda eps: bec_bhattacharyya(n, eps))))
        count = data.draw(st.integers(1, N - 1))
        spec = select_information_set(prof, count)
        q = data.draw(st.integers(1, N - count))
        p = wqp_pattern(spec, prof, q)
        assert not set(p.destination_set) & set(spec.info_set)

    def test_pw_ordering_uses_weights(self):
        prof = pw_reliability(3)
        spec = select_information_set(prof, 4)
        p = wqp_pattern(spec, prof, 2)
        assert p.sources == (0, 1)  # weights 0 and 1 are the smallest


class TestCustomPattern:
    def test_coded_domain(self):
        p = custom_pattern([0, 4, 2, 6], 3)
        assert p.sources == (0, 1, 2, 3)
        assert p.scheme == "custom"

    def test_empty_allowed(self):
        p = custom_pattern([], 3)
        assert p.q == 0
        assert p.destination_set == ()

    def test_full_rejected(self):
        with pytest.raises(ValueError):
            custom_pattern(range(8), 3)

    # Nested tuples are refused by their shape, as nested lists are; a string by its entry.
    @pytest.mark.parametrize("positions", [5, [[1]], [1, "a"], ((1,),), ((1, 2),)])
    def test_not_a_flat_integer_sequence(self, positions):
        message = ("index must be an integer, got 'a'" if positions == [1, "a"]
                   else "flat sequence of integers")
        with pytest.raises(ValueError, match=message):
            custom_pattern(positions, 3)

    @pytest.mark.parametrize("positions", [[True, 4], [4, np.False_], [True],
                                           np.array([True, False])])
    def test_bool_position_rejected(self, positions):
        # Not the coded position 1 or 0.
        with pytest.raises(ValueError, match="index must be an integer, got"):
            custom_pattern(positions, 3)

    def test_numpy_integer_positions(self):
        assert custom_pattern([np.int64(1), np.uint8(4)], 3) == custom_pattern([1, 4], 3)
        for dtype in (np.int64, np.uint8):
            assert custom_pattern(np.array([4, 1, 4], dtype=dtype), 3) == custom_pattern([1, 4], 3)


class TestMakePattern:
    def test_dispatches_to_each_scheme(self):
        prof = bec_bhattacharyya(3, 0.5)
        spec = select_information_set(prof, 4)
        assert make_pattern("qup", 3, 4) == qup_pattern(3, 4)
        assert make_pattern("wqp", 3, 4, spec, prof) == wqp_pattern(spec, prof, 4)
        assert make_pattern("custom", 3, 2, coded_positions=[4, 0, 4]) == \
            custom_pattern([0, 4], 3)

    @pytest.mark.parametrize("args, message", [
        (("wqp", 3, 4), "spec"),
        (("custom", 3, 2), "coded positions"),
        (("custom", 3, 2, None, None, [1]), "q=2"),
        (("random", 3, 2), "unknown scheme"),
    ])
    def test_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            make_pattern(*args)

    @pytest.mark.parametrize("q", [True, np.True_])
    def test_bool_custom_q_rejected(self, q):
        # Not taken for the one position given.
        with pytest.raises(ValueError, match="puncture count q must be an integer"):
            make_pattern("custom", 3, q, coded_positions=[1])


class TestAnalyzePattern:
    def setup_method(self):
        self.prof = bec_bhattacharyya(3, 0.5)
        self.spec = select_information_set(self.prof, 4)

    def test_wqp_toy_report(self):
        p = wqp_pattern(self.spec, self.prof, 4)
        rep = analyze_pattern(p, self.spec, self.prof)
        assert rep.punctured_info_channels == ()
        z = self.prof.metric
        expected_loss = sum(0.5 - z[j] / 2 for j in (0, 1, 2, 4))
        assert rep.quality_loss == pytest.approx(expected_loss, abs=1e-15)
        assert rep.quality_loss == pytest.approx(0.31640625, abs=1e-15)
        # no information channel hit: the union bound is the unpunctured sum
        assert rep.union_bound == pytest.approx(sum(z[i] / 2 for i in (3, 5, 6, 7)))

    def test_zero_puncture_report(self):
        p = custom_pattern([], 3)
        rep = analyze_pattern(p, self.spec, self.prof)
        assert rep.quality_loss == 0.0
        assert rep.per_bit_loss == ()
        z = self.prof.metric
        assert rep.union_bound == pytest.approx(sum(z[i] / 2 for i in (3, 5, 6, 7)))

    def test_punctured_information_channel_pushes_bound_past_half(self):
        prof = ga_reliability(8, -0.5)
        base = select_information_set(prof, 93)
        if 64 not in base.info_set:
            # swap the least reliable selected index for channel 64
            worst = [i for i in prof.worst_first() if i in set(base.info_set)][0]
            info = sorted((set(base.info_set) - {int(worst)}) | {64})
            base = type(base)(n=8, k=93, crc_bits=0, info_set=tuple(info),
                              construction=base.construction)
        p = qup_pattern(8, 70)
        rep = analyze_pattern(p, base, prof)
        assert 64 in rep.punctured_info_channels
        assert rep.union_bound > 0.5

    def test_per_bit_loss_alignment(self):
        p = wqp_pattern(self.spec, self.prof, 3)
        rep = analyze_pattern(p, self.spec, self.prof)
        pb = self.prof.error_prob
        for (src, dst), loss in zip(p.pairs, rep.per_bit_loss):
            assert loss == pytest.approx(0.5 - pb[dst])

    def test_losses_equal_the_scalar_expression_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for n in range(1, 13):
            N = 1 << n
            prof = (ga_reliability(n, float(rng.uniform(-2.0, 4.0))) if n % 2
                    else bec_bhattacharyya(n, float(rng.uniform(0.05, 0.95))))
            spec = select_information_set(prof, int(rng.integers(1, N + 1)))
            pb = prof.error_prob
            for _ in range(3):
                p = custom_pattern(rng.choice(N, int(rng.integers(0, N)), replace=False).tolist(), n)
                rep = analyze_pattern(p, spec, prof)
                per_bit = [float(0.5 - pb[d]) for _, d in p.pairs]
                assert [x.hex() for x in rep.per_bit_loss] == [x.hex() for x in per_bit]
                assert rep.quality_loss.hex() == float(sum(per_bit)).hex()

    def test_widths_must_agree(self):
        with pytest.raises(ValueError, match="pattern, spec and profile widths differ"):
            analyze_pattern(qup_pattern(4, 2), self.spec, self.prof)

    def test_pw_profile_rejected(self):
        prof = pw_reliability(3)
        spec = select_information_set(prof, 4)
        p = qup_pattern(3, 2)
        with pytest.raises(UnsupportedConfiguration):
            analyze_pattern(p, spec, prof)


class TestComparePatterns:
    def setup_method(self):
        self.prof = bec_bhattacharyya(3, 0.5)
        self.spec = select_information_set(self.prof, 4)

    def test_self_comparison_is_zero(self):
        rep = analyze_pattern(qup_pattern(3, 2), self.spec, self.prof)
        delta = compare_patterns(rep, rep)
        assert delta.quality_loss_delta == 0.0
        assert delta.union_bound_delta == 0.0

    def test_profiles_with_different_params_rejected(self):
        # ga at 0 and at 0.05 dB select the same information set here, but
        # the losses of one pattern differ between them
        prof_a, prof_b = ga_reliability(8, 0.0), ga_reliability(8, 0.05)
        spec_a, spec_b = (select_information_set(prof, 93) for prof in (prof_a, prof_b))
        assert spec_a.info_set == spec_b.info_set
        a = analyze_pattern(qup_pattern(8, 70), spec_a, prof_a)
        b = analyze_pattern(qup_pattern(8, 70), spec_b, prof_b)
        assert a.quality_loss != b.quality_loss
        with pytest.raises(ValueError, match="different specs or profiles"):
            compare_patterns(a, b)

    def test_mismatched_specs_rejected(self):
        other_spec = select_information_set(self.prof, 5)
        a = analyze_pattern(qup_pattern(3, 2), self.spec, self.prof)
        b = analyze_pattern(qup_pattern(3, 2), other_spec, self.prof)
        with pytest.raises(ValueError):
            compare_patterns(a, b)

    def test_wqp_never_loses_against_random_frozen_subsets(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            N = 1 << n
            prof = bec_bhattacharyya(n, float(rng.uniform(0.1, 0.9)))
            count = int(rng.integers(1, N))
            spec = select_information_set(prof, count)
            frozen = list(spec.frozen_set)
            if not frozen:
                continue
            q = int(rng.integers(1, len(frozen) + 1))
            wqp = analyze_pattern(wqp_pattern(spec, prof, q), spec, prof)
            rival_src = rng.choice(frozen, size=q, replace=False).tolist()
            rival = analyze_pattern(_pattern_from_source(rival_src, n, "custom"), spec, prof)
            delta = compare_patterns(wqp, rival)
            assert delta.quality_loss_delta <= 1e-12
            assert delta.union_bound_delta <= 1e-12

    def test_wqp_optimal_exhaustively_small(self):
        for n in (2, 3, 4):
            N = 1 << n
            for eps in (0.3, 0.5):
                prof = bec_bhattacharyya(n, eps)
                for count in range(1, N):
                    spec = select_information_set(prof, count)
                    frozen = list(spec.frozen_set)
                    for q in range(1, len(frozen) + 1):
                        wqp = analyze_pattern(wqp_pattern(spec, prof, q), spec, prof)
                        for subset in itertools.combinations(frozen, q):
                            rival = analyze_pattern(
                                _pattern_from_source(subset, n, "custom"), spec, prof)
                            assert wqp.quality_loss <= rival.quality_loss + 1e-12

    def test_union_bound_dominance(self):
        # a pattern that punctures an information channel is never better
        # than wqp whenever the unpunctured design bound is below 1/2
        prof = bec_bhattacharyya(4, 0.3)
        spec = select_information_set(prof, 6)
        base_bound = sum(prof.error_prob[i] for i in spec.info_set)
        assert base_bound < 0.5
        wqp = analyze_pattern(wqp_pattern(spec, prof, 4), spec, prof)
        rival_src = list(spec.frozen_set)[:3] + [spec.info_set[0]]
        rival = analyze_pattern(_pattern_from_source(rival_src, 4, "custom"), spec, prof)
        if rival.punctured_info_channels:
            assert rival.union_bound > 0.5 > wqp.union_bound


class TestDestinationDecomposition:
    def test_whole_set_equals_union_of_singletons(self):
        # per-element propagation lands inside the whole-set destination
        # only for nested occupancies; the documented property is that the
        # whole-set destination recomputed from the pattern's own pairs
        # matches the propagation
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            q = int(rng.integers(1, 1 << n))
            p = qup_pattern(n, q) if rng.integers(2) else _pattern_from_source(
                rng.choice(1 << n, size=q, replace=False).tolist(), n, "custom")
            assert set(p.destination_set) == {d for _, d in p.pairs}
            assert p.destination_set == propagate(p.sources, n).destination_set

    def test_destinations_match_butterfly_oracle(self):
        # design sizes, as the benchmark's design workload uses them
        for n, snr, qs in ((8, 0.5, (70, 128)), (10, -1.0, (100, 300, 512)),
                           (12, 0.0, (500, 1000, 1500))):
            prof = ga_reliability(n, snr)
            spec = select_information_set(prof, (1 << n) // 2)
            for q in qs:
                for p in (qup_pattern(n, q), wqp_pattern(spec, prof, q)):
                    assert set(p.destination_set) == butterfly_zero_set(p.coded_set, n)
