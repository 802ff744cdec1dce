import dataclasses
import json
import os
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import butterfly_zero_set, run_batch_reference

from polarpunct import channel, codec, puncture, sim
from polarpunct.sim import (
    CSV_COLUMNS,
    SimConfig,
    build_components,
    emit,
    load_result,
    result_csv,
    run_point,
    run_sweep,
)


def tiny_cfg(**kw) -> SimConfig:
    base = dict(n=5, k=12, crc_bits=0, construction="ga", puncturing="qup", q=8,
                decoder="sc", channel="awgn", sweep=(2.0, 4.0), max_frames=400,
                min_frame_errors=1000, master_seed=9, batch_size=100)
    base.update(kw)
    return SimConfig(**base)


# Configs that break one rule each, as keyword changes to tiny_cfg().
INVALID = [
    dict(k=0),
    dict(crc_bits=5),
    dict(q=32),
    dict(puncturing="wqp", q=25),          # beyond N - k
    dict(puncturing="none", q=4),
    dict(puncturing="custom"),              # missing positions
    dict(decoder="bp"),
    dict(channel="fading"),
    dict(sweep=()),
    dict(sweep=(1.0, 1.0)),
    dict(construction="bec"),               # missing erasure probability
    dict(construction="quantized:1"),
    dict(channel="bec", sweep=(0.2, 1.4)),
    dict(master_seed=-1),
    dict(k=30, q=8),                        # k > transmitted symbols
    dict(sweep=(1.0, float("nan"))),
    dict(sweep=(float("inf"),)),
    dict(puncturing="qup", q=2, custom_coded=(0, 8)),  # positions QUP ignores
    dict(puncturing="custom", q=1, custom_coded=(32,)),  # position past N
    dict(puncturing="custom", q=1, custom_coded=(-1,)),  # negative position
    dict(puncturing="custom", q=0, custom_coded=(0, 32)),  # q derived only after the range check
    dict(puncturing="custom", q=0, custom_coded=tuple(range(32))),  # every symbol punctured
    dict(decoder="scl", list_size=0),
]


# Python values of a wrong type, each with the field it breaks, as keyword changes to
# tiny_cfg(). A float or numpy integer here was once built and failed only in the sweep
# or when the result was written.
WRONG_TYPES = [
    ("n", dict(n=4.0)),
    ("k", dict(k=6.0)),
    ("q", dict(puncturing="qup", q=70.0)),
    ("list_size", dict(decoder="scl", list_size=2.0)),
    ("batch_size", dict(batch_size=10.5)),
    ("custom_coded", dict(puncturing="custom", q=0, custom_coded=((1,),))),
    ("q", dict(puncturing="qup", q=np.int64(3))),
]

# JSON-shaped values for config fields (lists, never tuples): of each field type, and of any.
_JSON_INTS = st.integers(-2, 40)
_JSON_NUMBERS = st.one_of(_JSON_INTS, _JSON_INTS.map(float), st.floats(-50.0, 50.0))
_JSON_STRINGS = st.sampled_from(["qup", "wqp", "custom", "none", "sc", "scl", "awgn", "bec",
                                 "ga", "bec:0.3", "ga:1.0", "x"])
_JSON_OF_TYPE = {"int": _JSON_INTS, "str": _JSON_STRINGS,
                 "tuple[float, ...]": st.lists(_JSON_NUMBERS, max_size=4),
                 "tuple[int, ...] | None": st.one_of(st.none(), st.lists(_JSON_INTS, max_size=4))}
_JSON_VALUES = st.one_of(
    _JSON_NUMBERS, st.booleans(), st.none(), _JSON_STRINGS,
    st.lists(st.one_of(_JSON_NUMBERS, st.booleans()), max_size=4),
    st.lists(st.lists(_JSON_INTS, max_size=2), min_size=1, max_size=2),
)


@st.composite
def _json_changes(draw):
    """A few config fields, each set to a JSON value of any type or, three times as
    often, of its own type, so value rules are reached too."""
    chosen = draw(st.lists(st.sampled_from(dataclasses.fields(SimConfig)), max_size=3,
                           unique=True))
    return {f.name: draw(_JSON_VALUES if draw(st.integers(0, 3)) == 3 else _JSON_OF_TYPE[f.type])
            for f in chosen}


def _built_or_message(build):
    try:
        return build()
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestConfigValidation:
    def test_valid(self):
        tiny_cfg()

    @pytest.mark.parametrize("kw", INVALID)
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            tiny_cfg(**kw)

    @pytest.mark.parametrize("kw", INVALID)
    def test_invalid_however_built(self, kw):
        """JSON and ``dataclasses.replace`` build through the same checks, with the same message."""
        with pytest.raises(ValueError) as direct:
            tiny_cfg(**kw)
        d = json.loads(json.dumps({**tiny_cfg().to_json_dict(), **kw}))
        with pytest.raises(ValueError) as from_json:
            SimConfig.from_json_dict(d)
        with pytest.raises(ValueError) as replaced:
            dataclasses.replace(tiny_cfg(), **kw)
        assert str(from_json.value) == str(replaced.value) == str(direct.value)

    def test_every_symbol_punctured_rejected_when_built(self):
        # Not a ZeroDivisionError from the rate later.
        with pytest.raises(ValueError, match=r"q must be in \(0, 4\) for qup"):
            SimConfig(n=2, k=1, puncturing="qup", q=4, sweep=(1.0,))

    def test_custom_q_from_positions(self):
        cfg = SimConfig(n=5, k=12, puncturing="custom", custom_coded=(0, 8, 8, 16), sweep=(2.0,))
        assert cfg.q == 3
        assert cfg.transmitted == 29
        assert tiny_cfg(puncturing="custom", q=3, custom_coded=(0, 8, 16)).q == 3
        assert SimConfig.from_json_dict(cfg.to_json_dict()) == cfg

    @pytest.mark.parametrize("q", [2, 4])
    def test_custom_q_must_match_positions(self, q):
        with pytest.raises(ValueError, match="q must match the number of custom coded positions"):
            tiny_cfg(puncturing="custom", q=q, custom_coded=(0, 8, 16))

    def test_ga_design_defaults_to_sweep_midpoint(self):
        cfg = tiny_cfg(sweep=(1.0, 3.0))
        # Es/N0 = midpoint Eb/N0 + 10 log10(R) with the punctured rate
        expected = 2.0 + 10 * np.log10(cfg.rate)
        assert cfg.design_snr_db() == pytest.approx(expected)

    def test_ga_explicit_design(self):
        assert tiny_cfg(construction="ga:1.25").design_snr_db() == 1.25

    def test_bec_channel_needs_explicit_ga_design(self):
        with pytest.raises(ValueError):
            tiny_cfg(channel="bec", construction="ga", sweep=(0.3,))

    def test_round_trip_json(self):
        cfg = tiny_cfg()
        back = SimConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
        assert back == cfg

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(_json_changes())
    def test_one_check_path(self, changes):
        """A direct build and a JSON build of the same values agree: an equal config
        or a ``ValueError`` with the same message, field types included."""
        kw = {**tiny_cfg().to_json_dict(), **changes}
        direct = _built_or_message(lambda: SimConfig(**kw))
        from_json = _built_or_message(
            lambda: SimConfig.from_json_dict(json.loads(json.dumps(kw))))
        assert direct == from_json

    @pytest.mark.parametrize("name, kw", WRONG_TYPES)
    def test_wrong_type_rejected_however_built(self, name, kw):
        with pytest.raises(ValueError, match=f"^config field '{name}' must be") as direct:
            tiny_cfg(**kw)
        with pytest.raises(ValueError) as replaced:
            dataclasses.replace(tiny_cfg(), **kw)
        assert str(replaced.value) == str(direct.value)

    @pytest.mark.parametrize("name, kw", [c for c in WRONG_TYPES if type(c[1][c[0]]) is float])
    def test_wrong_type_message_is_the_json_one(self, name, kw):
        d = json.loads(json.dumps({**tiny_cfg().to_json_dict(), **kw}))
        with pytest.raises(ValueError) as from_json:
            SimConfig.from_json_dict(d)
        with pytest.raises(ValueError) as direct:
            tiny_cfg(**kw)
        assert str(from_json.value) == str(direct.value)

    def test_lists_stored_as_tuples(self):
        cfg = tiny_cfg(puncturing="custom", q=0, sweep=[2.0, 4], custom_coded=[0, 8])
        assert cfg.sweep == (2.0, 4) and cfg.custom_coded == (0, 8)
        assert cfg == tiny_cfg(puncturing="custom", q=0, sweep=(2.0, 4), custom_coded=(0, 8))
        hash(cfg)

    def test_numpy_float_sweep_point_runs_and_emits(self, tmp_path):
        cfg = tiny_cfg(sweep=(np.float64(2.0),), max_frames=20, batch_size=20)
        paths = emit(run_sweep(cfg), str(tmp_path / "run"))
        assert load_result(paths[0]).config == cfg


class TestBuildComponents:
    def test_patterns_by_scheme(self):
        profile, spec, pattern, crc = build_components(tiny_cfg())
        assert pattern.scheme == "qup"
        assert crc == 0
        assert len(spec.info_set) == 12

    def test_wqp_destination_avoids_info(self):
        cfg = tiny_cfg(puncturing="wqp", q=8, crc_bits=8, k=12)
        _, spec, pattern, crc = build_components(cfg)
        assert not set(pattern.destination_set) & set(spec.info_set)
        assert crc == 8

    def test_custom(self):
        cfg = tiny_cfg(puncturing="custom", q=3, custom_coded=(0, 8, 16))
        _, _, pattern, _ = build_components(cfg)
        assert pattern.coded_set == (0, 8, 16)

    def test_custom_pattern_propagated_once(self, monkeypatch):
        calls = []
        propagate = puncture.propagate
        monkeypatch.setattr(puncture, "propagate",
                            lambda *args: calls.append(args) or propagate(*args))
        cfg = tiny_cfg(puncturing="custom", q=3, custom_coded=(0, 8, 16))
        assert build_components(cfg)[2].coded_set == (0, 8, 16)
        assert len(calls) == 1

    def test_rejected_before_any_trial(self):
        with pytest.raises(ValueError):
            run_point(tiny_cfg(q=40), 2.0)


class TestRunPoint:
    def test_noiseless_point(self):
        cfg = tiny_cfg(sweep=(30.0,), max_frames=200)
        res = run_point(cfg, 30.0)
        assert res.fer == 0.0
        assert res.ber == 0.0
        assert res.frames == 200

    def test_counts_consistent(self):
        cfg = tiny_cfg(sweep=(1.0,), max_frames=300)
        res = run_point(cfg, 1.0)
        assert res.fer == res.frame_errors / res.frames
        assert res.ber == res.bit_errors / res.info_bits_sent
        assert res.info_bits_sent == res.frames * cfg.k
        assert res.bit_errors >= res.frame_errors

    def test_matched_seed_rerun_identical(self):
        cfg = tiny_cfg(sweep=(2.0,))
        a = run_point(cfg, 2.0)
        b = run_point(cfg, 2.0)
        assert a == b  # wall time excluded from comparison

    def test_seed_changes_results(self):
        cfg = tiny_cfg(sweep=(1.5,), max_frames=300)
        a = run_point(cfg, 1.5)
        b = run_point(dataclasses.replace(cfg, master_seed=10), 1.5)
        assert (a.frame_errors, a.bit_errors) != (b.frame_errors, b.bit_errors)

    def test_max_frames_cap(self):
        cfg = tiny_cfg(sweep=(0.0,), max_frames=250, min_frame_errors=10_000)
        assert run_point(cfg, 0.0).frames == 250

    def test_value_outside_the_sweep_named(self):
        with pytest.raises(ValueError, match=r"sweep value 3\.0 is not in the sweep \(2\.0, 4\.0\)"):
            run_point(tiny_cfg(), 3.0)

    def test_early_stop_on_frame_errors(self):
        cfg = tiny_cfg(sweep=(-5.0,), max_frames=100_000, min_frame_errors=30,
                       batch_size=50)
        res = run_point(cfg, -5.0)
        assert res.frame_errors >= 30
        assert res.frames < 100_000


@st.composite
def _small_configs(draw):
    """A valid small config: SC or SCL (L = 1-4), CRC 0 or 8, AWGN or BEC, any
    puncturing, batches off the block size, and a stop on frame errors that
    may come in the middle of the stream."""
    crc = draw(st.sampled_from((0, 8)))
    n = draw(st.integers(4 if crc else 2, 5))
    N = 1 << n
    k = draw(st.integers(1, N - crc - 1))
    puncturing = draw(st.sampled_from(sim.PUNCTURINGS))
    q = 0 if puncturing == "none" else draw(st.integers(1, N - k - crc))
    coded = (tuple(draw(st.lists(st.integers(0, N - 1), min_size=q, max_size=q, unique=True)))
             if puncturing == "custom" else None)
    if draw(st.booleans()):
        channel_kw = dict(channel="awgn", construction="ga",
                          sweep=(draw(st.sampled_from((-2.0, 0.0, 1.0, 3.0))),))
    else:
        eps = draw(st.sampled_from((0.1, 0.3, 0.5)))
        channel_kw = dict(channel="bec", construction=f"bec:{eps}", sweep=(eps,))
    return SimConfig(n=n, k=k, crc_bits=crc, puncturing=puncturing, q=q, custom_coded=coded,
                     decoder=draw(st.sampled_from(sim.DECODERS)),
                     list_size=draw(st.integers(1, 4)),
                     max_frames=draw(st.integers(1, 120)),
                     min_frame_errors=draw(st.integers(1, 60)),
                     batch_size=draw(st.integers(1, 50)),
                     master_seed=draw(st.integers(0, 2**16)), **channel_kw)


class TestRunBatch:
    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(_small_configs(), st.integers(1, 64), st.integers(0, 3))
    @example(SimConfig(n=3, k=4, puncturing="qup", q=2, decoder="scl", list_size=4,
                       sweep=(1.0,), max_frames=70, min_frame_errors=4, batch_size=23), 5, 0)
    @example(SimConfig(n=5, k=12, crc_bits=8, puncturing="wqp", q=9, decoder="scl",
                       list_size=3, sweep=(0.0,), max_frames=101, min_frame_errors=40,
                       batch_size=37), 7, 1)
    @example(SimConfig(n=4, k=5, puncturing="custom", q=3, custom_coded=(2, 9, 14),
                       channel="bec", construction="bec:0.5", sweep=(0.5,), max_frames=90,
                       min_frame_errors=5, batch_size=29), 64, 2)
    def test_blocks_equal_the_whole_batch(self, cfg, columns, batch_index):
        """Any block size gives, frame by frame, the per-frame record of the
        whole batch sent at once, and ``run_point`` the counts it gives at the
        default block size."""
        components = build_components(cfg)
        channel_cfg = cfg.channel_config(cfg.sweep[0])
        frames = cfg.batch_size
        expected = run_batch_reference(components, cfg, channel_cfg, 0, batch_index, frames)
        default = run_point(cfg, cfg.sweep[0], _components=components)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_BLOCK_COLUMNS", columns)
            blocked = sim._run_batch(components, cfg, channel_cfg, 0, batch_index, frames)
            assert run_point(cfg, cfg.sweep[0], _components=components) == default
        assert blocked.dtype == np.intp and blocked.shape == (frames,)
        np.testing.assert_array_equal(blocked, expected)


def _paper_point(frames: int, **kw) -> SimConfig:
    """The paper's QUP point (N = 256, K = 93, Q = 70): one batch of ``frames``
    frames, no stop on errors."""
    return SimConfig(n=8, k=93, q=70, puncturing="qup", sweep=(1.0, 2.0, 3.0, 4.0),
                     batch_size=frames, max_frames=frames, min_frame_errors=frames + 1, **kw)


def _steady_state_peak(cfg: SimConfig) -> int:
    """tracemalloc peak of ``run_point`` at 1 dB, after a first run fills the caches."""
    components = build_components(cfg)
    run_point(cfg, 1.0, _components=components)
    tracemalloc.start()
    try:
        run_point(cfg, 1.0, _components=components)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRunPointMemory:
    def test_steady_state_sc_batch_peak(self):
        """A 1000-frame paper-point SC batch holds at most 2.5 (N, B) float64
        arrays at its peak: the depunctured LLRs, which the decoder reads in
        place, and its node LLRs (about one more array), with no tree-order
        copy and no other full-batch array of the chain."""
        cfg = _paper_point(1000)
        assert _steady_state_peak(cfg) <= 2.5 * cfg.size * cfg.batch_size * 8

    def test_sc_batch_of_two_blocks_peak(self):
        """An SC batch of two 4096-frame blocks peaks like one block: the same
        2.5 gate with the block in place of B."""
        cfg = _paper_point(8192)
        assert _steady_state_peak(cfg) <= 2.5 * cfg.size * 4096 * 8

    @pytest.mark.parametrize("frames", [1000, 4000])
    def test_scl_batch_peak_does_not_grow_with_batch_size(self, frames):
        """A CRC-8 SCL (L = 8) batch peaks within two (N, 4096) float64 arrays
        whatever its size: the list decoder's buffers span one block of 4096
        (frame, path) columns, not the batch."""
        cfg = _paper_point(frames, crc_bits=8, decoder="scl", list_size=8)
        assert _steady_state_peak(cfg) <= 2 * cfg.size * 4096 * 8


class TestExactScOnBec:
    """On the BEC every channel LLR is 0 or +/-40, so SC decides a bit channel
    either exactly right or on an exactly zero LLR, as 0. With a correct past
    the zero-LLR channels are those the boolean butterfly of the zero
    positions marks. So SC returns ``u`` exactly when no such information or
    CRC channel carries a 1: a per-frame rule with no tolerance."""

    @staticmethod
    def check_batch(cfg: SimConfig) -> int:
        """Replay ``run_point``'s first batch, check the rule frame by frame and
        return the number of frames whose information bits SC got wrong."""
        _, spec, pattern, crc = build_components(cfg)
        rng = np.random.default_rng([cfg.master_seed, 0, 0])
        info = rng.integers(0, 2, size=(cfg.batch_size, cfg.k), dtype=np.uint8)
        payload = codec.crc_append(info, crc) if crc else info
        u = codec.place_payload(payload, spec)
        rx = channel.transmit(channel.puncture_tx(codec.encode(u), pattern),
                              cfg.channel_config(cfg.sweep[0]), rng)
        soft = channel.depuncture_rx(rx, pattern)
        u_hat = codec.sc_decode(soft, spec)
        wrong = (u_hat != u).any(axis=1)
        info_set = set(spec.info_set)
        for f in range(cfg.batch_size):
            erased = butterfly_zero_set(np.flatnonzero(soft[f] == 0).tolist(), cfg.n) & info_set
            assert wrong[f] == u[f, sorted(erased)].any()
        return int((codec.extract_payload(u_hat, spec)[:, : cfg.k] != info).any(axis=1).sum())

    @pytest.mark.parametrize("scheme", ["qup", "wqp"])
    def test_paper_point(self, scheme):
        cfg = SimConfig(n=8, k=93, construction="bec:0.15", channel="bec", puncturing=scheme,
                        q=70, sweep=(0.15,), max_frames=500, batch_size=500, master_seed=3)
        errors = self.check_batch(cfg)
        assert errors == run_point(cfg, 0.15).frame_errors
        assert errors > 0

    def test_small_codes(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            n = int(rng.integers(1, 6))
            N = 1 << n
            scheme = ("qup", "wqp", "custom")[trial % 3]
            q = int(rng.integers(1, N // 2 + 1))
            k = int(rng.integers(1, N - q + 1))
            eps = float(rng.choice([0.1, 0.3, 0.5]))
            coded = (tuple(rng.choice(N, q, replace=False).tolist()) if scheme == "custom"
                     else None)
            cfg = SimConfig(n=n, k=k, construction=f"bec:{eps}", channel="bec",
                            puncturing=scheme, q=q, custom_coded=coded, sweep=(eps,),
                            max_frames=200, batch_size=200, master_seed=trial)
            assert self.check_batch(cfg) == run_point(cfg, eps).frame_errors

    @pytest.mark.parametrize("scheme", ["qup", "wqp"])
    def test_paper_point_with_crc(self, scheme):
        # The CRC bits fill the last information channels, so SC decides them
        # after every information bit and the rule covers them too.
        cfg = SimConfig(n=8, k=93, crc_bits=8, construction="bec:0.15", channel="bec",
                        puncturing=scheme, q=70, sweep=(0.15,), max_frames=500,
                        batch_size=500, master_seed=3)
        errors = self.check_batch(cfg)
        assert errors == run_point(cfg, 0.15).frame_errors
        assert errors > 0


class TestRunSweep:
    def test_points_match_run_point(self):
        cfg = tiny_cfg()
        sweep = run_sweep(cfg)
        singles = [run_point(cfg, v) for v in cfg.sweep]
        assert list(sweep.points) == singles
        assert sweep.pattern["scheme"] == "qup"

    def test_parallel_workers_identical(self, monkeypatch):
        # Forked workers inherit the patch, so a worker that rebuilt the
        # components would raise back through the pool.
        parent, build = os.getpid(), sim.build_components

        def build_in_parent_only(cfg):
            assert os.getpid() == parent, "a worker rebuilt the components"
            return build(cfg)

        monkeypatch.setattr(sim, "build_components", build_in_parent_only)
        cfg = tiny_cfg(max_frames=200)
        assert run_sweep(cfg, workers=2) == run_sweep(cfg, workers=1)

    def test_unpickled_config_is_not_checked_again(self, monkeypatch):
        # Workers receive their config pickled; unpickling runs no check.
        cfg = tiny_cfg(puncturing="custom", q=0, custom_coded=(0, 8, 16))
        data = pickle.dumps(cfg)
        monkeypatch.setattr(SimConfig, "__post_init__", lambda self: pytest.fail("checked"))
        assert pickle.loads(data) == cfg

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The ``max_workers`` of every pool ``run_sweep`` opens. The stand-in
        pool runs the points in this process, so no worker process is
        started at all."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", RecordingPool)
        return sizes

    @pytest.mark.parametrize("workers, started", [(2, 2), (5000, 2), (1, None)])
    def test_no_more_workers_than_points(self, monkeypatch, pool_sizes, workers, started):
        # More CPUs than points, whatever the host has, so the points bound.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        cfg = tiny_cfg(max_frames=100)
        assert run_sweep(cfg, workers=workers) == run_sweep(cfg)
        assert pool_sizes == ([] if started is None else [started])

    @pytest.mark.parametrize("cpus, started", [(3, 3), (1, None), (None, None)])
    def test_no_more_workers_than_cpus(self, monkeypatch, pool_sizes, cpus, started):
        # An unknown CPU count (None) counts as one CPU: the points run here.
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg = tiny_cfg(sweep=(0.1, 0.2, 0.3, 0.4, 0.5), max_frames=20)
        assert run_sweep(cfg, workers=1000) == run_sweep(cfg)
        assert pool_sizes == ([] if started is None else [started])

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, monkeypatch, workers):
        monkeypatch.setattr(sim, "build_components", lambda cfg: pytest.fail("built"))
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_sweep(tiny_cfg(), workers=workers)

    @pytest.mark.parametrize("workers", [2.5, "2", True])
    def test_workers_must_be_an_int(self, monkeypatch, workers):
        monkeypatch.setattr(sim, "build_components", lambda cfg: pytest.fail("built"))
        with pytest.raises(ValueError, match=f"workers must be an integer, got {workers!r}"):
            run_sweep(tiny_cfg(), workers=workers)

    def test_fer_decreases_with_snr(self):
        cfg = tiny_cfg(puncturing="wqp", q=8, sweep=(0.0, 5.0), max_frames=2000,
                       batch_size=500)
        res = run_sweep(cfg)
        assert res.points[0].fer > res.points[1].fer

    def test_scl_with_crc_beats_sc(self):
        base = dict(n=6, k=32, crc_bits=8, construction="ga", puncturing="wqp",
                    q=10, channel="awgn", sweep=(2.5,), max_frames=10_000,
                    min_frame_errors=10_000, master_seed=1, batch_size=2000)
        sc = run_point(SimConfig(decoder="sc", **base), 2.5)
        scl = run_point(SimConfig(decoder="scl", list_size=8, **base), 2.5)
        assert scl.fer <= sc.fer

    def test_bec_channel_runs(self):
        cfg = tiny_cfg(channel="bec", construction="bec:0.3", sweep=(0.2, 0.35),
                       max_frames=300)
        res = run_sweep(cfg)
        assert res.points[0].fer <= res.points[1].fer


class TestUnpunctured:
    """``puncturing="none"`` runs the chain of every other config with the
    empty pattern (q = 0): its counts stay pinned, and its result JSON has
    no pattern."""

    @pytest.mark.parametrize("kw, counts", [
        (dict(decoder="sc", construction="ga", sweep=(2.0,), max_frames=4000), (4000, 260, 5695)),
        (dict(decoder="scl", list_size=4, crc_bits=8, construction="ga", sweep=(1.5,),
              max_frames=2000), (2000, 151, 3513)),
        (dict(decoder="sc", channel="bec", construction="bec:0.5", sweep=(0.5,),
              max_frames=2000), (2000, 219, 4967)),
        (dict(decoder="scl", list_size=4, crc_bits=8, channel="bec", construction="bec:0.5",
              sweep=(0.5,), max_frames=2000), (2000, 51, 1244)),
    ])
    def test_pinned_counts(self, kw, counts):
        cfg = SimConfig(n=8, k=93, master_seed=3, min_frame_errors=10**9, **kw)
        res = run_point(cfg, cfg.sweep[0])
        assert (res.frames, res.frame_errors, res.bit_errors) == counts

    def test_empty_pattern(self):
        pattern = build_components(tiny_cfg(puncturing="none", q=0))[2]
        assert isinstance(pattern, puncture.PuncturePattern)
        assert pattern.q == 0
        assert pattern.kept_positions.tolist() == list(range(32))
        assert run_sweep(tiny_cfg(puncturing="none", q=0, max_frames=20)).pattern is None

    @pytest.mark.parametrize("decoder", sim.DECODERS)
    @pytest.mark.parametrize("puncturing", sim.PUNCTURINGS)
    def test_decoder_reads_position_major_llrs(self, monkeypatch, puncturing, decoder):
        """Every config hands the decoder ``depuncture_rx``'s (frames, N) view of
        a position-major array."""
        q = 0 if puncturing == "none" else 8
        cfg = tiny_cfg(puncturing=puncturing, q=q, decoder=decoder, list_size=2,
                       custom_coded=tuple(range(0, 32, 4)) if puncturing == "custom" else None,
                       sweep=(2.0,), max_frames=50, batch_size=50)
        seen = []
        name = f"{decoder}_decode"
        decode = getattr(codec, name)
        monkeypatch.setattr(codec, name, lambda llr, *a, **kw: seen.append(llr) or decode(
            llr, *a, **kw))
        run_point(cfg, 2.0)
        assert [llr.shape for llr in seen] == [(50, 32)]
        assert seen[0].T.flags.c_contiguous


class TestEmit:
    def test_csv_shape(self):
        res = run_sweep(tiny_cfg(max_frames=100))
        text = result_csv(res)
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(res.points)

    def test_json_round_trip(self, tmp_path):
        res = run_sweep(tiny_cfg(max_frames=100))
        paths = emit(res, str(tmp_path / "out"))
        assert sorted(p.split(".")[-1] for p in paths) == ["csv", "json"]
        back = load_result(str(tmp_path / "out.json"))
        assert back == res
        # wall time is serialized even though it is excluded from equality
        assert back.points[0].wall_time_s == res.points[0].wall_time_s

    def test_load_rejects_invalid_config(self, tmp_path):
        emit(run_sweep(tiny_cfg(max_frames=100)), str(tmp_path / "out"), formats=("json",))
        path = tmp_path / "out.json"
        d = json.loads(path.read_text())
        d["config"]["q"] = 32
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=r"q must be in \(0, 32\) for qup"):
            load_result(str(path))

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("points"), r"missing required result fields: \['points'\]"),
        (lambda d: d["points"][0].update(stop="max_frames"), r"unknown point fields: \['stop'\]"),
        (lambda d: d["points"][1].pop("fer"), r"missing required point fields: \['fer'\]"),
        (lambda d: d.update(notes="x"), r"unknown result fields: \['notes'\]"),
    ], ids=["no-points", "unknown-point-field", "missing-point-field", "unknown-field"])
    def test_load_rejects_malformed_file(self, tmp_path, edit, message):
        # A ValueError naming the key, not a KeyError or a TypeError from a constructor.
        emit(run_sweep(tiny_cfg(max_frames=100)), str(tmp_path / "out"), formats=("json",))
        path = tmp_path / "out.json"
        d = json.loads(path.read_text())
        edit(d)
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=message):
            load_result(str(path))

    def test_load_rejects_a_list(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match=r"a result must be a JSON object, got \[\]"):
            load_result(str(path))

    def test_unwritable_path(self):
        res = run_sweep(tiny_cfg(max_frames=100))
        with pytest.raises(OSError):
            emit(res, "/nonexistent_dir_zz/out")

    def test_unknown_format(self, tmp_path):
        # Every format is checked before the first file is written.
        res = run_sweep(tiny_cfg(max_frames=100))
        for formats in [("yaml",), ("json", "yaml")]:
            with pytest.raises(ValueError, match="unknown format 'yaml'"):
                emit(res, str(tmp_path / "out"), formats=formats)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error", [OSError("disk full"), RuntimeError("disk full")])
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, error):
        res = run_sweep(tiny_cfg(max_frames=100))
        old = tmp_path / "out.json"
        old.write_bytes(b'{"earlier": "result"}\n')

        def failing_dump(*args, **kwargs):
            raise error

        monkeypatch.setattr(json.JSONEncoder, "iterencode", failing_dump)
        with pytest.raises(type(error), match="disk full") as info:
            emit(res, str(tmp_path / "out"), formats=("json",))
        if isinstance(error, OSError):
            assert str(info.value).startswith(f"cannot write {old}: ")
        assert old.read_bytes() == b'{"earlier": "result"}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
