"""Benchmark workloads for polarpunct.

A workload is a fixed cycle of closed-loop calls into the library; the
runner repeats the cycle until the run's time is up, timing each call and
checking each call's outputs. Every input is made from the workload seed:
the sweeps pass it on as ``master_seed``, ``frame-sc`` draws its frames
from it, and ``design`` jitters its design SNRs with it. The library sees
only the generated configs and inputs.

Why each workload, and which layer metrics (``<module>.<function>.*`` in
the traced run) should move which end-to-end metric:

``sweep-sc``
    The paper point N=256, K=93, Q=70 with the GA construction at the
    sweep-midpoint default, AWGN at Eb/N0 1, 2, 3 and 4 dB, QUP and WQP, SC
    decoding in batches of 1000 frames. Each call is one ``run_point`` of
    one batch; ``min_frame_errors`` lies above ``max_frames`` so the work
    per call does not depend on the FER. Batched SC is about 80% of the
    self time and ``channel.*`` plus ``codec.encode`` most of the rest.
    ``codec.sc_decode.*``, ``channel.*``, ``codec.encode`` and the
    ``sim.run_point`` self time (RNG draws, error counting) move
    ``items_per_s`` (frames/s) here; SC node plans and a rate-matching
    keep-index show here. SCL and construction changes should leave it
    unmoved.

``sweep-scl``
    The same code with CRC-8 and SCL L=8: the acceptance-8 configuration
    (sweep 1..4 dB, so the same design SNR), of which the points at 1 and
    3 dB are run. ``codec.scl_decode`` is almost all of the self time and
    allocates about 74 MB per 1000-frame batch, far above the L2 cache.
    ``codec.scl_decode.*`` moves ``items_per_s`` and ``peak_heap_mb``
    here; lazy-copy SCL and memory-bounded chunking show here, and SC
    changes should leave it unmoved.

``frame-sc``
    The receiver chain ``depuncture_rx`` -> ``sc_decode`` ->
    ``extract_payload`` on one frame per call, for the WQP code of
    ``sweep-sc`` at Eb/N0 2 dB. The received LLRs are made before timing.
    At one frame the time is Python call overhead (2N-1 recursive calls,
    a ``setdiff1d`` per call), not numpy throughput, so a change that
    helps batched decoding and hurts single frames (or the reverse) shows
    here. ``codec.sc_decode.*``, ``channel.depuncture_rx`` and
    ``codec.extract_payload`` move ``items_per_s`` (frames/s, the inverse
    of the single-frame latency).

``design``
    For n in {10, 12}, design SNR in {-1, 0, 1} dB (plus a seeded jitter)
    and K = N/2: ``ga_reliability`` -> ``select_information_set``, then for
    each Q in {100, 300} (n=10) or {500, 1000, 1500} (n=12):
    ``qup_pattern`` and ``wqp_pattern`` -> ``analyze_pattern`` twice ->
    ``compare_patterns``. One call constructs one (n, SNR) code, and one
    call per Q makes and analyses its patterns: an item is one (n, SNR, Q)
    design. The only workload where ``degrade.propagate`` and
    ``construct.ga_reliability`` do real work, and the decoders none:
    ``degrade.propagate``, ``construct.*`` and ``puncture.*`` move
    ``items_per_s`` (designs/s) here, and only marginally ``setup_s``
    elsewhere (the n=8 builds of the other workloads take about 10 ms).

On every workload ``import.polarpunct_s`` moves ``setup_s``: the fresh-
process import plus ``build_components`` for the workload's configs
(import only for ``design``). ``peak_heap_mb`` is the tracemalloc peak of
the first call of the cycle (the first SNR's calls for ``design``), taken
before the timed window. ``items_per_s`` counts the workload's items
(frames, or designs) per second of call time.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from polarpunct import channel, codec, construct, puncture, sim

WORKLOADS = ("sweep-sc", "sweep-scl", "frame-sc", "design")

# Relative tolerance for the floating-point design outputs (union bound,
# quality loss): tight, but loose enough for a re-ordered sum or a
# phi-inverse solved to the same 1e-9 tolerance by another method.
FLOAT_RTOL = 1e-6


@dataclass
class Call:
    """One closed-loop call: ``run`` does the timed work, ``outputs`` digests it."""

    key: str
    run: Callable[[], object]
    outputs: Callable[[object], dict]
    items: int


@dataclass
class Workload:
    name: str
    item: str
    calls: list[Call]
    # How many leading calls the tracemalloc probe runs.
    probe_calls: int
    # SimConfig JSON dicts whose components the set-up builds (empty: import only).
    setup_configs: list[dict]
    # Repeats the in-process set-up, so the traced run can trace it.
    rebuild: Callable[[], None] = field(default=lambda: None)


def digest(values) -> str:
    """Short content digest of an integer sequence or bit array."""
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.int64))
    return f"{zlib.crc32(arr.tobytes()):08x}-{arr.size}"


def _components_holder(configs):
    components = [None] * len(configs)

    def rebuild():
        for i, cfg in enumerate(configs):
            components[i] = sim.build_components(cfg)

    rebuild()
    return components, rebuild


def _sweep(name: str, seed: int, tiny: bool) -> Workload:
    frames = 50 if tiny else 1000
    base = dict(n=8, k=93, q=70, construction="ga", channel="awgn",
                sweep=(1.0, 2.0, 3.0, 4.0), batch_size=frames, max_frames=frames,
                min_frame_errors=frames + 1, master_seed=seed)
    if name == "sweep-sc":
        base.update(decoder="sc")
        points = (1.0, 2.0) if tiny else (1.0, 2.0, 3.0, 4.0)
    else:
        base.update(decoder="scl", list_size=8, crc_bits=8)
        points = (1.0,) if tiny else (1.0, 3.0)
    configs = [sim.SimConfig(puncturing=p, **base) for p in ("qup", "wqp")]
    components, rebuild = _components_holder(configs)

    def outputs(r) -> dict:
        return {"frames": r.frames, "frame_errors": r.frame_errors, "bit_errors": r.bit_errors,
                "invariants": (r.frames == frames
                               and 0 <= r.frame_errors <= r.bit_errors <= frames * base["k"]
                               and (r.frame_errors > 0) == (r.bit_errors > 0))}

    def call(i, cfg, value):
        return Call(key=f"{cfg.puncturing}@{value:g}",
                    run=lambda: sim.run_point(cfg, value, _components=components[i]),
                    outputs=outputs, items=frames)

    calls = [call(i, cfg, v) for i, cfg in enumerate(configs) for v in points]
    return Workload(name=name, item="frame", calls=calls, probe_calls=1,
                    setup_configs=[c.to_json_dict() for c in configs], rebuild=rebuild)


def _frame_sc(seed: int, tiny: bool) -> Workload:
    count = 4 if tiny else 32
    cfg = sim.SimConfig(n=8, k=93, q=70, construction="ga", puncturing="wqp",
                        channel="awgn", sweep=(1.0, 2.0, 3.0, 4.0), decoder="sc")
    components, rebuild = _components_holder([cfg])
    _, spec, pattern, _ = components[0]
    rng = np.random.default_rng([seed, 0xF5C])
    info = rng.integers(0, 2, size=(count, cfg.k), dtype=np.uint8)
    tx = channel.puncture_tx(codec.encode(codec.place_payload(info, spec)), pattern)
    rx = channel.transmit(tx, channel.ChannelConfig(channel.AWGN, 2.0, cfg.rate), rng)

    def receive(i):
        _, spec, pattern, _ = components[0]
        llr = channel.depuncture_rx(rx[i], pattern)
        return codec.extract_payload(codec.sc_decode(llr, spec), spec)

    def outputs(payload) -> dict:
        bits = np.asarray(payload)
        return {"payload": digest(bits),
                "invariants": bits.shape == (cfg.k,) and bool(np.isin(bits, (0, 1)).all())}

    calls = [Call(key=f"frame{i:03d}", run=lambda i=i: receive(i), outputs=outputs, items=1)
             for i in range(count)]
    return Workload(name="frame-sc", item="frame", calls=calls, probe_calls=1,
                    setup_configs=[cfg.to_json_dict()], rebuild=rebuild)


def _construct(n: int, snr_db: float, code: list):
    profile = construct.ga_reliability(n, snr_db)
    code[:] = [profile, construct.select_information_set(profile, (1 << n) // 2)]
    return code[1]


def _construct_outputs(spec) -> dict:
    return {"info_set": digest(spec.info_set),
            "invariants": len(spec.info_set) == spec.size // 2}


def _patterns(q: int, code: list):
    profile, spec = code
    patterns = (puncture.qup_pattern(spec.n, q), puncture.wqp_pattern(spec, profile, q))
    reports = tuple(puncture.analyze_pattern(p, spec, profile) for p in patterns)
    return q, patterns, reports, puncture.compare_patterns(*reports)


def _pattern_outputs(result) -> dict:
    q, patterns, reports, comparison = result
    out = {}
    for pattern, report in zip(patterns, reports):
        out[f"{pattern.scheme}.destinations"] = digest(pattern.destination_set)
        out[f"{pattern.scheme}.punctured_info"] = digest(report.punctured_info_channels)
        out[f"{pattern.scheme}.union_bound"] = report.union_bound
        out[f"{pattern.scheme}.quality_loss"] = report.quality_loss
    out["invariants"] = (all(len(p.destination_set) == q for p in patterns)
                         and reports[1].punctured_info_channels == ()
                         and comparison.union_bound_delta
                         == reports[0].union_bound - reports[1].union_bound)
    return out


def _design(seed: int, tiny: bool) -> Workload:
    groups = [(6, (8, 20))] if tiny else [(10, (100, 300)), (12, (500, 1000, 1500))]
    snrs = (0.0,) if tiny else (-1.0, 0.0, 1.0)
    rng = np.random.default_rng([seed, 0xDE5])
    # Short calls: the construction of one (n, SNR) and then each of its Q
    # designs, which read the code the construction call left in ``code``.
    calls = []
    for base in snrs:
        for n, qs in groups:
            snr, code, key = base + float(rng.uniform(-0.25, 0.25)), [], f"n{n}@{base:g}dB"
            calls.append(Call(key=key, outputs=_construct_outputs, items=0,
                              run=lambda n=n, snr=snr, code=code: _construct(n, snr, code)))
            calls += [Call(key=f"{key}.q{q}", run=lambda q=q, code=code: _patterns(q, code),
                           outputs=_pattern_outputs, items=1) for q in qs]
    return Workload(name="design", item="design", calls=calls,
                    probe_calls=len(calls) // len(snrs), setup_configs=[])


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The named workload's calls for this seed; ``tiny`` shrinks it for the self-test."""
    if name in ("sweep-sc", "sweep-scl"):
        return _sweep(name, seed, tiny)
    if name == "frame-sc":
        return _frame_sc(seed, tiny)
    if name == "design":
        return _design(seed, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def outputs_match(expected, actual) -> bool:
    if isinstance(expected, float) or isinstance(actual, float):
        return (isinstance(expected, (int, float)) and isinstance(actual, (int, float))
                and abs(expected - actual) <= FLOAT_RTOL * max(abs(expected), abs(actual), 1e-300))
    return expected == actual
