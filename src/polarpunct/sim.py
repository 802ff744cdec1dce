"""Monte-Carlo FER/BER sweep harness.

A sweep runs one point per channel parameter. Each point draws uniform
random information bits per frame, attaches the CRC, places the payload on
the information set, encodes, drops the punctured coded symbols, sends the
survivors through the channel, re-inserts zero LLRs, decodes and records each
frame's information-bit errors; a frame with a nonzero count is a frame error.

Reproducibility: frames are processed in fixed-size batches and every batch
derives its own random stream from (master_seed, point_index, batch_index),
so (config, master_seed) fully determines every emitted number regardless
of execution order. A batch draws all its information bits first, then
streams through the chain in frame blocks of ``_BLOCK_COLUMNS`` (frame,
path) columns; the blocks take the batch's noise in the order one draw of
the whole batch takes, so the record does not depend on the block size. A
point stops after the batch (never the block) that reaches max_frames or
min_frame_errors, whichever comes first; stopping on an error count makes
the FER estimate a fixed-error-count estimator.

A :class:`SimConfig` checks its field types, then its values, however it is
built (directly, from JSON, by ``dataclasses.replace`` or :func:`load_result`);
with custom puncturing an omitted ``q`` (0) is the number of distinct positions.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial

import numpy as np
from numpy.random import default_rng

from . import channel as chan
from . import bitops, codec, construct, puncture
from ._version import __version__

DECODERS = ("sc", "scl")
PUNCTURINGS = ("none", *puncture.SCHEMES)

# (frame, path) columns per block of a batch: SC takes one column per frame,
# SCL list_size, so a block holds about N x _BLOCK_COLUMNS decoder values.
_BLOCK_COLUMNS = 2**12


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation sweep; a broken rule raises ``ValueError``."""

    n: int
    k: int
    crc_bits: int = 0
    construction: str = "ga"
    puncturing: str = "none"
    q: int = 0
    custom_coded: tuple[int, ...] | None = None
    decoder: str = "sc"
    list_size: int = 8
    channel: str = chan.AWGN
    sweep: tuple[float, ...] = ()
    max_frames: int = 100_000
    min_frame_errors: int = 100
    master_seed: int = 0
    batch_size: int = 1000

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def transmitted(self) -> int:
        return self.size - self.q

    @property
    def rate(self) -> float:
        return self.k / self.transmitted

    def __post_init__(self):
        for f in fields(self):
            what, types, item_ok = _FIELD_TYPES[f.type]
            value = getattr(self, f.name)
            if type(value) not in types or item_ok and not all(map(item_ok, value or ())):
                raise ValueError(f"config field {f.name!r} must be {what}, got {value!r}")
            if type(value) is list:
                object.__setattr__(self, f.name, tuple(value))
        N = self.size
        if not 1 <= self.n <= construct.MAX_CODE_WIDTH:
            raise ValueError(f"n must be in [1, {construct.MAX_CODE_WIDTH}], got {self.n}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.crc_bits not in construct.CRC_WIDTHS:
            raise ValueError(f"crc_bits must be one of {construct.CRC_WIDTHS}, got {self.crc_bits}")
        if self.k + self.crc_bits > N:
            raise ValueError("k + crc_bits exceeds the block length")
        if self.puncturing not in PUNCTURINGS:
            raise ValueError(f"puncturing must be one of {PUNCTURINGS}")
        if self.puncturing == "none" and self.q != 0:
            raise ValueError("q must be 0 without puncturing")
        if self.puncturing in (puncture.QUP, puncture.WQP) and not 0 < self.q < N:
            raise ValueError(f"q must be in (0, {N}) for {self.puncturing}")
        if self.puncturing == puncture.WQP and self.q > N - (self.k + self.crc_bits):
            raise ValueError("wqp requires q <= N - (k + crc_bits)")
        if self.puncturing == puncture.CUSTOM:
            if self.custom_coded is None:
                raise ValueError("custom puncturing needs coded positions")
            # The reading rule of the pattern build, without its propagation.
            distinct = len(bitops.index_set(self.custom_coded, self.n))
            if self.q == 0:  # omitted: the positions give it
                object.__setattr__(self, "q", distinct)
            if self.q != distinct:
                raise ValueError("q must match the number of custom coded positions")
            if self.q >= N:
                raise ValueError("cannot puncture every coded symbol")
        elif self.custom_coded is not None:
            raise ValueError(f"custom coded positions need puncturing 'custom', "
                             f"got {self.puncturing!r}")
        if self.k > self.transmitted:
            raise ValueError("more information bits than transmitted symbols")
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}")
        if self.decoder == "scl" and self.list_size < 1:
            raise ValueError("list_size must be >= 1")
        if not self.sweep:
            raise ValueError("sweep must contain at least one point")
        if len(set(self.sweep)) != len(self.sweep):
            raise ValueError("sweep points must be distinct")
        for value in self.sweep:
            self.channel_config(value)  # rejects an unknown channel and a point out of its range
        if self.max_frames < 1 or self.min_frame_errors < 1 or self.batch_size < 1:
            raise ValueError("max_frames, min_frame_errors and batch_size must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        self.design_snr_db()  # rejects a malformed construction string

    def channel_config(self, sweep_value: float) -> chan.ChannelConfig:
        return chan.ChannelConfig(kind=self.channel, param=sweep_value, rate_for_ebn0=self.rate)

    def design_snr_db(self) -> float | None:
        """Design Es/N0 for the GA construction.

        Defaults to the sweep's Eb/N0 midpoint converted to Es/N0 at the
        punctured rate when no explicit value is configured; only an AWGN
        sweep has that default. Raises ``ValueError`` for a malformed
        construction string.
        """
        default = None
        if self.channel == chan.AWGN:
            mid = 0.5 * (min(self.sweep) + max(self.sweep))
            default = mid + 10.0 * math.log10(self.rate)
        method, param = construct.parse_construction(self.construction, default)
        return param if method == construct.GA else None

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["custom_coded"] = None if self.custom_coded is None else list(self.custom_coded)
        d["sweep"] = list(self.sweep)
        return d

    @classmethod
    def from_json_dict(cls, d: dict, **overrides) -> "SimConfig":
        """Checked config from its JSON fields, ``overrides`` replacing some. A ``d``
        that is no JSON object or an unknown or missing required field raises
        ``ValueError`` naming the field; so does any rule of :class:`SimConfig`,
        its field types included. A custom config may omit ``q``, which the
        positions then give."""
        if type(d) is not dict:
            raise ValueError(f"a config must be a JSON object, got {d!r}")
        return cls(**_checked_fields(cls, {**d, **overrides}, "config"))


def _checked_fields(cls, d, what: str) -> dict:
    """``d`` if it is a JSON object that holds every field of the dataclass ``cls``
    without a default and no key that is not a field; else ``ValueError`` naming the fault."""
    if type(d) is not dict:
        raise ValueError(f"a {what} must be a JSON object, got {d!r}")
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
    if missing:
        raise ValueError(f"missing required {what} fields: {missing}")
    return d


# Per SimConfig field type: what it is, its types and a test of each item of a tuple or list.
# type(), not isinstance(): a bool or a numpy integer is no integer, but any float is a number.
_FIELD_TYPES = {"int": ("an integer", (int,), None), "str": ("a string", (str,), None),
                "tuple[float, ...]": ("a list of numbers", (tuple, list),
                                      lambda x: type(x) is int or isinstance(x, float)),
                "tuple[int, ...] | None": ("a list of integers or null",
                                           (tuple, list, type(None)), lambda x: type(x) is int)}


@dataclass(frozen=True)
class PointResult:
    sweep_param: float
    frames: int
    frame_errors: int
    bit_errors: int
    info_bits_sent: int
    fer: float
    ber: float
    wall_time_s: float = field(compare=False)

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    points: tuple[PointResult, ...]
    pattern: dict | None = None
    version: str = __version__

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "config": self.config.to_json_dict(),
            "pattern": self.pattern,
            "points": [p.to_json_dict() for p in self.points],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SimResult":
        """The result of its JSON fields. A ``d`` or a point that is no JSON object,
        or has an unknown or a missing required field, raises ``ValueError`` naming it."""
        d = _checked_fields(cls, d, "result")
        return cls(**{**d, "config": SimConfig.from_json_dict(d["config"]),
                      "points": tuple(PointResult(**_checked_fields(PointResult, p, "point"))
                                      for p in d["points"])})


def build_components(cfg: SimConfig):
    """Profile, spec, pattern (empty without puncturing) and CRC width (0: none) of a config."""
    profile = construct.build_profile(cfg.construction, cfg.n, cfg.design_snr_db())
    spec = construct.select_information_set(profile, cfg.k + cfg.crc_bits, crc_bits=cfg.crc_bits)
    pattern = (puncture.custom_pattern((), cfg.n) if cfg.puncturing == "none" else
               puncture.make_pattern(cfg.puncturing, cfg.n, cfg.q, spec, profile,
                                     cfg.custom_coded))
    return profile, spec, pattern, cfg.crc_bits


def _channel_llrs(payload, spec, pattern, channel_cfg: chan.ChannelConfig, rng) -> np.ndarray:
    """Decoder input for a batch of payloads: place, encode, puncture, send, depuncture.

    One name carries the batch from stage to stage, so each stage's input
    is freed once the next stage's output is bound, and the returned
    depunctured LLRs are the only full-batch array of the chain left.
    """
    batch = chan.puncture_tx(codec.encode(codec.place_payload(payload, spec)), pattern)
    batch = chan.transmit(batch, channel_cfg, rng)
    return chan.depuncture_rx(batch, pattern)


def _run_batch(components, cfg: SimConfig, channel_cfg: chan.ChannelConfig,
               point_index: int, batch_index: int, frames: int) -> np.ndarray:
    """Per-frame error record of one seeded batch of ``frames`` frames.

    Entry ``i`` (``np.intp``) is the number of frame ``i``'s ``k`` information
    bits decoded wrong, CRC bits aside, so a frame error is a nonzero entry.
    The bits and CRC are drawn whole; the chain, from placement to error
    count, then runs on blocks of ``max(1, _BLOCK_COLUMNS // paths)`` frames
    (``paths``: the list size for SCL, 1 for SC), each writing its slice.
    """
    _, spec, pattern, crc = components
    if cfg.decoder == "sc":
        decode, paths = codec.sc_decode, 1
    else:
        decode, paths = partial(codec.scl_decode, list_size=cfg.list_size), cfg.list_size
    rng = default_rng([cfg.master_seed, point_index, batch_index])
    info = rng.integers(0, 2, size=(frames, cfg.k), dtype=np.uint8)
    payload = codec.crc_append(info, crc) if crc else info
    step = max(1, _BLOCK_COLUMNS // paths)
    errors = np.empty(frames, dtype=np.intp)
    for lo in range(0, frames, step):
        # Nested calls, so the decoder's input and output are freed once read.
        payload_hat = codec.extract_payload(
            decode(_channel_llrs(payload[lo : lo + step], spec, pattern, channel_cfg, rng),
                   spec), spec)
        errors[lo : lo + step] = (payload_hat[:, : cfg.k] != info[lo : lo + step]).sum(axis=1)
    return errors


def run_point(cfg: SimConfig, sweep_value: float, *, _components=None) -> PointResult:
    """Monte-Carlo loop for one sweep point; deterministic given the config.

    Runs batches of ``batch_size`` frames (the last one cut at ``max_frames``)
    through :func:`_run_batch`, adds up each record's nonzero entries (frame
    errors) and sum (bit errors), and stops after the first batch that reaches
    ``max_frames`` or ``min_frame_errors``. The chain's memory follows the
    block of ``_BLOCK_COLUMNS`` columns, not ``batch_size``.
    """
    if _components is None:
        _components = build_components(cfg)
    try:
        point_index = cfg.sweep.index(sweep_value)
    except ValueError:
        raise ValueError(f"sweep value {sweep_value!r} is not in the sweep {cfg.sweep}") from None
    channel_cfg = cfg.channel_config(sweep_value)

    start = time.perf_counter()
    frames = frame_errors = bit_errors = 0
    batch_index = 0
    while frames < cfg.max_frames and frame_errors < cfg.min_frame_errors:
        B = min(cfg.batch_size, cfg.max_frames - frames)
        errors = _run_batch(_components, cfg, channel_cfg, point_index, batch_index, B)
        frame_errors += int(np.count_nonzero(errors))
        bit_errors += int(errors.sum())
        frames += B
        batch_index += 1

    info_bits = frames * cfg.k
    return PointResult(
        sweep_param=float(sweep_value), frames=frames, frame_errors=frame_errors,
        bit_errors=bit_errors, info_bits_sent=info_bits,
        fer=frame_errors / frames, ber=bit_errors / info_bits,
        wall_time_s=time.perf_counter() - start,
    )


def run_sweep(cfg: SimConfig, workers: int = 1) -> SimResult:
    """Run every sweep point on components built once; points are independent.

    ``workers`` processes run the points, but never more than there are
    points or CPUs (``os.cpu_count()``, taken as 1 when unknown); one
    worker runs them in this process.
    """
    bitops.check_ints(workers=workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    components = build_components(cfg)
    run = partial(run_point, cfg, _components=components)
    workers = min(workers, len(cfg.sweep), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = tuple(pool.map(run, cfg.sweep))
    else:
        points = tuple(map(run, cfg.sweep))
    return SimResult(config=cfg, points=points, pattern=None if cfg.puncturing == "none"
                     else components[2].to_json_dict())


CSV_COLUMNS = ("sweep_param", "frames", "frame_errors", "FER", "bit_errors", "BER")


def result_csv(result: SimResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for p in result.points:
        writer.writerow([p.sweep_param, p.frames, p.frame_errors, p.fer,
                         p.bit_errors, p.ber])
    return buf.getvalue()


def write_atomic(path: str, write) -> None:
    """Call ``write(fh)`` on a temporary file beside ``path``, then ``os.replace`` it there.

    A failed write leaves any earlier file whole and no temporary file behind.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


# The JSON encoder's chunks are a token or two each; this many go into one write.
_CHUNKS_PER_WRITE = 2**12


def write_json(payload, fh) -> None:
    """Stream ``payload`` to the open file ``fh`` as indented JSON and a newline,
    in writes of ``_CHUNKS_PER_WRITE`` encoder chunks: the text is never held
    whole, and an unbuffered stdout (``python -u``) takes a few writes, not one
    per token."""
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    for chunk in chunks:
        fh.write(chunk + "".join(itertools.islice(chunks, _CHUNKS_PER_WRITE - 1)))
    fh.write("\n")


FORMATS = ("json", "csv")


def check_formats(formats: tuple[str, ...]) -> None:
    """``ValueError`` naming the first of ``formats`` that :func:`emit` cannot write."""
    for fmt in formats:
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}; choose from {', '.join(FORMATS)}")


def emit(result: SimResult, out_prefix: str, formats: tuple[str, ...] = FORMATS) -> list[str]:
    """Write the result as <prefix>.json and/or <prefix>.csv; returns the paths.

    Every format is checked before any file is written. Each file goes
    through :func:`write_atomic`, so a failed write leaves any earlier
    file whole.
    """
    check_formats(formats)
    paths = []
    for fmt in formats:
        path = f"{out_prefix}.{fmt}"
        write_atomic(path, partial(write_json, result.to_json_dict()) if fmt == "json"
                     else lambda fh: fh.write(result_csv(result)))
        paths.append(path)
    return paths


def load_result(path: str) -> SimResult:
    with open(path) as fh:
        return SimResult.from_json_dict(json.load(fh))
