"""Polar-code rate matching with a fixed information set.

Index algebra and the degradation/puncture-propagation calculus, bit-channel
reliability constructions, quasi-uniform and worst-quality puncture
patterns with diagnostics, an SC/SCL polar codec and a reproducible
Monte-Carlo FER/BER harness.
"""

from ._version import __version__
from .bitops import bit_reverse, covers
from .channel import AWGN, BEC, ChannelConfig, depuncture_rx, puncture_tx, transmit
from .codec import (
    crc_append,
    crc_check,
    encode,
    extract_payload,
    place_payload,
    sc_decode,
    scl_decode,
)
from .construct import (
    DEFAULT_PW_BETA,
    PolarCodeSpec,
    ReliabilityProfile,
    bec_bhattacharyya,
    ga_reliability,
    pw_reliability,
    select_information_set,
)
from .degrade import PropagationMap, propagate, punctured_bit_channels
from .puncture import (
    PatternComparison,
    PatternReport,
    PuncturePattern,
    UnsupportedConfiguration,
    analyze_pattern,
    compare_patterns,
    custom_pattern,
    qup_pattern,
    wqp_pattern,
)
from .sim import PointResult, SimConfig, SimResult, emit, load_result, run_point, run_sweep

__all__ = [
    "__version__",
    "bit_reverse", "covers",
    "propagate", "punctured_bit_channels",
    "PropagationMap",
    "ReliabilityProfile", "PolarCodeSpec", "DEFAULT_PW_BETA",
    "bec_bhattacharyya", "ga_reliability", "pw_reliability", "select_information_set",
    "PuncturePattern", "PatternReport", "PatternComparison", "UnsupportedConfiguration",
    "qup_pattern", "wqp_pattern", "custom_pattern", "analyze_pattern", "compare_patterns",
    "crc_append", "crc_check",
    "encode", "place_payload", "extract_payload",
    "sc_decode", "scl_decode",
    "ChannelConfig", "AWGN", "BEC", "puncture_tx", "transmit", "depuncture_rx",
    "SimConfig", "SimResult", "PointResult", "run_point", "run_sweep", "emit", "load_result",
]
