"""Outside-in layer tracing for the benchmark.

The wrappers here time or heap-profile public functions of ``polarpunct``
modules without changing any file under ``src/``. A function is wrapped
wherever a ``polarpunct`` module binds that function object, so callers
that imported it by name (``from .degrade import propagate``) and callers
that look it up as a module attribute at call time both reach the
wrapper. A name that does not exist is reported as absent instead of
failing, so renames and dropped aliases leave the benchmark running.
Leaving the ``with`` block puts every original back.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from dataclasses import dataclass

# (module, function) pairs timed as layers. degrade.propagate is the core of
# the degrade layer: puncture reaches it through the propagate_puncture
# alias, which it binds by name, so the alias itself is not wrapped.
LAYER_FUNCTIONS = (
    ("construct", "ga_reliability"),
    ("construct", "select_information_set"),
    ("degrade", "propagate"),
    ("puncture", "qup_pattern"),
    ("puncture", "wqp_pattern"),
    ("puncture", "analyze_pattern"),
    ("codec", "place_payload"),
    ("codec", "encode"),
    ("codec", "sc_decode"),
    ("codec", "scl_decode"),
    ("codec", "extract_payload"),
    ("channel", "puncture_tx"),
    ("channel", "transmit"),
    ("channel", "depuncture_rx"),
    ("sim", "build_components"),
    ("sim", "run_point"),
)

# Functions whose first argument is a batch of frames along all but the last axis.
DECODERS = (("codec", "sc_decode"), ("codec", "scl_decode"))

PACKAGE = "polarpunct"


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def bindings() -> dict[tuple[str, str], int]:
    """Identity of every callable bound in a polarpunct module, to check restoration."""
    return {(m.__name__, attr): id(value)
            for m in _package_modules()
            for attr, value in vars(m).items() if callable(value)}


def frames_in(args) -> int:
    shape = getattr(args[0], "shape", None) if args else None
    count = 1
    for dim in (shape or (1,))[:-1]:
        count *= dim
    return count


class _Patcher:
    """Replaces each named function by ``self._wrap(label, fn)`` while active."""

    def __init__(self, functions):
        self.labels = [f"{mod}.{fn}" for mod, fn in functions]
        self._functions = tuple(functions)
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn):
        raise NotImplementedError

    def __enter__(self):
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        modules = _package_modules()
        by_name = {m.__name__: m for m in modules}
        self.absent = []
        for (mod_name, fn_name), label in zip(self._functions, self.labels):
            module = by_name.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(module, fn_name, None)
            if not callable(fn):
                self.absent.append(label)
                continue
            wrapper = self._wrap(label, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._saved.append((m, attr, fn))
                        setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    frames: int = 0


class Tracer(_Patcher):
    """Per-layer call count, span time and self time (span minus wrapped children)."""

    def __init__(self, functions=LAYER_FUNCTIONS):
        super().__init__(functions)
        self.stats = {label: LayerStats() for label in self.labels}
        self._child_time: list[float] = []

    def _wrap(self, label: str, fn):
        stats = self.stats[label]
        stack = self._child_time
        count_frames = label in {f"{m}.{f}" for m, f in DECODERS}
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if count_frames:
                stats.frames += frames_in(args)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                stats.calls += 1
                stats.total_s += span
                stats.self_s += span - children
                if stack:
                    stack[-1] += span

        return traced


class HeapProbe(_Patcher):
    """tracemalloc peak of the whole block and of each call to the wrapped functions.

    A wrapped call's peak is the most memory it held above what was live
    when it started. ``tracemalloc.reset_peak`` scopes that peak to the call,
    so the block's peak is kept as the maximum over those scopes.
    """

    def __init__(self, functions=DECODERS):
        super().__init__(functions)
        self.call_peak = {label: 0 for label in self.labels}
        self.peak = 0

    def _wrap(self, label: str, fn):
        def probed(*args, **kwargs):
            base, peak = tracemalloc.get_traced_memory()
            self.peak = max(self.peak, peak)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                self.call_peak[label] = max(self.call_peak[label], peak - base)
                self.peak = max(self.peak, peak)

        return probed

    def __enter__(self):
        super().__enter__()
        tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            super().__exit__(*exc)
