"""Run one polarpunct benchmark workload and print its metrics.

Usage, from the repository root (no install needed; ``src/`` is used)::

    python3 perfbench/run.py --workload sweep-sc --seed 0 --seconds 20 --trace 0

All load comes from this one process in a closed loop: each call into the
library waits for the previous one. BLAS/OpenMP threads are pinned to one.
The run

1. times ``setup_s`` in fresh processes: import of ``polarpunct`` plus
   ``build_components`` for the workload's configs (median of several);
2. builds the workload's inputs from ``--seed`` and runs its first calls
   once under tracemalloc, which also fills the library's caches;
3. repeats the workload's cycle of calls for ``--seconds`` seconds, timing
   every call and checking every call's outputs against the reference
   recorded in ``reference.json`` for this seed (for a seed with no record,
   against the first pass of this run plus the invariants each output must
   satisfy).

With ``--trace 0`` it prints the end-to-end metrics: ``items_per_s`` from
each call's best time in the window, ``peak_heap_mb`` from the tracemalloc
pass and ``setup_s``. With ``--trace 1`` the window is split: the first
half runs untraced, the second half re-runs the in-process set-up and the
calls with every layer function wrapped (see ``layertrace.py``), and it
prints the per-layer metrics. Both halves are checked, so a traced count
that differs from the untraced one is a failure.

The last line of standard output is the result object; the line before it
is a report with the environment, sample counts and any mismatches.
Workloads and the reasons for them are documented in ``workloads.py``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 5
MAX_MISMATCHES_SHOWN = 10

SETUP_PROBE = """
import json, sys, time
start = time.perf_counter()
import polarpunct
from polarpunct import sim
imported = time.perf_counter()
for cfg in json.loads(sys.argv[1]):
    sim.build_components(sim.SimConfig.from_json_dict(cfg))
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "setup_s": done - start,
                  "module": polarpunct.__file__}))
"""


def import_library():
    """Import polarpunct from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "polarpunct" / "__init__.py").is_file():
        raise SystemExit(f"error: no polarpunct sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polarpunct

    if Path(polarpunct.__file__).resolve().parent != SRC / "polarpunct":
        raise SystemExit(f"error: imported polarpunct from {polarpunct.__file__}, not {SRC}")


def measure_setup(configs: list[dict]) -> tuple[float, float]:
    """Median fresh-process (setup_s, import_s) over SETUP_REPEATS processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup, imported = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-s", "-c", SETUP_PROBE, json.dumps(configs)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(probe["module"]).resolve().parent != SRC / "polarpunct":
            raise SystemExit(f"error: set-up probe imported {probe['module']}")
        setup.append(probe["setup_s"])
        imported.append(probe["import_s"])
    return statistics.median(setup), statistics.median(imported)


class Checker:
    """Compares each call's outputs with the expected ones and counts mismatches."""

    def __init__(self, expected: dict | None):
        from workloads import outputs_match

        self._match = outputs_match
        self.recorded = expected is not None
        self.expected = dict(expected or {})
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[dict] = []

    def check(self, call, result) -> None:
        got = call.outputs(result)
        if self.recorded:
            want = self.expected.get(call.key, {})
        else:
            want = self.expected.setdefault(call.key, got)
        for name in sorted(set(got) | set(want)):
            self.attempted += 1
            ok = name in got and name in want and self._match(want[name], got[name])
            if name == "invariants":
                ok = ok and got[name] is True
            if not ok:
                self.failed += 1
                if len(self.mismatches) < MAX_MISMATCHES_SHOWN:
                    self.mismatches.append({"call": call.key, "output": name,
                                            "expected": want.get(name), "got": got.get(name)})
                    print(f"MISMATCH {call.key}.{name}: expected {want.get(name)!r}, "
                          f"got {got.get(name)!r}", file=sys.stderr)


def run_window(workload, seconds: float, checker: Checker) -> list[tuple[int, float]]:
    """Cycle through the calls for ``seconds``, and at least once through all.

    Returns (call index, latency) samples.
    """
    calls = workload.calls
    samples = []
    clock = time.perf_counter
    start = clock()
    i = 0
    while i < len(calls) or clock() - start < seconds:
        index = i % len(calls)
        call = calls[index]
        t0 = clock()
        result = call.run()
        samples.append((index, clock() - t0))
        checker.check(call, result)
        i += 1
    return samples


def heap_probe(workload, checker: Checker):
    from layertrace import HeapProbe

    with HeapProbe() as probe:
        for call in workload.calls[: workload.probe_calls]:
            checker.check(call, call.run())
    return probe


def latency_summary(samples) -> dict:
    """Per-call latency percentiles in ms, for the report."""
    cuts = statistics.quantiles([dt for _, dt in samples], n=100, method="inclusive")
    return {f"p{p}": cuts[p - 1] * 1e3 for p in (10, 50, 90, 99)}


def end_to_end(workload, samples, setup_s: float, probe) -> dict:
    # Per-call times on a shared machine are bimodal: a neighbour's load can
    # nearly double them for many seconds at a time, so a mean or median
    # follows the neighbours. Throughput is read from each call's best time
    # in the run (best-of-k), which moves least between runs.
    best: dict[int, float] = {}
    for index, dt in samples:
        best[index] = min(dt, best.get(index, dt))
    items = sum(workload.calls[index].items for index in best)
    return {
        "items_per_s": (items / sum(best.values()), "1/s"),
        "peak_heap_mb": (probe.peak / 1e6, "MB"),
        "setup_s": (setup_s, "s"),
    }


def overhead_ratio(untraced, traced) -> float:
    """Traced over untraced wall, from the per-call median latencies of each half."""
    def medians(samples):
        by_call: dict[int, list[float]] = {}
        for index, dt in samples:
            by_call.setdefault(index, []).append(dt)
        return {index: statistics.median(v) for index, v in by_call.items()}

    before, after = medians(untraced), medians(traced)
    common = before.keys() & after.keys()
    return sum(after[i] for i in common) / sum(before[i] for i in common)


def per_layer(tracer, wall_s: float, probe, import_s: float, overhead: float) -> dict:
    metrics = {}
    for label, stats in tracer.stats.items():
        metrics[f"{label}.self_s"] = (stats.self_s, "s")
        metrics[f"{label}.calls"] = (stats.calls, "count")
        metrics[f"{label}.share"] = (stats.self_s / wall_s, "ratio")
    for label in ("codec.sc_decode", "codec.scl_decode"):
        stats = tracer.stats[label]
        us = stats.total_s / stats.frames * 1e6 if stats.frames else 0.0
        metrics[f"{label}.us_per_frame"] = (us, "us")
        metrics[f"{label}.peak_heap_mb"] = (probe.call_peak[label] / 1e6, "MB")
    metrics["import.polarpunct_s"] = (import_s, "s")
    metrics["trace.coverage"] = (sum(s.self_s for s in tracer.stats.values()) / wall_s, "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def environment(seed: int) -> dict:
    import numpy

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "polarpunct").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": version("scipy"), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "git_sha": git_sha, "src_sha256": src.hexdigest(),
        "threads": {v: os.environ[v] for v in THREAD_VARS}, "seed": seed,
    }


def load_reference(workload: str, seed: int) -> dict | None:
    with open(REFERENCE) as fh:
        return json.load(fh)["outputs"].get(workload, {}).get(str(seed))


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (report, result) as printed."""
    import workloads
    from layertrace import Tracer

    workload = workloads.build(name, seed)
    setup_s, import_s = measure_setup(workload.setup_configs)
    checker = Checker(load_reference(name, seed))
    probe = heap_probe(workload, checker)
    report = {"workload": name, "seed": seed, "trace": int(trace), "item": workload.item,
              "reference": "recorded" if checker.recorded else "first pass + invariants"}
    if not trace:
        samples = run_window(workload, seconds, checker)
        metrics = end_to_end(workload, samples, setup_s, probe)
        report.update(samples=len(samples), latency_ms=latency_summary(samples))
    else:
        untraced = run_window(workload, seconds / 2, checker)
        tracer = Tracer()
        with tracer:
            start = time.perf_counter()
            workload.rebuild()
            rebuild_s = time.perf_counter() - start
            traced = run_window(workload, seconds / 2, checker)
        wall = rebuild_s + sum(dt for _, dt in traced)
        metrics = per_layer(tracer, wall, probe, import_s,
                            overhead_ratio(untraced, traced))
        report.update(samples_untraced=len(untraced), samples_traced=len(traced),
                      traced_wall_s=wall, absent=tracer.absent)
    report.update(attempted=checker.attempted, failed=checker.failed,
                  failed_frac=checker.failed / max(checker.attempted, 1),
                  mismatches=checker.mismatches, environment=environment(seed))
    result = {"correct": checker.failed == 0 and checker.attempted > 0,
              "attempted": checker.attempted, "failed": checker.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    if not result["correct"]:
        print(f"FAILED: {result['failed']} of {result['attempted']} checked outputs differ "
              "from the reference", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
