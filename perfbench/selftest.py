"""Self-test of the benchmark harness at tiny sizes.

Usage, from the repository root::

    python3 perfbench/selftest.py

For every workload, shrunk to a few small calls, it checks that

* the layer wrappers are installed and afterwards every ``polarpunct``
  binding is the original object again;
* a traced pass gives the same outputs as the untraced pass before it;
* the per-layer self times cover at least 90% of the traced wall time;
* the metric names printed are exactly those ``BENCHMARK.json`` declares.

It also checks that a missing function is reported as absent rather than
failing, and that an output differing from the reference is counted as
failed. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import time

import run

MIN_COVERAGE = 0.9


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"self-test failed: {message}")


def main() -> int:
    run.import_library()
    import layertrace
    import workloads

    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    end_to_end_names = {m["name"] for m in declared["end_to_end"]}
    per_layer_names = {m["name"] for m in declared["per_layer"]}
    check(set(workloads.WORKLOADS) == {w["name"] for w in declared["workloads"]},
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for name in workloads.WORKLOADS:
        workload = workloads.build(name, seed=3, tiny=True)
        checker = run.Checker(None)
        probe = run.heap_probe(workload, checker)
        untraced = run.run_window(workload, 0, checker)
        metrics = run.end_to_end(workload, untraced, 1.0, probe)
        check(set(metrics) == end_to_end_names, f"{name}: end-to-end names {sorted(metrics)}")

        original = layertrace.bindings()
        tracer = layertrace.Tracer()
        with tracer:
            check(layertrace.bindings() != original, f"{name}: no wrapper was installed")
            start = time.perf_counter()
            workload.rebuild()
            wall = time.perf_counter() - start
            traced = run.run_window(workload, 0, checker)
        check(layertrace.bindings() == original, f"{name}: wrappers were not restored")
        check(not tracer.absent, f"{name}: layer functions absent: {tracer.absent}")
        check(checker.attempted > 0 and checker.failed == 0,
              f"{name}: traced outputs differ from untraced ({checker.mismatches})")
        wall += sum(dt for _, dt in traced)
        layers = run.per_layer(tracer, wall, probe, 1.0, run.overhead_ratio(untraced, traced))
        check(set(layers) == per_layer_names, f"{name}: per-layer names differ from BENCHMARK.json")
        coverage = layers["trace.coverage"][0]
        check(coverage >= MIN_COVERAGE, f"{name}: layer shares cover only {coverage:.3f} of wall")
        print(f"ok {name}: {checker.attempted} outputs checked, coverage {coverage:.3f}")

    tracer = layertrace.Tracer(layertrace.LAYER_FUNCTIONS + (("degrade", "no_such_function"),))
    original = layertrace.bindings()
    with tracer:
        pass
    check(tracer.absent == ["degrade.no_such_function"], f"absent list {tracer.absent}")
    check(layertrace.bindings() == original, "wrappers not restored after an absent name")

    workload = workloads.build("frame-sc", seed=3, tiny=True)
    wrong = {call.key: {"payload": "0", "invariants": True} for call in workload.calls}
    checker = run.Checker(wrong)
    run.run_window(workload, 0, checker)
    check(checker.failed == len(workload.calls), "a wrong reference was not reported as failed")
    print("ok harness: absent names reported, mismatches counted")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
