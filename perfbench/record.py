"""Record the reference outputs that ``run.py`` checks every call against.

Usage, from the repository root::

    python3 perfbench/record.py

Runs one cycle of every workload for each recorded seed and rewrites
``perfbench/reference.json``. Record only at a commit whose outputs are
known to be right: the benchmark counts every later difference as a
failed output. Seeds 0-31 cover the default seed (0) and the small seeds
runs usually pass; seed 7919 is held out, never used while the benchmark
was tuned. Other seeds are checked against the run's own first pass and
the invariants every output must satisfy.
"""

from __future__ import annotations

import json
import os

import run

RECORDED_SEEDS = tuple(range(32))
HELD_OUT_SEED = 7919


def main() -> int:
    run.import_library()
    import workloads

    # One line per (workload, seed) keeps the file diffable.
    blocks = []
    for name in workloads.WORKLOADS:
        rows = []
        for seed in RECORDED_SEEDS + (HELD_OUT_SEED,):
            workload = workloads.build(name, seed)
            outputs = {call.key: call.outputs(call.run()) for call in workload.calls}
            rows.append(f'   "{seed}": {json.dumps(outputs, sort_keys=True)}')
            print(f"recorded {name} seed {seed}", flush=True)
        blocks.append(f"  {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n  }")
    text = ('{"held_out_seed": %d,\n "outputs": {\n%s\n }\n}\n'
            % (HELD_OUT_SEED, ",\n".join(blocks)))
    json.loads(text)
    tmp = f"{run.REFERENCE}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, run.REFERENCE)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
