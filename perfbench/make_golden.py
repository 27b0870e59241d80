"""Regenerate ``golden.json`` from the current program.

Usage (from the repository root)::

    python3 perfbench/make_golden.py

Runs every workload once at each committed seed (fig10-warm after its
priming sweep), checks that the outputs no seed should change agree
across the seeds, and writes the digests.  Run it only when a change is
meant to alter the program's outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import run as bench
import workloads


def main() -> int:
    entries = {}
    for workload in workloads.WORKLOADS.values():
        outputs = {}
        for seed in workloads.GOLDEN_SEEDS:
            current = bench.Run(workload, seed, golden=None)
            try:
                cold = current.prime()["text"] if workload.primed else None
                result = current.operation()
            finally:
                current.close()
            if result["text"] is None:
                raise SystemExit(f"{workload.name} seed {seed}: operation failed")
            if workload.primed and cold != result["text"]:
                raise SystemExit(f"{workload.name} seed {seed}: warm output differs from cold")
            outputs[seed] = result["text"]
        entries[workload.name] = workloads.golden_entry(workload, outputs)
        invariants = [workloads.golden_entry(workload, {s: outputs[s]})["invariant"]
                      for s in workloads.GOLDEN_SEEDS]
        if any(invariant != invariants[0] for invariant in invariants):
            raise SystemExit(f"{workload.name}: seed-invariant fields differ between seeds")
        print(f"{workload.name}: {len(entries[workload.name]['invariant'])} invariant points",
              file=sys.stderr)
    golden = {"format": "perfbench-golden", "version": 1,
              "seeds": list(workloads.GOLDEN_SEEDS), "workloads": entries}
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
