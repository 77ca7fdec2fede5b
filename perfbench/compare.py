#!/usr/bin/env python3
"""Compares two benchmark records saved by run.py (.bench_build/results/*.json).

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints each metric's two values and their ratio. Host-time metrics are
compared only when both records carry the same host fingerprint (CPU model,
affinity CPU count, build type and flags, link-time optimization, compiler);
otherwise they are listed as not comparable and the exit code is 1. Simulated
metrics are compared regardless: with equal seeds, a simulator-only change
must leave them bit-identical.
"""

import json
import sys
from pathlib import Path


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("records are of different workloads or trace modes", file=sys.stderr)
        return 2
    same_host = a["fingerprint"] == b["fingerprint"]
    if not same_host:
        for key in sorted(set(a["fingerprint"]) | set(b["fingerprint"])):
            if a["fingerprint"].get(key) != b["fingerprint"].get(key):
                print(f"fingerprint differs in {key}: {a['fingerprint'].get(key)!r} vs "
                      f"{b['fingerprint'].get(key)!r}")
    if a["seed"] != b["seed"]:
        print(f"seeds differ ({a['seed']} vs {b['seed']}): simulated metrics may differ too")
    refused = 0
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            print(f"{name:32s} missing from the second record")
            continue
        if name in a["host_metrics"] and not same_host:
            print(f"{name:32s} not comparable: host fingerprints differ")
            refused += 1
            continue
        va, vb = ma["value"], mb["value"]
        change = f"{vb / va:.4f}x" if va else ("same" if vb == va else "n/a")
        print(f"{name:32s} {va:>16.6g} {vb:>16.6g} {ma['unit']:>6s}  {change}")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
