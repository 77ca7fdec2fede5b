#!/usr/bin/env python3
"""Self-test for bench_regress.py: exit codes for the gate's failure modes.

Runs the gate as a subprocess against the fixtures in tests/data/ and asserts:

  * --validate accepts every fixture (including an explicit null rate and a
    wall-clock-only entry);
  * a benchmark dropped from the candidate fails the gate (exit 1) and is
    waved through by --allow-missing;
  * "sim_events_per_s": null falls back to items_per_s instead of crashing;
  * a real throughput regression past the threshold still fails;
  * wall-clock-only entries are reported in the summary's wall-time delta but
    never gate, even when the wall time balloons;
  * gated metrics (sim_events_per_s, pages_touched_per_s, sweep efficiency =
    speedup/jobs) fail in BOTH directions: a collapse and a suspiciously
    large improvement both exit 1, failure flags carry the measured percent
    delta, and --metric-threshold overrides the per-metric band;
  * speedup/jobs or pages_touched_per_s present on only one side (either
    direction) fails instead of silently skipping that gate; --allow-missing
    tolerates it;
  * the combined gate (geometric mean of every two-sided gated ratio in the
    pair) catches all metrics drifting the same direction at once while each
    stays inside its own band; the default band is loose enough that the
    same drift passes untightened, and SNAP/combined=PCT scopes the
    tightening to one snapshot pair;
  * multi-snapshot mode compares each BASELINE CANDIDATE pair in one
    invocation, prefixes failures with the snapshot stem, scopes
    SNAP/METRIC=PCT thresholds to their pair, and rejects odd file counts;
  * a "cpus" field caps the efficiency denominator at min(jobs, cpus), so a
    1-CPU run of an 8-job sweep gates at speedup/1, not speedup/8;
  * the machine-independent counters (sim_events, pages_touched,
    tables_identical) pass on an exact match and fail when off by one (or,
    for tables_identical, false).

Usage: bench_regress_test.py [DATA_DIR]   (default: ../tests/data next to
this script, so it runs both from the source tree and from CTest).
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GATE = os.path.join(HERE, "bench_regress.py")


def run_gate(*args):
    proc = subprocess.run(
        [sys.executable, GATE, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    return proc.returncode, proc.stdout


def check(label, ok, output):
    if ok:
        print(f"PASS {label}")
        return 0
    print(f"FAIL {label}\n{output}")
    return 1


def main():
    data = sys.argv[1] if len(sys.argv) > 1 else os.path.join(HERE, "..", "tests", "data")
    baseline = os.path.join(data, "bench_baseline.json")
    missing = os.path.join(data, "bench_missing.json")
    null_rate = os.path.join(data, "bench_null_rate.json")
    wall_only = os.path.join(data, "bench_wall_only.json")

    failures = 0

    for path in (baseline, missing, null_rate, wall_only):
        code, out = run_gate("--validate", path)
        failures += check(f"validate {os.path.basename(path)}", code == 0, out)

    code, out = run_gate(baseline, missing)
    failures += check("dropped benchmark fails the gate",
                      code == 1 and "MISSING" in out and "micro_b" in out, out)

    code, out = run_gate(baseline, missing, "--allow-missing")
    failures += check("--allow-missing tolerates the drop", code == 0, out)

    code, out = run_gate(baseline, null_rate)
    failures += check("null sim_events_per_s falls back to items_per_s",
                      code == 0 and "Traceback" not in out, out)

    # A genuine regression must still trip the gate: degrade one rate by 2x.
    with open(baseline, encoding="utf-8") as f:
        doc = json.load(f)
    for bench in doc["benchmarks"]:
        if bench["name"] == "micro_b":
            bench["items_per_s"] = bench["items_per_s"] / 2
            bench["ns_per_op"] = bench["ns_per_op"] * 2
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(doc, f)
        slow = f.name
    try:
        code, out = run_gate(baseline, slow)
        failures += check("50% throughput loss fails the gate",
                          code == 1 and "REGRESSION" in out, out)
    finally:
        os.unlink(slow)

    # Wall-clock-only entries: the delta shows up in the summary line but a
    # 4x-slower wall time must not trip the gate (it is machine-dependent).
    with open(wall_only, encoding="utf-8") as f:
        doc = json.load(f)
    for bench in doc["benchmarks"]:
        if bench["name"] == "sweep_parallel":
            bench["wall_s"] = bench["wall_s"] * 4
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(doc, f)
        slow_wall = f.name
    try:
        code, out = run_gate(wall_only, slow_wall)
        failures += check("wall-only slowdown reported but not gated",
                          code == 0 and "wall-time delta" in out
                          and "sweep_parallel +300.0%" in out, out)
    finally:
        os.unlink(slow_wall)

    # Two-sided gated metrics. Mutate the fixture's e2e and sweep entries and
    # check each direction of each gate.
    def mutated(base_path, mutate):
        with open(base_path, encoding="utf-8") as f:
            doc = json.load(f)
        for bench in doc["benchmarks"]:
            mutate(bench)
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump(doc, f)
            return f.name

    def set_events(factor):
        def mutate(bench):
            if bench["name"] == "e2e_run":
                bench["sim_events_per_s"] = bench["sim_events_per_s"] * factor
        return mutate

    def set_speedup(value):
        def mutate(bench):
            if bench["name"] == "sweep_parallel":
                bench["speedup"] = value
        return mutate

    def set_pages(factor):
        def mutate(bench):
            if bench["name"] == "e2e_run":
                bench["pages_touched_per_s"] = bench["pages_touched_per_s"] * factor
        return mutate

    for label, path_args, want_code, want_text in (
        # Default sim_events_per_s band is 60%: [0.4x, 2.5x]. Every failure
        # flag must carry the measured percent delta (here -70%).
        ("sim-events collapse fails with delta",
         [mutated(baseline, set_events(0.3))], 1, "REGRESSION (sim_events_per_s: -70.0%"),
        ("sim-events 3x jump fails as suspicious", [mutated(baseline, set_events(3.0))], 1, "SUSPICIOUS IMPROVEMENT"),
        ("sim-events within band passes", [mutated(baseline, set_events(1.5))], 0, ""),
        # pages_touched_per_s gates both ways with the same default band.
        ("pages-touched collapse fails with delta",
         [mutated(baseline, set_pages(0.3))], 1, "REGRESSION (pages_touched_per_s: -70.0%"),
        ("pages-touched 3x jump fails as suspicious",
         [mutated(baseline, set_pages(3.0))], 1,
         "SUSPICIOUS IMPROVEMENT (pages_touched_per_s: +200.0%"),
        ("pages-touched within band passes", [mutated(baseline, set_pages(1.5))], 0, ""),
        # Default efficiency band is 50%: [0.5x, 2.0x] on speedup/jobs.
        ("efficiency collapse fails", [mutated(wall_only, set_speedup(1.0))], 1, "REGRESSION (efficiency:"),
        ("efficiency within band passes", [mutated(wall_only, set_speedup(3.0))], 0, ""),
        # A tightened per-metric threshold turns the passing 1.5x into a fail.
        ("--metric-threshold tightens the band",
         [mutated(baseline, set_events(1.5)), "--metric-threshold", "sim_events_per_s=20"],
         1, "SUSPICIOUS IMPROVEMENT"),
        ("--metric-threshold tightens the pages band",
         [mutated(baseline, set_pages(1.5)), "--metric-threshold", "pages_touched_per_s=20"],
         1, "SUSPICIOUS IMPROVEMENT (pages_touched_per_s:"),
    ):
        candidate = path_args[0]
        try:
            base_doc = wall_only if "efficiency" in label else baseline
            code, out = run_gate(base_doc, *path_args)
            ok = code == want_code and (want_text in out if want_text else True)
            failures += check(label, ok, out)
        finally:
            os.unlink(candidate)

    # Asymmetric speedup/jobs presence: if either side drops the fields the
    # efficiency gate cannot run, and the silent skip must become an explicit
    # failure (waved through only by --allow-missing).
    def drop_speedup(bench):
        if bench["name"] == "sweep_parallel":
            bench.pop("speedup", None)
            bench.pop("jobs", None)

    no_eff = mutated(wall_only, drop_speedup)
    try:
        code, out = run_gate(wall_only, no_eff)
        failures += check("candidate dropping speedup/jobs fails the gate",
                          code == 1 and "MISSING METRIC (efficiency" in out, out)
        code, out = run_gate(no_eff, wall_only)
        failures += check("baseline without speedup/jobs fails the gate too",
                          code == 1 and "MISSING METRIC (efficiency" in out, out)
        code, out = run_gate(wall_only, no_eff, "--allow-missing")
        failures += check("--allow-missing tolerates asymmetric speedup/jobs",
                          code == 0, out)
    finally:
        os.unlink(no_eff)

    # Same rule for pages_touched_per_s: one side silently dropping the honest
    # work rate must fail, not skip the gate.
    def drop_pages(bench):
        if bench["name"] == "e2e_run":
            bench.pop("pages_touched", None)
            bench.pop("pages_touched_per_s", None)

    no_pages = mutated(baseline, drop_pages)
    try:
        code, out = run_gate(baseline, no_pages)
        failures += check("candidate dropping pages_touched_per_s fails the gate",
                          code == 1 and "MISSING METRIC (pages_touched_per_s" in out, out)
        code, out = run_gate(no_pages, baseline)
        failures += check("baseline without pages_touched_per_s fails the gate too",
                          code == 1 and "MISSING METRIC (pages_touched_per_s" in out, out)
        code, out = run_gate(baseline, no_pages, "--allow-missing")
        failures += check("--allow-missing tolerates asymmetric pages_touched_per_s",
                          code == 0, out)
    finally:
        os.unlink(no_pages)

    # Combined (geomean) gate: drift EVERY gated metric of e2e_run down by the
    # same factor, each staying just inside its own 60% band. The per-metric
    # gates all pass; only the cross-metric geomean sees the correlated slide.
    def drift_all(factor):
        def mutate(bench):
            if bench["name"] == "e2e_run":
                bench["sim_events_per_s"] = bench["sim_events_per_s"] * factor
                bench["pages_touched_per_s"] = bench["pages_touched_per_s"] * factor
        return mutate

    drifted = mutated(baseline, drift_all(0.45))
    try:
        code, out = run_gate(baseline, drifted,
                             "--metric-threshold", "combined=40")
        failures += check("correlated drift trips a tightened combined gate",
                          code == 1 and "REGRESSION (combined:" in out
                          and "REGRESSION (sim_events_per_s" not in out, out)
        code, out = run_gate(baseline, drifted)
        failures += check("same drift passes the default loose combined band",
                          code == 0, out)
        # Scoped combined threshold: tightening it for bench_baseline fails
        # that pair (stem-prefixed), tightening it for the other pair does not.
        code, out = run_gate(baseline, drifted, wall_only, wall_only,
                             "--metric-threshold", "bench_baseline/combined=40")
        failures += check("scoped combined threshold fails its own snapshot",
                          code == 1 and "bench_baseline:combined" in out, out)
        code, out = run_gate(baseline, drifted, wall_only, wall_only,
                             "--metric-threshold", "bench_wall_only/combined=40")
        failures += check("scoped combined threshold leaves other snapshots alone",
                          code == 0, out)
    finally:
        os.unlink(drifted)

    # Multi-snapshot mode: two pairs in one invocation. Pair 2 has a dropped
    # benchmark, so the invocation must fail with the snapshot-stem prefix, and
    # pair 1's clean comparison must not mask it.
    code, out = run_gate(baseline, baseline, baseline, missing)
    failures += check("multi-snapshot: failing second pair fails with stem prefix",
                      code == 1 and "bench_baseline:micro_b" in out
                      and "=== bench_baseline:" in out, out)

    code, out = run_gate(baseline, baseline, wall_only, wall_only)
    failures += check("multi-snapshot: two clean pairs pass", code == 0, out)

    code, out = run_gate(baseline, baseline, wall_only)
    failures += check("odd file count is rejected", code == 2, out)

    # Scoped threshold: tighten sim_events_per_s only for the bench_baseline
    # snapshot; the same candidate under an unrelated scope must still pass.
    boosted = mutated(baseline, set_events(1.5))
    try:
        code, out = run_gate(baseline, boosted, wall_only, wall_only,
                             "--metric-threshold", "bench_baseline/sim_events_per_s=20")
        failures += check("scoped threshold tightens its own snapshot",
                          code == 1 and "bench_baseline:e2e_run" in out, out)
        code, out = run_gate(baseline, boosted, wall_only, wall_only,
                             "--metric-threshold", "bench_wall_only/sim_events_per_s=20")
        failures += check("scoped threshold leaves other snapshots alone",
                          code == 0 and "unknown snapshot" not in out, out)
    finally:
        os.unlink(boosted)

    # cpus-aware efficiency: an 8-job sweep on 1 CPU reports speedup ~1.0 and
    # cpus=1. Against a baseline recorded the same way, efficiency is 1.0/1 on
    # both sides and the gate passes; strip cpus from the candidate and the
    # same speedup reads as 1/8 efficiency and collapses.
    def set_cpus_one(bench):
        if bench["name"] == "sweep_parallel":
            bench["speedup"] = 1.0
            bench["cpus"] = 1

    def strip_cpus(bench):
        if bench["name"] == "sweep_parallel":
            bench["speedup"] = 1.0

    one_cpu = mutated(wall_only, set_cpus_one)
    no_cpus = mutated(wall_only, strip_cpus)
    try:
        code, out = run_gate(one_cpu, one_cpu)
        failures += check("cpus=1 makes an 8-job speedup of 1.0 pass", code == 0, out)
        code, out = run_gate(one_cpu, no_cpus)
        failures += check("dropping cpus exposes the speedup/jobs collapse",
                          code == 1 and "REGRESSION (efficiency:" in out, out)
    finally:
        os.unlink(one_cpu)
        os.unlink(no_cpus)

    # Exact counters: the fixture against itself passes; one event, one page
    # or a differing sweep table fails, however close the rates stay.
    def bump(key, value):
        def mutate(bench):
            if key in bench:
                bench[key] = value(bench[key])
        return mutate

    for key, change, value in (("sim_events", "off by one", lambda v: v + 1),
                               ("pages_touched", "off by one", lambda v: v - 1),
                               ("tables_identical", "false", lambda v: False)):
        changed = mutated(wall_only, bump(key, value))
        try:
            code, out = run_gate(wall_only, changed)
            failures += check(f"{key} {change} fails the exact gate",
                              code == 1 and f"[{key}]" in out
                              and "COUNTER CHANGED" in out, out)
        finally:
            os.unlink(changed)
    code, out = run_gate(wall_only, wall_only)
    failures += check("exact counters matching pass",
                      code == 0 and "COUNTER CHANGED" not in out, out)

    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    print("all bench_regress self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
