#!/usr/bin/env python3
"""Validate and compare BENCH_*.json documents emitted by bench/bench_json.

Two modes:

  bench_regress.py --validate FILE
      Checks that FILE parses and matches the tmh-bench-v1 schema (used by the
      bench-smoke CTest target). Exit 0 on success.

  bench_regress.py BASELINE CANDIDATE [BASELINE2 CANDIDATE2 ...]
                   [--threshold PCT] [--metric-threshold [SNAP/]M=PCT]
      Compares each BASELINE/CANDIDATE pair in turn (so one invocation gates
      every committed snapshot: BENCH_substrate.json and BENCH_scale.json
      against their freshly recorded counterparts). Prints a per-benchmark
      comparison (ns/op and throughput ratios) and exits 1 on:
        * a micro-kernel throughput (items/s) regression beyond the general
          threshold (default 25%, deliberately loose: single-machine wall
          numbers), or
        * a gated metric (sim_events_per_s; pages_touched_per_s, the honest
          work rate that survives op batching; sweep efficiency =
          speedup/jobs) moving beyond its per-metric threshold in EITHER
          direction — a
          too-good number means the committed snapshot is stale or the
          measurement is broken, and should be re-recorded deliberately, or
        * a machine-independent counter (sim_events, pages_touched,
          tables_identical) differing from BASELINE at all: the simulation
          is deterministic, so any drift is a change in behaviour, or
        * a benchmark present in BASELINE but missing from CANDIDATE
          (pass --allow-missing to tolerate deliberate removals), or
        * a sweep benchmark reporting speedup/jobs on only ONE side — the
          efficiency gate cannot run, and a silently skipped gate is itself a
          failure (--allow-missing tolerates this too), or
        * the COMBINED gate: the geometric mean of every two-sided gated
          ratio in the pair moving beyond the "combined" threshold. Each
          metric can drift just inside its own band, so a snapshot whose
          storm metrics all slide the same direction at once (the
          BENCH_scale failure mode) passes every per-metric gate while the
          whole machine has regressed; the geomean sees the systemic drift.
          Its default band is deliberately very loose (85%) because a slower
          CI machine shifts every wall-clock rate down together; tighten it
          per snapshot (e.g. --metric-threshold BENCH_scale/combined=40)
          when baseline and candidate come from the same machine.

Per-metric thresholds are set with repeatable --metric-threshold flags, e.g.
  --metric-threshold sim_events_per_s=60 --metric-threshold efficiency=50
A threshold of T percent accepts ratios in [1 - T/100, 1 / (1 - T/100)], so
the band is symmetric in log space. Defaults are generous because CI may run
on a machine unlike the one that recorded the snapshot: 60 for
sim_events_per_s and pages_touched_per_s, 50 for efficiency. Every failure
flag carries the measured percent delta alongside the threshold it tripped.

With multiple snapshot pairs, a threshold can be scoped to one snapshot by
prefixing it with the baseline file's stem and a slash:
  --metric-threshold BENCH_scale/sim_events_per_s=40
applies only to the pair whose baseline is .../BENCH_scale.json; unscoped
thresholds apply to every pair. Failures are reported per snapshot.

Sweep efficiency divides speedup by min(jobs, cpus) when the benchmark
records the "cpus" it actually ran on: requesting 8 workers on a 1-CPU
container can never speed up 8x, and gating speedup/jobs there would hold the
sweep to an impossible bar (or hide a real scaling regression on big
machines behind a band sized for small ones).

Typical flow:

  ./build/bench/bench_json /tmp/before.json     # on the baseline commit
  ./build/bench/bench_json /tmp/after.json      # on the candidate
  python3 tools/bench_regress.py /tmp/before.json /tmp/after.json
"""

import argparse
import json
import math
import os
import sys

SCHEMA = "tmh-bench-v1"

# Metrics gated in both directions, with their default thresholds (percent).
GATED_METRIC_DEFAULTS = {
    "sim_events_per_s": 60.0,
    "pages_touched_per_s": 60.0,  # honest work rate: survives op batching
    "efficiency": 50.0,  # parallel-sweep speedup / jobs
    # Geometric mean of ALL the two-sided ratios above, across the whole
    # snapshot pair: catches every gated metric drifting the same direction
    # at once while each stays just inside its own band. Loose by default
    # (cross-machine wall rates move together); scope-tighten per snapshot.
    "combined": 85.0,
}


# Counters that do not depend on the host: gated for exact equality.
EXACT_COUNTERS = ("sim_events", "pages_touched", "tables_identical")


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    errors = validate(doc)
    if errors:
        raise SystemExit(f"{path}: " + "; ".join(errors))
    return doc


def validate(doc):
    errors = []
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    benches = doc.get("benchmarks")
    if not isinstance(benches, list) or not benches:
        errors.append("benchmarks must be a non-empty list")
        return errors
    for b in benches:
        name = b.get("name")
        if not isinstance(name, str) or not name:
            errors.append("benchmark missing name")
            continue
        # Micro-kernels report ns/op + items/s; end-to-end runs report
        # sim-events/s; wall-clock-only entries (e.g. sweep_fig07_parallel)
        # report just wall_s. Any of the three field sets is acceptable.
        has_micro = isinstance(b.get("ns_per_op"), (int, float)) and isinstance(
            b.get("items_per_s"), (int, float)
        )
        has_e2e = isinstance(b.get("sim_events_per_s"), (int, float))
        has_wall = isinstance(b.get("wall_s"), (int, float))
        if not (has_micro or has_e2e or has_wall):
            errors.append(f"{name}: no ns_per_op/items_per_s, sim_events_per_s, or wall_s")
        for key in ("ns_per_op", "items_per_s", "sim_events_per_s", "wall_s",
                    "serial_wall_s", "speedup", "pages_touched", "pages_touched_per_s"):
            v = b.get(key)
            if v is not None and (not isinstance(v, (int, float)) or v <= 0):
                errors.append(f"{name}: {key} must be a positive number, got {v!r}")
        for key in ("jobs", "cpus", "workers"):
            v = b.get(key)
            if v is not None and (not isinstance(v, int) or v <= 0):
                errors.append(f"{name}: {key} must be a positive integer, got {v!r}")
    return errors


def rate_of(bench):
    """Higher-is-better throughput, or (None, None) for wall-clock-only entries."""
    # A key explicitly set to null means "not measured": fall through to the
    # micro-kernel rate rather than crashing on float(None).
    v = bench.get("sim_events_per_s")
    if v is not None:
        return float(v), "sim_events_per_s"
    v = bench.get("items_per_s")
    if v is not None:
        return float(v), "items_per_s"
    return None, None


def efficiency_of(bench):
    """Parallel scaling efficiency: speedup per *usable* worker, or None.

    The denominator is min(jobs, cpus) when the benchmark records the CPUs it
    ran on — a 1-CPU container asked for 8 jobs can only ever reach 1x, and
    dividing by 8 would misread that as a 12% efficiency collapse.
    """
    speedup = bench.get("speedup")
    jobs = bench.get("jobs")
    if speedup is None or not jobs:
        return None
    cpus = bench.get("cpus")
    denom = min(jobs, cpus) if isinstance(cpus, int) and cpus > 0 else jobs
    return float(speedup) / float(denom)


def gate_both_ways(name, metric, base_val, cand_val, threshold_pct, failed):
    """Two-sided gate: ratios outside [1-t, 1/(1-t)] fail. Returns the ratio."""
    ratio = cand_val / base_val
    delta_pct = (ratio - 1.0) * 100.0
    lo = 1.0 - threshold_pct / 100.0
    hi = 1.0 / lo if lo > 0 else float("inf")
    flag = ""
    if ratio < lo:
        flag = f"  << REGRESSION ({metric}: {delta_pct:+.1f}%, threshold -{threshold_pct:.0f}%)"
        failed.append(name)
    elif ratio > hi:
        flag = (f"  << SUSPICIOUS IMPROVEMENT ({metric}: {delta_pct:+.1f}%, "
                f"threshold +{(hi - 1.0) * 100.0:.0f}%: re-record the snapshot)")
        failed.append(name)
    return ratio, flag


def compare(baseline, candidate, threshold_pct, metric_thresholds, allow_missing=False):
    base_by_name = {b["name"]: b for b in baseline["benchmarks"]}
    worst = 0.0
    failed = []
    wall_notes = []
    gated_ratios = []  # every two-sided ratio, for the combined geomean gate
    print(f"{'benchmark':32} {'base':>14} {'cand':>14} {'ratio':>8}")
    for cand in candidate["benchmarks"]:
        name = cand["name"]
        base = base_by_name.get(name)
        if base is None:
            print(f"{name:32} {'(new)':>14}")
            continue
        for key in EXACT_COUNTERS:
            if key not in base or (allow_missing and key not in cand):
                continue
            if cand.get(key) != base[key]:
                print(f"{name + ' [' + key + ']':32} {base[key]!s:>14} {cand.get(key)!s:>14}"
                      f"  << COUNTER CHANGED (exact gate)")
                failed.append(name)
        base_rate, unit = rate_of(base)
        cand_rate, _ = rate_of(cand)
        base_wall = base.get("wall_s")
        cand_wall = cand.get("wall_s")
        if base_wall is not None and cand_wall is not None:
            # Lower is better for wall clocks; positive delta = got slower.
            wall_notes.append(
                f"{name} {(float(cand_wall) / float(base_wall) - 1.0) * 100.0:+.1f}%")

        # Scaling efficiency (speedup/jobs) is gated both ways whenever both
        # documents report it, independently of any throughput fields.
        base_eff = efficiency_of(base)
        cand_eff = efficiency_of(cand)
        if (base_eff is None) != (cand_eff is None):
            # One side has speedup/jobs and the other does not: the efficiency
            # gate would silently skip, which is how a sweep benchmark that
            # stops reporting its scaling numbers sneaks past the gate. Treat
            # asymmetric presence like a dropped benchmark: explicit failure
            # unless --allow-missing waves it through.
            side = "candidate" if cand_eff is None else "baseline"
            flag = "" if allow_missing else f"  << MISSING METRIC (efficiency: no speedup/jobs in {side})"
            print(f"{name + ' [eff]':32} {'(asymmetric speedup/jobs)':>29}{flag}")
            if not allow_missing:
                failed.append(name)
        if base_eff is not None and cand_eff is not None:
            eff_threshold = metric_thresholds["efficiency"]
            ratio, flag = gate_both_ways(name, "efficiency", base_eff, cand_eff,
                                         eff_threshold, failed)
            gated_ratios.append(ratio)
            print(f"{name + ' [eff]':32} {base_eff:>13.2f}x {cand_eff:>13.2f}x "
                  f"{ratio:>7.2f}x{flag}")

        # Honest work rate (pages touched per wall second): gated both ways,
        # independently of sim_events_per_s, because op batching legitimately
        # shrinks the event count — pages touched is the workload-invariant
        # denominator that can't be gamed by fusing ops.
        base_pages = base.get("pages_touched_per_s")
        cand_pages = cand.get("pages_touched_per_s")
        if (base_pages is None) != (cand_pages is None):
            side = "candidate" if cand_pages is None else "baseline"
            flag = ("" if allow_missing else
                    f"  << MISSING METRIC (pages_touched_per_s absent from {side})")
            print(f"{name + ' [pages]':32} {'(asymmetric pages_touched_per_s)':>33}{flag}")
            if not allow_missing:
                failed.append(name)
        if base_pages is not None and cand_pages is not None:
            ratio, flag = gate_both_ways(name, "pages_touched_per_s", float(base_pages),
                                         float(cand_pages),
                                         metric_thresholds["pages_touched_per_s"], failed)
            gated_ratios.append(ratio)
            print(f"{name + ' [pages]':32} {float(base_pages):>12.0f}/s "
                  f"{float(cand_pages):>12.0f}/s {ratio:>7.2f}x{flag}")

        if base_rate is None or cand_rate is None:
            # Wall-clock-only entries are machine-dependent end-to-end timings:
            # their delta is reported in the summary line but never gated.
            if base_eff is None and cand_eff is None:
                base_txt = f"{base_wall:.2f}s" if base_wall is not None else "n/a"
                cand_txt = f"{cand_wall:.2f}s" if cand_wall is not None else "n/a"
                print(f"{name:32} {base_txt:>14} {cand_txt:>14}   (wall, not gated)")
            continue

        if unit in metric_thresholds:
            # Gated metric: deviations beyond the per-metric threshold fail in
            # either direction.
            ratio, flag = gate_both_ways(name, unit, base_rate, cand_rate,
                                         metric_thresholds[unit], failed)
            gated_ratios.append(ratio)
            worst = max(worst, (1.0 - ratio) * 100.0)
            print(f"{name:32} {base_rate:>12.0f}/s {cand_rate:>12.0f}/s {ratio:>7.2f}x{flag}")
            continue

        ratio = cand_rate / base_rate
        flag = ""
        regression_pct = (1.0 - ratio) * 100.0
        if regression_pct > threshold_pct:
            flag = (f"  << REGRESSION ({unit}: {(ratio - 1.0) * 100.0:+.1f}%, "
                    f"threshold -{threshold_pct:.0f}%)")
            failed.append(name)
        worst = max(worst, regression_pct)
        print(f"{name:32} {base_rate:>12.0f}/s {cand_rate:>12.0f}/s {ratio:>7.2f}x{flag}")
    # Combined gate: per-metric bands let every rate drift to just inside its
    # own edge, so a snapshot whose gated metrics all slide the same direction
    # at once (e.g. the storm metrics in BENCH_scale) passes each gate while
    # the machine has systemically regressed. The geometric mean of all the
    # two-sided ratios catches exactly that correlated drift.
    if gated_ratios:
        geomean = math.exp(sum(math.log(r) for r in gated_ratios) / len(gated_ratios))
        ratio, flag = gate_both_ways("combined", "combined", 1.0, geomean,
                                     metric_thresholds["combined"], failed)
        print(f"{'combined [geomean]':32} {'1.00x':>14} {geomean:>13.2f}x "
              f"{ratio:>7.2f}x{flag}")
    cand_names = {b["name"] for b in candidate["benchmarks"]}
    for name in base_by_name:
        if name not in cand_names:
            # A benchmark silently vanishing is exactly the failure a regression
            # gate exists to catch; only --allow-missing waves it through.
            flag = "" if allow_missing else "  << MISSING"
            print(f"{name:32} {'(dropped from candidate)':>24}{flag}")
            if not allow_missing:
                failed.append(name)
    summary = f"\nworst regression: {worst:.1f}% (threshold {threshold_pct:.0f}%)"
    if wall_notes:
        summary += "; wall-time delta: " + ", ".join(wall_notes)
    print(summary)
    return failed


def snapshot_name(path):
    """Snapshot identifier for scoped thresholds: the file stem (BENCH_scale)."""
    base = os.path.basename(path)
    stem, _, _ = base.rpartition(".json")
    return stem if stem else base


def parse_metric_thresholds(pairs):
    """Returns (global_thresholds, {snapshot: {metric: pct}}).

    Each flag is [SNAPSHOT/]METRIC=PCT; the scoped form applies only to the
    pair whose baseline file stem matches SNAPSHOT.
    """
    thresholds = dict(GATED_METRIC_DEFAULTS)
    scoped = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--metric-threshold wants [SNAPSHOT/]METRIC=PCT, got {pair!r}")
        key, _, pct = pair.partition("=")
        scope = None
        metric = key
        if "/" in key:
            scope, _, metric = key.partition("/")
            if not scope:
                raise SystemExit(f"--metric-threshold: empty snapshot scope in {pair!r}")
        if metric not in GATED_METRIC_DEFAULTS:
            known = ", ".join(sorted(GATED_METRIC_DEFAULTS))
            raise SystemExit(f"unknown gated metric {metric!r} (known: {known})")
        try:
            value = float(pct)
        except ValueError:
            raise SystemExit(f"--metric-threshold {metric}: {pct!r} is not a number")
        if not 0 < value < 100:
            raise SystemExit(f"--metric-threshold {metric}: must be in (0, 100)")
        if scope is None:
            thresholds[metric] = value
        else:
            scoped.setdefault(scope, {})[metric] = value
    return thresholds, scoped


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", help="JSON file(s)")
    parser.add_argument("--validate", action="store_true", help="schema-check only")
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="max tolerated micro-kernel throughput regression, percent")
    parser.add_argument("--metric-threshold", action="append", default=[],
                        metavar="[SNAP/]METRIC=PCT",
                        help="per-metric two-sided threshold for gated metrics "
                             "(sim_events_per_s, efficiency); optionally scoped "
                             "to one snapshot pair by its baseline file stem; "
                             "repeatable")
    parser.add_argument("--allow-missing", action="store_true",
                        help="tolerate benchmarks present in BASELINE but "
                             "absent from CANDIDATE (deliberate removals)")
    args = parser.parse_args()

    if args.validate:
        for path in args.files:
            load(path)
            print(f"{path}: OK ({SCHEMA})")
        return 0

    if len(args.files) < 2 or len(args.files) % 2 != 0:
        parser.error("compare mode takes BASELINE CANDIDATE pairs "
                     "(an even number of files, at least two)")
    global_thresholds, scoped = parse_metric_thresholds(args.metric_threshold)
    multi = len(args.files) > 2
    all_failed = []
    for i in range(0, len(args.files), 2):
        base_path, cand_path = args.files[i], args.files[i + 1]
        snap = snapshot_name(base_path)
        if multi:
            print(f"=== {snap}: {base_path} vs {cand_path} ===")
        baseline = load(base_path)
        candidate = load(cand_path)
        metric_thresholds = dict(global_thresholds)
        metric_thresholds.update(scoped.get(snap, {}))
        failed = compare(baseline, candidate, args.threshold, metric_thresholds,
                         args.allow_missing)
        all_failed.extend(f"{snap}:{name}" if multi else name for name in failed)
        if multi:
            print()
    unknown_scopes = set(scoped) - {snapshot_name(args.files[i])
                                    for i in range(0, len(args.files), 2)}
    if unknown_scopes:
        print(f"warning: scoped thresholds for unknown snapshot(s): "
              f"{', '.join(sorted(unknown_scopes))}", file=sys.stderr)
    if all_failed:
        print(f"FAILED: {', '.join(all_failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
