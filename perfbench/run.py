#!/usr/bin/env python3
"""The repository benchmark: builds perfbench, runs one workload, prints metrics.

    python3 perfbench/run.py --workload fig07_grid --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The first run configures and builds the
simulator library and the perfbench program into .bench_build/ (CMake,
RelWithDebInfo with link-time optimization, like the top-level build); later
runs rebuild only what changed.

--trace 0 prints the end-to-end metrics, measured on untraced passes. Their
host times are process CPU times divided by a calibration run timed between
experiments, in seconds at the reference host speed (CALIB_REFERENCE_S).
--trace 1 prints the per-layer metrics: perfbench alternates untraced and
traced passes, and the per-layer host times are self times of the spans the
traced passes record around the library's public entry points.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it is the full record ("perfbench-record ..."),
also saved under .bench_build/results/, with the seed, the host fingerprint,
the failure list and each layer's share of the traced pass. compare.py
compares two saved records.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("fig07_grid", "fig10a_interactive", "instrumented")
BUILD_TIMEOUT_S = 850
# A traced pass whose layer self times account for less or more than this
# share of its wall time means the tracing is broken, not slow.
ATTRIBUTED_RANGE = (0.7, 1.1)
RUN_GRACE_S = 120  # reference pass, self-check and the last pass's overrun
# CPU seconds of one perfbench Calibration::Run at the usual speed of the host
# in README.md's Measurements. Host times divided by the calibration, times
# this, read as CPU seconds on that host when no other tenant slows it.
CALIB_REFERENCE_S = 3.0e-3

# Leaf spans inside os.run, by the per-layer metric they feed.
LEAF_METRICS = {
    "runtime.next": "runtime.next_s",
    "workloads.interactive_next": "workloads.interactive_next_s",
    "check.vm_event": "check.vm_event_s",
    "check.quiescent": "check.quiescent_s",
}
# Layer self times that together should account for a traced pass.
LAYER_TIMES = ("compiler.compile_s", "os.setup_s", "os.run_self_s", "runtime.next_s",
               "workloads.interactive_next_s", "check.vm_event_s", "check.quiescent_s")
# Metrics measured on the host, comparable only between equal fingerprints;
# every other metric is simulated or counted and depends on the seed alone.
HOST_METRICS = ("norm_cpu_s", "pages_per_norm_cpu_s", "setup_s", "peak_rss_mb", "host.cpu_s",
                "host.calib_ms", *LAYER_TIMES,
                "runtime.ns_per_next", "sim.ns_per_event", "monitor.overhead_s",
                "sim.observe_overhead_s", "trace.overhead_frac", "trace.unattributed_frac")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {ROOT / 'src'}; run from a full checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j",
                  str(min(4, len(os.sched_getaffinity(0))))])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(step)}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return BUILD / "perfbench"


def fingerprint(build_info):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu_model": model, "affinity_cpus": len(os.sched_getaffinity(0)), **build_info}


class Spans:
    """Span records of one process, keyed (pass, exp, span)."""

    def __init__(self, path):
        self.s = {}
        self.calls = {}
        self.children = defaultdict(list)  # (pass, exp, parent) -> child names
        self.traced_passes, self.untraced_passes = [], []
        for line in path.read_text().splitlines():
            r = json.loads(line)
            key = (r["pass"], r["exp"], r["span"])
            self.s[key] = r["s"]
            self.calls[key] = r["calls"]
            if r["parent"] is not None:
                self.children[(r["pass"], r["exp"], r["parent"])].append(r["span"])
            if r["span"] == "pass":
                (self.traced_passes if r["traced"] else self.untraced_passes).append(r["pass"])

    def get(self, p, e, name):
        return self.s.get((p, e, name), 0.0)

    def self_time(self, p, e, name):
        return self.get(p, e, name) - sum(
            self.get(p, e, c) for c in self.children[(p, e, name)])

    def norm_cpu(self, p, e):
        """CPU seconds of untraced experiment e in pass p, at the reference host speed."""
        return self.get(p, e, "experiment.cpu") / self.get(p, e, "experiment.calib") \
            * CALIB_REFERENCE_S

    def total(self, passes, exps, value, estimate=statistics.median):
        """Sum over experiments of each experiment's estimate over passes."""
        return sum(estimate([value(p, e) for p in passes]) for e in exps)


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(summary, spans, exps, counts):
    # Host time is process CPU time over the calibration around it: per
    # experiment, the slowest of the run's untraced passes, summed over the
    # experiments. The host runs faster whenever other tenants' load eases;
    # its slowest state recurs from run to run, so the maximum spreads less
    # than the median or the mean (README.md, "Host time").
    cpu = spans.total(spans.untraced_passes, exps, spans.norm_cpu, estimate=max)
    setup = sum(spans.get(-1, e, "setup") for e in exps) * CALIB_REFERENCE_S
    responses = [c["interactive_resp_ns"] for c in counts if c["interactive"]]
    return {
        "norm_cpu_s": (cpu, "s"),
        "pages_per_norm_cpu_s": (ratio(sum(c["runtime.page_touches"] for c in counts), cpu),
                                 "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
        "sim_exec_s": (sum(c["sim_exec_ns"] for c in counts) / 1e9, "s"),
        "sim_hard_faults": (sum(c["sim_hard_faults"] for c in counts), "count"),
        "interactive_resp_ms": (statistics.fmean(responses) / 1e6 if responses else 0.0, "ms"),
    }


def per_layer(summary, spans, exps, counts, labels):
    traced, untraced = spans.traced_passes, spans.untraced_passes
    m = {}

    def layer(name, value, unit="s"):
        m[name] = (spans.total(traced, exps, value), unit)

    layer("compiler.compile_s", lambda p, e: spans.get(p, e, "compiler.compile"))
    layer("os.setup_s", lambda p, e: spans.get(p, e, "os.setup"))
    layer("os.run_self_s", lambda p, e: spans.self_time(p, e, "os.run"))
    for span, metric in LEAF_METRICS.items():
        layer(metric, lambda p, e, span=span: spans.get(p, e, span))
    m["check.quiescent_s"] = (m["check.quiescent_s"][0] + spans.total(
        traced, exps, lambda p, e: spans.get(p, e, "check.final")), "s")

    def calls(span):
        return sum(spans.calls.get((traced[0], e, span), 0) for e in exps)

    def total(key):
        return sum(c[key] for c in counts)

    next_calls = calls("runtime.next")
    m["runtime.next_calls"] = (next_calls, "count")
    m["runtime.ns_per_next"] = (ratio(m["runtime.next_s"][0], next_calls) * 1e9, "ns")
    m["check.quiescent_calls"] = (calls("check.quiescent"), "count")
    for key in ("compiler.prefetch_directives", "compiler.release_directives",
                "runtime.page_touches", "runtime.iterations", "runtime.prefetch_hints",
                "runtime.release_hints", "runtime.prefetch_enqueued", "runtime.release_drains",
                "runtime.buffer_stale_dropped", "runtime.pool_dropped_full", "os.hard_faults",
                "os.soft_faults", "os.daemon_activations", "os.daemon_pages_stolen",
                "os.releaser_pages_freed", "os.releaser_skipped", "os.rescues",
                "os.memory_waits", "disk.swap_reads", "disk.swap_writes",
                "disk.readahead_reads", "sim.events", "sim.event_log_events",
                "monitor.samples_armed", "monitor.cold_pages_enqueued", "check.vm_events",
                "check.checks_run", "workloads.interactive_sweeps"):
        m[key] = (total(key), "count")
    m["runtime.hint_filtered_frac"] = (ratio(total("runtime.hints_filtered"),
                                             total("runtime.prefetch_hints") +
                                             total("runtime.release_hints")), "frac")
    m["os.touch_runs_bulk_frac"] = (ratio(total("os.touch_runs_bulk"),
                                          total("os.touch_runs_bulk") +
                                          total("os.touch_runs_replayed")), "frac")
    m["os.prefetch_dropped_frac"] = (ratio(total("os.prefetch_dropped"),
                                           total("os.prefetch_requests")), "frac")
    m["monitor.sample_hit_frac"] = (ratio(total("monitor.samples_hit"),
                                          total("monitor.samples_checked")), "frac")
    m["disk.fault_service_ms"] = (ratio(total("disk.fault_service_ns"),
                                        total("disk.fault_service_count")) / 1e6, "ms")
    m["sim.ns_per_event"] = (ratio(m["os.run_self_s"][0], total("sim.events")) * 1e9, "ns")

    # Paired host-time differences, from the untraced passes of this process.
    def cpu(label):
        e = labels.index(label)
        return statistics.median(spans.norm_cpu(p, e) for p in untraced)

    m["monitor.overhead_s"] = (sum(cpu(l) - cpu(l[:-len("+mon")])
                                   for l in labels if l.endswith("+mon")), "s")
    m["sim.observe_overhead_s"] = (sum(cpu(l) - cpu(l + "-twin")
                                       for l in labels if l.endswith("+obs")), "s")

    # The raw CPU time and the calibration that norm_cpu_s divides it by.
    m["host.cpu_s"] = (spans.total(untraced, exps,
                                   lambda p, e: spans.get(p, e, "experiment.cpu")), "s")
    m["host.calib_ms"] = (statistics.median(spans.get(p, e, "experiment.calib")
                                            for p in untraced for e in exps) * 1e3, "ms")

    traced_cpu = spans.total(traced, exps, lambda p, e: spans.get(p, e, "experiment.cpu"))
    untraced_cpu = spans.total(untraced, exps, lambda p, e: spans.get(p, e, "experiment.cpu"))
    m["trace.overhead_frac"] = (ratio(traced_cpu, untraced_cpu) - 1, "frac")
    pass_wall = statistics.median(spans.get(p, -1, "pass") for p in traced)
    attributed = sum(m[name][0] for name in LAYER_TIMES)
    m["trace.unattributed_frac"] = (1 - ratio(attributed, pass_wall), "frac")
    shares = {name: round(ratio(m[name][0], pass_wall), 4) for name in LAYER_TIMES}
    return m, shares


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = BUILD / f"spans-{tag}.jsonl"
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans-out", str(spans_path)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        fail("perfbench timed out")
    if done.returncode != 0 or not done.stdout.strip():
        fail(f"perfbench exited with code {done.returncode}")
    summary = json.loads(done.stdout.strip().splitlines()[-1])

    spans = Spans(spans_path)
    experiments = summary["experiments"]
    labels = [x["label"] for x in experiments]
    main_exps = [x["id"] for x in experiments if not x["twin"]]
    counts = [experiments[e]["counts"] for e in main_exps]
    if args.trace == 0:
        metrics, shares = end_to_end(summary, spans, main_exps, counts), None
    else:
        metrics, shares = per_layer(summary, spans, main_exps, counts, labels)

    attempted, failed = summary["attempted"], summary["failed"]
    correct = failed == 0 and summary["selfcheck_detected"]
    if args.trace == 1:
        attributed = 1 - metrics["trace.unattributed_frac"][0]
        if not ATTRIBUTED_RANGE[0] <= attributed <= ATTRIBUTED_RANGE[1]:
            summary["failures"].append(f"layer self times account for {attributed:.3f} "
                                       "of the traced pass")
            correct = False
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": summary["passes"], "fail_frac": ratio(failed, attempted),
        "failures": summary["failures"], "selfcheck_detected": summary["selfcheck_detected"],
        "fingerprint": fingerprint(summary["build"]),
        "layer_shares": shares, "host_metrics": [m for m in HOST_METRICS if m in metrics],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (BUILD / "results").mkdir(exist_ok=True)
    (BUILD / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("perfbench-record " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))


if __name__ == "__main__":
    main()
