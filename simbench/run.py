#!/usr/bin/env python3
"""Benchmark driver for the e2edt simulator.

Builds simbench (a Go package in this directory) from the checkout, then
runs one workload for a time budget. Every iteration is its own simbench
process, so the heap, the GC state and the peak RSS of one iteration never
leak into the next. Prints a table of every metric with its unit, then, as
the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, taken from untraced
iterations. With --trace 1 untraced and traced iterations alternate, and
the metrics are the per-layer ones: exact counters, layer self shares of a
CPU profile, host-time layer timers, and the tracing overhead (traced minus
untraced run time).

Usage:

    python3 simbench/run.py --workload cluster-steady --seed 1337 --seconds 25 --trace 0

--seed selects one of the workload's pinned seeds, those with a recorded
golden digest: 0 selects the default seed, a pinned seed runs as is, and
any other n runs pinned seed 1 + (n-1) mod 64 (simbench's pinnedSeed). So
every run checks its trace against a golden digest, and the same --seed
always gives the same inputs.

Exit status is non-zero when an iteration fails its exactly-once audit,
when a trace digest differs from the recorded golden digest or between
iterations, when an exact counter differs between iterations, or when the
program cannot be built.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "simbench")

WORKLOADS = ("cluster-steady", "cluster-faults", "pair-sched-gray", "objstore-burst")

# End-to-end metrics: name → unit.
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "alloc_mb": "MB",
    "peak_rss_mb": "MB",
    "sim_goodput_gbps": "Gbps",
    "delivered_frac": "ratio",
}

# Exact per-layer counters: name → unit. They repeat bit for bit across
# iterations of one seed; a layer that does not run reports 0.
COUNTERS = {
    "sim.events": "count",
    "fluid.full_solves": "count",
    "fluid.partial_solves": "count",
    "fluid.component_fills": "count",
    "fluid.fast_resolves": "count",
    "fluid.skips": "count",
    "fluid.fills_per_solve": "count",
    "cluster.decisions": "count",
    "cluster.ctrl_resends": "count",
    "cluster.pooled_joins": "count",
    "cluster.requeued": "count",
    "cluster.elections": "count",
    "cluster.host_suspects": "count",
    "cluster.shed": "count",
    "xfersched.max_queue": "count",
    "xfersched.retries": "count",
    "xfersched.sim_p99_wait_s": "s",
    "rftp.hedges": "count",
    "rftp.hedge_wins": "count",
    "rftp.hedge_waste_gb": "GB",
    "railmgr.suspects": "count",
    "objstore.windows": "count",
    "objstore.lookups": "count",
    "objstore.scans": "count",
    "objstore.objects_per_window": "count",
    "objstore.sim_put_p99_ms": "ms",
    "trace.events": "count",
}

# Host-time layer timers, medians over traced iterations.
TIMERS = {
    "cluster.decision_p50_us": "us",
    "cluster.decision_p99_us": "us",
    "trace.hash_s": "s",
}

# CPU-profile self shares, means over traced iterations (they sum to 1).
SHARES = {
    "sim.self_share": "sim",
    "fluid.self_share": "fluid",
    "cluster.self_share": "cluster",
    "xfersched.self_share": "xfersched",
    "rftp.self_share": "rftp",
    "railmgr.self_share": "railmgr",
    "objstore.self_share": "objstore",
    "datapath.self_share": "datapath",
    "trace.self_share": "trace",
    "runtime.gc_share": "runtime.gc",
    "other.self_share": "other",
}

# Minimum iterations of each kind, whatever the budget.
MIN_ITERS = {0: 3, 1: 2}
# Hard cap on a run's wall time, well inside the 180 s a run may take.
HARD_LIMIT_S = 150


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def go_env():
    """Environment for the go command: every cache inside the checkout."""
    env = dict(os.environ)
    for k in ("GOFLAGS", "GOOS", "GOARCH", "GOEXPERIMENT", "CGO_ENABLED"):
        env.pop(k, None)
    env.update({
        "HOME": os.path.join(BUILD, "home"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "home", ".config"),
        "XDG_CACHE_HOME": os.path.join(BUILD, "home", ".cache"),
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    for d in ("home", "tmp"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        fail("no go.mod at the checkout root: the simulator sources are missing")
    p = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=go_env(),
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        fail("build failed:\n" + p.stdout)


def child_env():
    """Run hygiene: GOMAXPROCS at or below nproc, default GC settings."""
    env = dict(os.environ)
    for k in ("GODEBUG", "GOMEMLIMIT"):
        env.pop(k, None)
    env["GOGC"] = "100"
    env["GOMAXPROCS"] = str(max(1, min(2, os.cpu_count() or 1)))
    return env


def iterate(workload, seed, traced, timeout):
    """Runs one iteration in its own process and returns its outcome."""
    cmd = [BIN, "-workload", workload, "-seed", str(seed)]
    if traced:
        cmd.append("-traced")
    p = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    try:
        out, err = p.communicate(timeout=timeout)
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
    lines = out.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        fail("%s seed %d: simbench exited %d:\n%s" % (workload, seed, p.returncode, err))
    o = json.loads(lines[-1])
    o["exit"] = p.returncode
    if p.returncode:
        sys.stderr.write(err)
    return o


def exact_view(o):
    """The fields that must repeat bit for bit across iterations."""
    return (o["trace_sha256"], o["trace_events"], o["goodput_gbps"],
            o["jobs"], o["lost"], o.get("audit", ""),
            tuple(sorted(o["counters"].items())))


def incorrect(o):
    """An iteration fails when its audit fails or its trace digest does not
    match a recorded golden digest; a seed with none recorded fails too."""
    return o["exit"] != 0 or o.get("audit") or o["golden"] != "match"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True,
                    help="selects a pinned workload seed; 0 selects the workload's default seed")
    ap.add_argument("--seconds", type=float, required=True, help="measurement budget")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, unwind through iterate(), which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    kinds = [False] if args.trace == 0 else [False, True]
    runs = {k: [] for k in kinds}
    start = time.monotonic()
    longest = 0.0
    i = 0
    while True:
        traced = kinds[i % len(kinds)]
        i += 1
        t0 = time.monotonic()
        left = HARD_LIMIT_S - (t0 - start)
        runs[traced].append(iterate(args.workload, args.seed, traced, max(left, 1)))
        longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if elapsed + longest > HARD_LIMIT_S:
            break
        if (all(len(r) >= MIN_ITERS[args.trace] for r in runs.values())
                and elapsed + longest > args.seconds):
            break

    every = [o for r in runs.values() for o in r]
    bad = [o for o in every if incorrect(o)]
    problems = ["%s seed %d traced=%s: audit %r, golden digest %s" % (
        o["workload"], o["seed"], o["traced"], o.get("audit", ""),
        "not recorded for this seed" if o["golden"] == "none" else o["golden"]) for o in bad]
    if len({exact_view(o) for o in every}) != 1:
        problems.append("iterations of one seed disagree on the trace digest or an exact counter")
    first = every[0]
    for line in problems:
        print("run.py: INCORRECT: " + line, file=sys.stderr)

    untraced = runs[False]
    metrics = {}
    if args.trace == 0:
        delivered = first["jobs"] - first["lost"] - (1 if first.get("audit") else 0)
        metrics = {
            "run_s": statistics.median(o["run_s"] for o in untraced),
            "setup_s": statistics.median(s for o in untraced for s in o["setup_s"]),
            "events_per_s": statistics.median(o["counters"]["sim.events"] / o["run_s"] for o in untraced),
            "alloc_mb": statistics.median(o["alloc_mb"] for o in untraced),
            "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in untraced),
            "sim_goodput_gbps": first["goodput_gbps"],
            "delivered_frac": delivered / first["jobs"],
        }
        units = END_TO_END
    else:
        traced = runs[True]
        units = {}
        for name, unit in COUNTERS.items():
            metrics[name] = first["counters"].get(name, 0)
            units[name] = unit
        hedges = metrics["rftp.hedges"]
        metrics["rftp.hedge_win_ratio"] = metrics["rftp.hedge_wins"] / hedges if hedges else 0
        units["rftp.hedge_win_ratio"] = "ratio"
        for name, unit in TIMERS.items():
            metrics[name] = statistics.median(o["timers"].get(name, 0) for o in traced)
            units[name] = unit
        for name, layer in SHARES.items():
            metrics[name] = statistics.fmean(o["shares"][layer] for o in traced)
            units[name] = "ratio"
        metrics["trace.overhead_s"] = (statistics.median(o["run_s"] for o in traced)
                                       - statistics.median(o["run_s"] for o in untraced))
        units["trace.overhead_s"] = "s"
        metrics["setup.build_s"] = statistics.median(o["build_s"] for o in every)
        metrics["setup.generate_s"] = statistics.median(o["generate_s"] for o in every)
        units["setup.build_s"] = units["setup.generate_s"] = "s"

    print("env: %s nproc=%d GOMAXPROCS=%d workload=%s --seed %d runs seed %d iterations=%s golden=%s" % (
        first["go_version"], first["nproc"], first["gomaxprocs"], args.workload,
        first["seed_arg"], first["seed"],
        "+".join(str(len(r)) for r in runs.values()), first["golden"]))
    for traced, r in runs.items():
        print("%s run_s: %s" % ("traced" if traced else "untraced",
                                " ".join("%.3f" % o["run_s"] for o in r)))
    for name in sorted(metrics):
        print("  %-30s %16.6g %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(every),
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
