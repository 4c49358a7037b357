#!/usr/bin/env python3
"""End-to-end benchmark of the PerfCloud simulator.

Builds e2e_bench/ (CMake, into .bench_build/e2e) from the sources in src/,
then runs one workload repeatedly for --seconds and prints, as the last line
of stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
The line before it is {"context": {...}}: machine, build, seeds and the
sample count behind every median.

    python3 e2e_bench/run.py --workload fig11-15h --seed 1 --seconds 30 --trace 0

One scenario's results swing 10-20 % from seed to seed, so a run covers
SUBSEEDS scenarios derived from --seed (the first is --seed itself). On a
shared host, other tenants slow whole stretches of runs by up to 2x and
never speed one up, so a scenario's wall time is the fastest of its repeats.

--trace 0 cycles through the scenarios, untraced, until --seconds have
passed and each has run at least MIN_SWEEPS times, and reports the
end-to-end metrics: wall_s is the mean over scenarios of each one's fastest
run; setup_s is the median over every set-up (SETUPS_PER_REPEAT per run) and
peak_rss_mb the median over every run; JCT percentiles pool the jobs of every
scenario.

--trace 1 alternates untraced and traced runs of the first scenario, adds
one allocation-counting traced run at shards=1 from the e2e_alloc binary,
and reports the per-layer metrics of the fastest traced run.

Every run checks its own outputs, and the driver checks that all runs of one
scenario printed the same fingerprint, traced or not. A failed check prints
correct=false, counts every job as failed and exits 1. See README.md.
"""

import argparse
import glob
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("fig11-15h", "fig11-150h-4sh", "churn-chaos-16h")
# Claims made with this benchmark must also hold on this seed, which is not
# used while tuning a change.
HELD_OUT_SEED = 90210
SUBSEEDS = 6
MIN_SWEEPS = 2
MIN_TRACED_PAIRS = 3
SETUPS_PER_REPEAT = 9
# Every process must end this long after the measurements start.
DEADLINE_S = 170

# Layer (or single per-layer metric) -> (end-to-end metrics it should move,
# workloads where that shows).
LAYER_MAP = {
    "virt": ("wall_s, host_ticks_per_s, peak_rss_mb", "fig11-15h (most), fig11-150h-4sh"),
    "workloads": ("wall_s", "fig11-15h"),
    "core": ("wall_s", "churn-chaos-16h; flat on fig11-15h"),
    "policy": ("jct_p90_s, wall_s", "churn-chaos-16h"),
    "cloud": ("jct_p90_s", "churn-chaos-16h"),
    "faults": ("jobs_completed_frac", "churn-chaos-16h"),
    "exp": ("wall_s", "churn-chaos-16h only"),
    "sim.residual_s": ("wall_s", "fig11-15h, churn-chaos-16h"),
    "sim.shard_busy_frac": ("wall_s", "fig11-150h-4sh"),
    "sim.barrier_wait_s": ("wall_s", "fig11-150h-4sh"),
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def refuse_knob_env():
    knobs = sorted(k for k in os.environ if k.startswith("PERFCLOUD_"))
    if knobs:
        raise BenchError(
            "refusing to run with %s set: the benchmark measures the defaults" % ", ".join(knobs))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "exp", "cluster.hpp")):
        raise BenchError("simulator sources not found under %s/src" % ROOT)
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1))],
                   stdout=sys.stderr, check=True)


def compiler():
    for path in glob.glob(os.path.join(BUILD_DIR, "CMakeFiles", "*", "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and version:
            return "%s %s" % (ident.group(1), version.group(1))
    return "unknown"


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_e2e(binary, workload, seed, tmp_dir, deadline, extra=()):
    cmd = [os.path.join(BUILD_DIR, binary), "--workload", workload, "--seed", str(seed),
           "--tmp", tmp_dir] + list(extra)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish in time" % " ".join(cmd))
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed nothing (exit %d)" % (" ".join(cmd), proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise BenchError("%s printed no result (exit %d)" % (" ".join(cmd), proc.returncode))
    if proc.returncode != 0 and not result.get("errors"):
        result["errors"] = ["exit code %d" % proc.returncode]
    return result


def percentile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def ratio(num, den):
    return num / den if den else 0.0


def sub_seeds(seed):
    return [seed] + [(seed * 1000003 + k) % 2**63 for k in range(1, SUBSEEDS)]


def check_same_fingerprint(results):
    prints = {r["fingerprint"] for r in results}
    if len(prints) != 1:
        return ["seed %d: fingerprints differ across runs: %s"
                % (results[0]["seed"], sorted(prints))]
    return []


def end_to_end(groups):
    """groups[k]: every run of scenario k."""
    walls = [min(r["wall_s"] for r in runs) for runs in groups]
    every = [r for runs in groups for r in runs]
    setups = [s for r in every for s in r["setup_s"]]
    first = [runs[0] for runs in groups]
    jcts = [j for r in first for j in r["jcts"]]
    completed = sum(r["completed"] for r in first)
    due = completed + sum(r["failed"] for r in first)
    metrics = {
        "wall_s": statistics.fmean(walls),
        "setup_s": statistics.median(setups),
        "host_ticks_per_s": sum(r["host_ticks"] for r in first) / sum(walls),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in every),
        "jobs_completed_frac": ratio(completed, due),
        "jct_p50_s": percentile(jcts, 0.50),
        "jct_p90_s": percentile(jcts, 0.90),
        "efficiency": statistics.fmean(r["efficiency"] for r in first),
    }
    fastest = "fastest of %s runs per scenario, mean over %d scenarios" % (
        "/".join(str(len(runs)) for runs in groups), len(groups))
    samples = {"wall_s": fastest, "host_ticks_per_s": fastest, "peak_rss_mb": len(every),
               "setup_s": len(setups),
               "jct_p50_s": len(jcts), "jct_p90_s": len(jcts),
               "efficiency": len(first), "jobs_completed_frac": due}
    return metrics, samples


def per_layer(plain, traced, alloc):
    """Per-layer metrics of the fastest traced run; its counts repeat exactly."""
    r = min(traced, key=lambda x: x["wall_s"])
    t, c, a = r["trace"], r["counts"], alloc["trace"]
    shards = r["shards"]
    wall = r["wall_s"]
    span = t["virt.sweep_span_s"]
    exp_s = c["exp.drain_s"] + t["exp.close_s"]
    residual = wall - span - t["workloads.poll_s"] - t["core.pipeline_s"] - exp_s
    metrics = {
        "virt.tick_s": t["virt.tick_s"],
        "virt.tick_calls": t["virt.tick_calls"],
        "virt.tick_us_p50": t["virt.tick_us_p50"],
        "virt.tick_us_p99": t["virt.tick_us_p99"],
        "virt.tick_ns_per_vm": ratio(t["virt.tick_s"] * 1e9, t["virt.vm_ticks"]),
        "virt.quiescent_frac": ratio(t["virt.quiescent_ticks"], t["virt.tick_calls"]),
        "virt.allocs_per_tick": ratio(a["virt.tick_allocs"], a["virt.tick_calls"]),
        "virt.wall_share": ratio(span, wall),
        "workloads.poll_s": t["workloads.poll_s"],
        "workloads.poll_calls": t["workloads.poll_calls"],
        "workloads.wall_share": ratio(t["workloads.poll_s"], wall),
        "core.pipeline_s": t["core.pipeline_s"],
        "core.intervals": t["core.intervals"],
        "core.identifications": c["core.identifications"],
        "core.cap_commands_dropped": c["core.cap_commands_dropped"],
        "core.allocs_per_interval": ratio(a["core.pipeline_allocs"], a["core.intervals"]),
        "core.wall_share": ratio(t["core.pipeline_s"], wall),
        "policy.triggered": c["policy.triggered"],
        "policy.migrated": c["policy.migrated"],
        "policy.suppressed": c["policy.suppressed"],
        "policy.no_feasible": c["policy.no_feasible"],
        "policy.migrated_per_trigger": ratio(c["policy.migrated"], c["policy.triggered"]),
        "cloud.migrations_started": c["cloud.migrations_started"],
        "cloud.migrations_completed": c["cloud.migrations_completed"],
        "cloud.migrations_aborted": c["cloud.migrations_aborted"],
        "cloud.completed_per_started": ratio(c["cloud.migrations_completed"],
                                             c["cloud.migrations_started"]),
        "faults.injected": c["faults.injected"],
        "faults.recovered": c["faults.recovered"],
        "faults.failed": c["faults.failed"],
        "exp.drain_s": c["exp.drain_s"],
        "exp.close_s": t["exp.close_s"],
        "exp.samples": c["exp.samples"],
        "exp.events": c["exp.events"],
        "exp.batches": c["exp.batches"],
        "exp.wall_share": ratio(exp_s, wall),
        "sim.residual_s": residual,
        "sim.shard_busy_frac": ratio(t["virt.tick_s"], shards * span),
        "sim.barrier_wait_s": shards * span - t["virt.tick_s"],
        "sim.layer_coverage": ratio(wall - residual, wall),
        "sim.traced_wall_s": wall,
        "sim.trace_overhead": ratio(wall, min(x["wall_s"] for x in plain)),
    }
    samples = {"timings": "fastest of %d traced runs" % len(traced),
               "trace_overhead": "fastest traced over fastest of %d untraced runs" % len(plain),
               "allocation_runs": 1}
    return metrics, samples


def with_units(metrics):
    """Attach each metric's unit as declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    unit = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    return {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        refuse_knob_env()
        build()
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("run.py: %s" % e)
        return 1

    tmp_dir = os.path.join(ROOT, ".bench_build", "tmp", str(os.getpid()))
    os.makedirs(tmp_dir, exist_ok=True)
    seeds = sub_seeds(args.seed)
    groups, plain, traced, alloc = [[] for _ in seeds], [], [], None
    try:
        t0 = time.monotonic()
        deadline = t0 + DEADLINE_S
        if args.trace == 0:
            i = 0
            while i < MIN_SWEEPS * len(seeds) or time.monotonic() - t0 < args.seconds:
                k = i % len(seeds)
                groups[k].append(run_e2e("e2e", args.workload, seeds[k], tmp_dir, deadline,
                                         ["--setups", str(SETUPS_PER_REPEAT)]))
                i += 1
        else:
            while len(traced) < MIN_TRACED_PAIRS or time.monotonic() - t0 < args.seconds:
                plain.append(run_e2e("e2e", args.workload, args.seed, tmp_dir, deadline))
                traced.append(run_e2e("e2e", args.workload, args.seed, tmp_dir, deadline,
                                      ["--traced"]))
            alloc = run_e2e("e2e_alloc", args.workload, args.seed, tmp_dir, deadline,
                            ["--traced", "--shards", "1"])
    except BenchError as e:
        log("run.py: %s" % e)
        return 1
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    if args.trace == 0:
        metrics, samples = end_to_end(groups)
    else:
        groups = [plain + traced + [alloc]]
        metrics, samples = per_layer(plain, traced, alloc)
    every = [r for g in groups for r in g]
    errors = [e for r in every for e in r["errors"]]
    for g in groups:
        errors += check_same_fingerprint(g)
    first = every[0]
    attempted = sum(r["completed"] + r["failed"] for r in every)
    failed = attempted if errors else sum(r["failed"] for r in every)
    if errors:
        if args.trace == 0:
            metrics["jobs_completed_frac"] = 0.0
        for e in errors:
            log("run.py: check failed: %s" % e)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "scenario_seeds": seeds if args.trace == 0 else seeds[:1],
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "compiler": compiler(),
        "build_type": BUILD_TYPE,
        "git_commit": git_commit(),
        "shards": first["shards"],
        "sim_seconds_per_scenario": [g[0]["final_t"] for g in groups],
        "host_ticks_per_scenario": [g[0]["host_ticks"] for g in groups],
        "jobs_per_scenario": [{"submitted": g[0]["submitted"], "completed": g[0]["completed"],
                               "censored_at_horizon": g[0]["censored"]} for g in groups],
        "runs": {"untraced": sum(not r["traced"] for r in every),
                 "traced": sum(r["traced"] and not r["alloc_hook"] for r in every),
                 "allocation": sum(r["alloc_hook"] for r in every)},
        "samples": samples,
        "fingerprints": [g[0]["fingerprint"] for g in groups],
        "checks": errors or "passed",
        "model": "simulated; not validated against real hardware",
    }
    if args.trace == 1:
        context["layer_map"] = {k: {"moves": v[0], "workload": v[1]} for k, v in LAYER_MAP.items()}
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": with_units(metrics)}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
