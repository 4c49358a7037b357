#!/usr/bin/env python3
"""Append end-to-end benchmark results to the committed perf history.

Runs e2e_bench/run.py once per workload and appends one entry per run to
BENCH_e2e.json, a JSON list kept one entry per line. Each entry holds the
run's context line and result line as run.py printed them, the git commit
of the measured checkout (and whether its tree had uncommitted changes),
and the CPU steal the host charged while the run was going: the delta of
/proc/stat's aggregate steal field, in clock ticks (USER_HZ). On a shared
host, quote steal beside any timing taken from this file.

    python3 scripts/bench_record.py                       # all three workloads
    python3 scripts/bench_record.py --workload fig11-150h-4sh --seconds 30
    python3 scripts/bench_record.py --checkout ../parent  # measure another tree

--checkout measures another checkout of the repo (a parent commit, say) with
that checkout's own run.py and sources, and still appends to this repo's
BENCH_e2e.json unless --out says otherwise. run.py builds the checkout's
e2e_bench into its .bench_build/ first, and refuses to run while any
PERFCLOUD_* variable is set.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fig11-15h", "fig11-150h-4sh", "churn-chaos-16h")


def steal_ticks():
    """Aggregate steal time since boot, in USER_HZ ticks (0 if unavailable)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else 0


def git(checkout, *args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(checkout))
    try:
        out = subprocess.run(["git", "-C", checkout] + list(args), env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    # Trailing whitespace only: a porcelain status line starts with a space
    # when the index is clean (" M path").
    return out.stdout.rstrip() if out.returncode == 0 else None


def tree_dirty(checkout, out_path):
    """True if tracked files other than the history file differ from HEAD."""
    status = git(checkout, "status", "--porcelain", "--untracked-files=no")
    if status is None:
        return None
    out_rel = os.path.relpath(out_path, checkout)
    return any(line[3:] != out_rel for line in status.splitlines())


def run_one(checkout, workload, seed, seconds, out_path):
    cmd = [sys.executable, os.path.join(checkout, "e2e_bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    recorded_at = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    steal0 = steal_ticks()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    steal = steal_ticks() - steal0
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    context = next((l["context"] for l in lines if "context" in l), None)
    result = next((l for l in lines if "metrics" in l), None)
    if proc.returncode != 0 or context is None or result is None:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("%s failed (exit %d)" % (" ".join(cmd), proc.returncode))
    return {
        "recorded_at": recorded_at,
        "workload": workload,
        "git_commit": git(checkout, "rev-parse", "HEAD"),
        "tree_dirty": tree_dirty(checkout, out_path),
        "steal_ticks": steal,
        "command": " ".join(["e2e_bench/run.py"] + cmd[2:]),
        "context": context,
        "result": result,
    }


def append(out_path, entries):
    history = []
    if os.path.exists(out_path):
        with open(out_path) as f:
            history = json.load(f)
    history.extend(entries)
    with open(out_path, "w") as f:
        f.write("[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in history) + "\n]\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to run (repeatable; default: all three)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--checkout", default=ROOT, help="repo checkout to measure (default: this one)")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_e2e.json"))
    args = ap.parse_args()

    checkout = os.path.abspath(args.checkout)
    out_path = os.path.abspath(args.out)
    for workload in args.workload or WORKLOADS:
        entry = run_one(checkout, workload, args.seed, args.seconds, out_path)
        append(out_path, [entry])
        m = entry["result"]["metrics"]["wall_s"]
        print("%s %s wall_s=%s steal_ticks=%d" % (
            (entry["git_commit"] or "?")[:12], workload, m, entry["steal_ticks"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
