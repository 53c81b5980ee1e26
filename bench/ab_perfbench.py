#!/usr/bin/env python3
"""Interleaved A/B runs of the optabs benchmark: a base commit against the
working tree.

    python3 bench/ab_perfbench.py BASE_REF [--pairs 10] [--workload W]
                                  [--seed N]

BASE_REF is exported with `git archive` into .ab_build/src-<sha> (reused
when it already exists), and both sides are built and run through their
own perfbench/run.py, each into its own CARGO_TARGET_DIR under .ab_build/.
The change side is the working tree as it is, uncommitted edits included.
Each pair runs both sides once with the run length BENCHMARK.json sets,
alternating which side goes first. Without --workload every workload
BENCHMARK.json declares is measured, one after the other.

For every end-to-end metric the report gives each side's median and
quartiles, the change/base ratio of the medians, the number of pairs the
change won (ties count for neither side) and whether the gain rule holds:
the change wins at least nine tenths of the pairs and the medians differ,
in the change's favour, by more than the base's interquartile range. A run
whose answers are not all correct is reported and counts as lost.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".ab_build")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export_base(ref):
    """Exports ref's tree once; returns its directory and short sha."""
    sha = git("rev-parse", "--verify", ref + "^{commit}").decode().strip()
    src = os.path.join(WORK, "src-" + sha[:12])
    if not os.path.isdir(src):
        tmp = src + ".partial"
        os.makedirs(tmp, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(git("archive", sha))) as tar:
            tar.extractall(tmp)
        os.rename(tmp, src)
    return src, sha[:12]


def run_side(root, build_dir, workload, seed, seconds):
    """One benchmark run; returns the parsed JSON result or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def report(workload, metrics, runs, pairs):
    print(f"\n### {workload} ({pairs} pairs)\n")
    print("| metric | base median [q1, q3] | change median [q1, q3] "
          "| change/base | change wins | gain rule |")
    print("|---|---|---|---|---|---|")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [r["base"][name] for r in runs if name in r["base"]]
        change = [r["change"][name] for r in runs if name in r["change"]]
        if not base or not change:
            print(f"| {name} | - | - | - | - | - |")
            continue
        b1, b2, b3 = quartiles(base)
        c1, c2, c3 = quartiles(change)
        wins = 0
        for r in runs:
            b, c = r["base"].get(name), r["change"].get(name)
            if c is None:
                continue
            if b is None or (c < b if lower else c > b):
                wins += 1
        gain = c2 < b2 if lower else c2 > b2
        holds = wins * 10 >= 9 * pairs and gain and abs(c2 - b2) > b3 - b1
        ratio = f"{c2 / b2:.3f}" if b2 else "-"
        unit = m.get("unit", "")
        print(f"| {name} ({unit}) | {b2:.4g} [{b1:.4g}, {b3:.4g}] "
              f"| {c2:.4g} [{c1:.4g}, {c3:.4g}] | {ratio} | {wins}/{pairs} "
              f"| {'holds' if holds else 'no'} |")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_ref")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    base_root, sha = export_base(args.base_ref)
    sides = {"base": (base_root, os.path.join(WORK, "build-base-" + sha)),
             "change": (ROOT, os.path.join(WORK, "build-change"))}
    print(f"base {args.base_ref} ({sha}) vs working tree; seed {args.seed}, "
          f"run_seconds {seconds}")

    for workload in workloads:
        runs = []
        for p in range(args.pairs):
            order = ["base", "change"] if p % 2 == 0 else ["change", "base"]
            pair = {}
            for side in order:
                root, build_dir = sides[side]
                res = run_side(root, build_dir, workload, args.seed, seconds)
                ok = bool(res) and res.get("correct") and res.get(
                    "failed", 1) == 0
                pair[side] = ({k: v["value"] for k, v in
                               res["metrics"].items()} if ok else {})
                status = "ok" if ok else "FAILED or incorrect"
                wall = pair[side].get("wall_s")
                print(f"  {workload} pair {p + 1}/{args.pairs} {side}: "
                      f"{status}" + (f", wall_s {wall:.3f}" if wall else ""),
                      file=sys.stderr, flush=True)
            runs.append(pair)
        report(workload, bench["end_to_end"], runs, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
