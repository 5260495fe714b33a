#!/usr/bin/env python3
"""Same-day A/B of the end-to-end benchmark against a parent revision.

Usage, from the repository root:

    python3 scripts/ab.py <parent-rev> [--pairs 10]
        [--workloads churn crowd paper-sweep] [--scratch .ab_build]
        [--json ab.json]

The parent side is <parent-rev>, `git archive`d into
<scratch>/<commit>/src; the change side is this checkout's working
tree. Each side's e2ebench driver is built by that side's own
e2ebench/run.py build(), into its own CARGO_TARGET_DIR under <scratch>.

Then, per workload and at seeds 101 and 20070901, N pairs run
alternately (parent first in even pairs, change first in odd), each
run BENCHMARK.json's run_seconds long, with --trace 0 in run.py's
driver environment. The script stops with exit 1 as soon as a driver exits
nonzero, a declared end-to-end metric is missing or carries another
unit, or a run prints a digest other than the parent's first digest
for that workload and seed.

It prints one table per end-to-end metric of BENCHMARK.json, the rows
EXPERIMENTS.md quotes: each side's median [quartiles], change ÷ parent,
wins (pairs where the change read better, by the metric's "better"),
the parent's IQR and the median gain (change minus parent, signed so
that positive is better). Quartiles interpolate linearly between
order statistics. --json writes every run's metrics and the medians,
which scripts/bench_compare.py --ab-json folds into a BENCH snapshot.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import tarfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (101, 20070901)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_run_module(tree: pathlib.Path, name: str):
    """Imports <tree>/e2ebench/run.py as module `name`."""
    spec = importlib.util.spec_from_file_location(name, tree / "e2ebench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def archive(rev: str, scratch: pathlib.Path) -> tuple[str, pathlib.Path]:
    """Extracts `rev` into <scratch>/<commit>/src once; returns both."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    tree = scratch / commit / "src"
    done = tree / ".archived"
    if not done.exists():
        blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                              capture_output=True, check=True).stdout
        tree.mkdir(parents=True, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
            tar.extractall(tree, filter="data")
        done.touch()
    return commit, tree


def build(module, target_dir: pathlib.Path) -> str:
    os.environ["CARGO_TARGET_DIR"] = str(target_dir)
    binary = module.build()
    if binary is None:
        sys.exit("ab: build failed")
    return binary


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def fmt(value: float) -> str:
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def summary(parent: list[float], change: list[float], better: str) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    return {
        "parent": [med_p, q1, q3],
        "change": [med_c, *quartiles(change)],
        "ratio": med_c / med_p if med_p else math.nan,
        "wins": sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0),
        "pairs": len(parent),
        "parent_iqr": q3 - q1,
        "gain": sign * (med_c - med_p) + 0.0,  # no "-0" for a tie
    }


def print_tables(spec: dict, runs: dict) -> dict:
    """Prints one markdown table per end-to-end metric; returns the
    summaries keyed metric -> workload -> seed."""
    out: dict = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        print(f"\n| workload | seed | parent `{name}` | change | ratio | wins | parent IQR "
              f"| median gain |")
        print("|---|---|---|---|---|---|---|---|")
        for workload, by_seed in runs.items():
            for seed, sides in by_seed.items():
                s = summary([r[name] for r in sides["parent"]],
                            [r[name] for r in sides["change"]], metric["better"])
                out.setdefault(name, {}).setdefault(workload, {})[seed] = s
                med_p, q1_p, q3_p = s["parent"]
                med_c, q1_c, q3_c = s["change"]
                gain = fmt(s["gain"]).replace("-", "−")
                print(f"| {workload} | {seed} | {fmt(med_p)} [{fmt(q1_p)}, {fmt(q3_p)}] "
                      f"| {fmt(med_c)} [{fmt(q1_c)}, {fmt(q3_c)}] | {s['ratio']:.2f}× "
                      f"| {s['wins']}/{s['pairs']} | {fmt(s['parent_iqr'])} | {gain} |")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision of the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--scratch", type=pathlib.Path, default=ROOT / ".ab_build",
                        help="archive and build directory (default .ab_build)")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="write every run's metrics and the summaries here")
    args = parser.parse_args()

    change_run = load_run_module(ROOT, "ab_change_run")
    spec = change_run.benchmark_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    units = change_run.declared_units(0)
    scratch = args.scratch.resolve()

    commit, parent_tree = archive(args.parent, scratch)
    parent_run = load_run_module(parent_tree, "ab_parent_run")
    binaries = {
        "parent": build(parent_run, scratch / commit / "build"),
        "change": build(change_run, scratch / "change-build"),
    }
    log(f"ab: parent {commit[:12]} vs working tree, {args.pairs} pairs x {seconds:g} s")

    runs: dict = {}
    for workload in workloads:
        for seed in SEEDS:
            sides = runs.setdefault(workload, {}).setdefault(seed, {"parent": [], "change": []})
            reference = None
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    code, out, _ = change_run.run_driver(binaries[side], [
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"])
                    errors = change_run.unit_errors(out["metrics"], units)
                    if code != 0 or errors:
                        log(f"ab: {side} {workload} seed {seed} pair {pair}: exit {code}",
                            *errors)
                        return 1
                    reference = reference or out["digest"]
                    if out["digest"] is None or out["digest"] != reference:
                        log(f"ab: {side} {workload} seed {seed} pair {pair}: digest "
                            f"{out['digest']} != parent's {reference}")
                        return 1
                    sides[side].append({k: v["value"] for k, v in out["metrics"].items()})
                log(f"ab: {workload} {seed} pair {pair + 1}/{args.pairs}: parent "
                    f"{sides['parent'][-1]['petitions_per_s']:.0f}/s, change "
                    f"{sides['change'][-1]['petitions_per_s']:.0f}/s")
            log(f"ab: {workload} {seed}: digest {reference} on every run")

    print(f"A/B: parent {commit[:12]} vs working tree; {args.pairs} alternating "
          f"{seconds:g} s pairs per workload and seed; median [quartiles]")
    summaries = print_tables(spec, runs)
    if args.json:
        args.json.write_text(json.dumps({
            "parent": commit, "seconds": seconds, "pairs": args.pairs,
            "runs": runs, "summaries": summaries}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
