#!/usr/bin/env python3
"""Microbenchmark regression harness.

Runs the google-benchmark binaries (bench_micro_engine,
bench_micro_overlay, bench_micro_selection), distils them into a small
set of headline throughput metrics, and diffs the result against the
newest committed BENCH_<N>.json snapshot:

  * events_per_s              geomean items/s of BM_EventQueuePushPop
  * sim_hops_per_s            geomean items/s of BM_SimulatorEventChain
  * flow_transitions_per_s    geomean items/s of BM_FlowSchedulerChurn
  * flow_locality_transitions_per_s
                              geomean items/s of BM_FlowSchedulerLocality
  * sim_events_per_s          geomean of the overlay "sim_events/s" counters
  * selection_decisions_per_s geomean items/s of bench_micro_selection

Typical use:

  scripts/bench_compare.py --emit                # run, diff, write BENCH_<N+1>.json
  scripts/bench_compare.py                       # run + diff only, no snapshot
  scripts/bench_compare.py --threshold 0.10      # tolerate 10% regression
  scripts/bench_compare.py --from-json a.json b.json --emit
                                                 # distil saved runs instead of executing

Exits nonzero when any headline metric regresses by more than the
threshold relative to the previous snapshot, or when a metric present
in the baseline is missing from the candidate run entirely (a deleted
or renamed benchmark must be an explicit decision, not a silent pass);
that is what makes it usable as a CI tripwire.

The script can additionally diff observability exports (the
<bench>.metrics.json files the figure benches write via peerlab::obs):

  scripts/bench_compare.py --obs-json bench_fig6_models.metrics.json \
                           --obs-baseline saved/bench_fig6_models.metrics.json

Only the selected headline series (per-model selection-latency
quantiles, failover/backoff counters, datagram totals, fault counts)
are shown. Obs diffs are always advisory: they never affect the exit
code, because counter totals shift legitimately with workload edits —
the table exists so a reviewer sees the shift, not so CI blocks on it.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import re
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

BENCH_BINARIES = ["bench_micro_engine", "bench_micro_overlay", "bench_micro_selection"]

# metric name -> (benchmark-name regex, JSON field)
METRICS = {
    "events_per_s": (r"^BM_EventQueuePushPop/", "items_per_second"),
    "sim_hops_per_s": (r"^BM_SimulatorEventChain/", "items_per_second"),
    "flow_transitions_per_s": (r"^BM_FlowSchedulerChurn/", "items_per_second"),
    "flow_locality_transitions_per_s": (r"^BM_FlowSchedulerLocality/", "items_per_second"),
    "sim_events_per_s": (r"^BM_(FileTransferRoundTrip|SimulatedHourOfHeartbeats)", "sim_events/s"),
    "selection_decisions_per_s": (r"^BM_Select", "items_per_second"),
}


# Observability series worth a reviewer's eye in a diff; everything
# else in the export is noise at review granularity.
OBS_SELECTED = [
    r"^overlay\.selection\.latency_s(\.[\w-]+)?\.(count|p50|p99)$",
    r"^overlay\.(failovers|backoff_retries)(\.[\w-]+)?$",
    r"^overlay\.selections_requested(\.[\w-]+)?$",
    r"^net\.datagrams\.(sent|lost)(\.[\w-]+)?$",
    r"^net\.messages\.aborted(\.[\w-]+)?$",
    r"^faults\.[\w]+(\.[\w-]+)?$",
]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# google-benchmark reports real_time in each record's "time_unit"
# (benchmark::kMicrosecond etc.); snapshots store nanoseconds.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def real_time_ns(record: dict) -> float:
    unit = record.get("time_unit", "ns")
    if unit not in NS_PER_UNIT:
        sys.exit(f"bench_compare: {record['name']}: unknown time_unit {unit!r}")
    return record["real_time"] * NS_PER_UNIT[unit]


OBS_SCHEMA = "peerlab.metrics/1"


def load_obs_metrics(paths: list[pathlib.Path]) -> dict[str, float]:
    """Merges the flat "metrics" maps of peerlab::obs JSON exports.

    Validates the export's schema tag first: a missing or mismatched
    tag fails with a clear message (the export predates the tag, or
    was produced by an incompatible build) instead of surfacing later
    as a confusing KeyError / empty diff.
    """
    merged: dict[str, float] = {}
    for path in paths:
        export = json.loads(path.read_text())
        schema = export.get("schema")
        if schema != OBS_SCHEMA:
            sys.exit(f"bench_compare: {path}: unsupported metrics schema "
                     f"{schema!r} (this script reads {OBS_SCHEMA!r}); "
                     f"re-generate the export with a matching build")
        if "metrics" not in export:
            sys.exit(f"bench_compare: {path}: schema tag present but no "
                     f"'metrics' map — truncated or hand-edited export?")
        merged.update(export["metrics"])
    return merged


def diff_obs_metrics(current_paths: list[pathlib.Path],
                     baseline_path: pathlib.Path | None) -> None:
    """Prints the advisory observability table. Never fails the run."""
    current = load_obs_metrics(current_paths)
    baseline = load_obs_metrics([baseline_path]) if baseline_path else {}
    selected = [k for k in sorted(current)
                if any(re.match(p, k) for p in OBS_SELECTED)]
    if not selected:
        print("obs: no selected metrics found in export", file=sys.stderr)
        return
    print("\nobservability metrics (advisory, never gating):")
    print(f"{'metric':44s} {'current':>14s} {'baseline':>14s} {'ratio':>7s}")
    for key in selected:
        value = current[key]
        base = baseline.get(key)
        if base:
            print(f"{key:44s} {value:14.4g} {base:14.4g} {value / base:6.2f}x")
        else:
            print(f"{key:44s} {value:14.4g} {'-':>14s} {'-':>7s}")


def run_benchmarks(build_dir: pathlib.Path, min_time: float, repetitions: int) -> list[dict]:
    """Runs every bench binary, returns the merged benchmark records.

    With repetitions > 1 each binary is run that many times and the
    best (highest-throughput) record per benchmark is kept, which
    filters out one-off machine noise the same way interleaved A/B
    benchmarking does.
    """
    best: dict[str, dict] = {}
    for rep in range(repetitions):
        for binary in BENCH_BINARIES:
            path = build_dir / "bench" / binary
            if not path.exists():
                print(f"bench_compare: missing {path}, skipping", file=sys.stderr)
                continue
            cmd = [str(path), "--benchmark_format=json", f"--benchmark_min_time={min_time}"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            for record in json.loads(out)["benchmarks"]:
                name = record["name"]
                prev = best.get(name)
                if prev is None or record["real_time"] < prev["real_time"]:
                    best[name] = record
    return list(best.values())


def load_saved(paths: list[pathlib.Path]) -> list[dict]:
    best: dict[str, dict] = {}
    for path in paths:
        for record in json.loads(path.read_text())["benchmarks"]:
            name = record["name"]
            prev = best.get(name)
            if prev is None or record["real_time"] < prev["real_time"]:
                best[name] = record
    return list(best.values())


def distil(records: list[dict]) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for metric, (pattern, field) in METRICS.items():
        values = [r[field] for r in records if re.search(pattern, r["name"]) and field in r]
        if values:
            metrics[metric] = geomean(values)
    return metrics


def snapshot_paths(bench_dir: pathlib.Path) -> list[tuple[int, pathlib.Path]]:
    found = []
    for path in bench_dir.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-dir", type=pathlib.Path, default=REPO_ROOT / "build")
    parser.add_argument("--bench-dir", type=pathlib.Path, default=REPO_ROOT,
                        help="directory holding BENCH_<N>.json snapshots")
    parser.add_argument("--emit", action="store_true",
                        help="write the run as the next BENCH_<N>.json snapshot")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="fractional regression tolerated per metric (default 0.05)")
    parser.add_argument("--min-time", type=float, default=0.3,
                        help="--benchmark_min_time passed to each binary")
    parser.add_argument("--repetitions", type=int, default=2,
                        help="full passes over the binaries; best run per benchmark kept")
    parser.add_argument("--from-json", type=pathlib.Path, nargs="+", default=None,
                        help="distil saved --benchmark_format=json outputs instead of running")
    parser.add_argument("--label", default=None, help="free-form label stored in the snapshot")
    parser.add_argument("--obs-json", type=pathlib.Path, nargs="+", default=None,
                        help="peerlab::obs metrics exports to diff (advisory)")
    parser.add_argument("--obs-baseline", type=pathlib.Path, default=None,
                        help="baseline obs export to diff --obs-json against")
    args = parser.parse_args()

    if args.obs_json:
        diff_obs_metrics(args.obs_json, args.obs_baseline)

    if args.from_json:
        records = load_saved(args.from_json)
    else:
        records = run_benchmarks(args.build_dir, args.min_time, args.repetitions)
    if not records:
        print("bench_compare: no benchmark records produced", file=sys.stderr)
        return 2
    metrics = distil(records)

    snapshots = snapshot_paths(args.bench_dir)
    previous = None
    if snapshots:
        prev_number, prev_path = snapshots[-1]
        previous = json.loads(prev_path.read_text())
        print(f"baseline: {prev_path.name}")

    failed = []
    print(f"{'metric':28s} {'current':>14s} {'baseline':>14s} {'ratio':>7s}")
    for metric, value in sorted(metrics.items()):
        base = (previous or {}).get("metrics", {}).get(metric)
        if base:
            ratio = value / base
            flag = ""
            if ratio < 1.0 - args.threshold:
                failed.append(metric)
                flag = "  << REGRESSION"
            print(f"{metric:28s} {value:14.3e} {base:14.3e} {ratio:6.2f}x{flag}")
        else:
            print(f"{metric:28s} {value:14.3e} {'-':>14s} {'-':>7s}")

    # A baseline metric the candidate run never produced is a silently
    # deleted benchmark (renamed binary, filtered-out suite), which would
    # otherwise read as "no regression" forever. Collect the FULL list —
    # both distilled headline metrics and individual benchmark names from
    # the snapshot's "benchmarks" map — before failing, so one run shows
    # everything that vanished instead of revealing it one fix at a time.
    missing = sorted(set((previous or {}).get("metrics", {})) - set(metrics))
    current_names = {r["name"] for r in records}
    missing_benchmarks = sorted(set((previous or {}).get("benchmarks", {})) - current_names)
    if missing or missing_benchmarks:
        for metric in missing:
            print(f"MISSING: headline metric '{metric}' absent from candidate run",
                  file=sys.stderr)
        for name in missing_benchmarks:
            print(f"MISSING: benchmark '{name}' absent from candidate run", file=sys.stderr)
        print(f"FAIL: {len(missing) + len(missing_benchmarks)} baseline entries missing "
              f"from candidate run", file=sys.stderr)

    if args.emit:
        number = snapshots[-1][0] + 1 if snapshots else 0
        out_path = args.bench_dir / f"BENCH_{number}.json"
        out_path.write_text(json.dumps({
            "label": args.label or "",
            "metrics": metrics,
            "benchmarks": {r["name"]: {
                "real_time_ns": real_time_ns(r),
                "items_per_second": r.get("items_per_second"),
                "sim_events_per_s": r.get("sim_events/s"),
            } for r in sorted(records, key=lambda r: r["name"])},
        }, indent=2) + "\n")
        print(f"wrote {out_path.relative_to(REPO_ROOT) if out_path.is_relative_to(REPO_ROOT) else out_path}")

    if failed:
        print(f"FAIL: regression beyond {args.threshold:.0%} in: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    if missing or missing_benchmarks:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
