#!/usr/bin/env python3
"""End-to-end petition benchmark for peerlab.

Builds the benchmark driver (e2ebench/CMakeLists.txt, which compiles the
peerlab libraries from src/) on first use, runs one workload from one
seed, checks its outputs, and prints as the last line of stdout:

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}

Usage, from the repository root:

    python3 e2ebench/run.py --workload crowd --seed 7 [--seconds 30] --trace 0
    python3 e2ebench/run.py --selftest [--asan]

--seed is required; --seconds defaults to BENCHMARK.json's run_seconds.

--trace 0 reports the end-to-end metrics of BENCHMARK.json with
observability detached; --trace 1 reports its per-layer metrics (and a
per-layer table on stderr). Every reported unit must match the one
BENCHMARK.json declares, or the run fails: units are pinned here, not
trusted. The build directory is $CARGO_TARGET_DIR (default .bench_build)
under the repository root. See e2ebench/WORKLOADS.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-sweep", "crowd", "churn")
RUN_TIMEOUT_S = 170
INF = math.inf
# The traffic each workload is chosen to load (WORKLOADS.md), as bands
# (metric, lowest, highest) on its per-layer readout: a change that
# moves a workload out of its mix makes it another workload.
MIX = {
    "paper-sweep": [
        ("selection.index.fast_path_ratio", 0.99, 1),
        ("selection.index.rebuilds", 1, INF),
        ("net.flows.flows_releveled", 1, INF),
        ("net.flows.aborted", 0, 0),
        ("overlay.failovers", 0, 0),
    ],
    "crowd": [
        ("selection.index.fast_path_ratio", 0.99, 1),
        ("selection.index.dense_sweeps", 1, INF),
        ("selection.index.rekeys_per_petition", 10, INF),
        ("overlay.heartbeats", 1, INF),
        ("net.flows.aborted", 0, 0),
        ("overlay.failovers", 0, 0),
    ],
    "churn": [
        ("selection.index.fast_path_ratio", 0, 0),
        ("selection.index.rekeys_per_petition", 0, 0),
        ("faults.crashes", 1, INF),
        ("net.flows.aborted", 1, INF),
        ("transport.transfers.failed", 1, INF),
        ("overlay.failovers", 1, INF),
        ("reputation.quarantines", 1, INF),
        ("adversary.refusals", 1, INF),
        ("econ.exhausted", 1, INF),
        ("econ.admitted_ratio", 0.5, 0.99),
    ],
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir(sanitize):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base + "-asan" if sanitize else base


def build(sanitize=False):
    """Configures and builds the driver; returns its path or None."""
    out = build_dir(sanitize)
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if sanitize:
        configure.append("-DE2EBENCH_SANITIZE=ON")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", out, "--target", "e2ebench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("e2ebench: build failed:", " ".join(cmd))
            return None
    return os.path.join(out, "e2ebench")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_units(trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in benchmark_spec()[key]}


def driver_env(extra=None):
    """The driver's environment: malloc backs its heap with transparent
    huge pages (a glibc >= 2.35 tunable; ignored where unsupported). A
    crowd world's tens of MiB on 4 KiB pages made its speed hinge on
    where the kernel placed each page and on the host's memory traffic:
    the same run's throughput spread about twice as wide."""
    env = dict(os.environ, **(extra or {}))
    tunables = [t for t in env.get("GLIBC_TUNABLES", "").split(":") if t]
    env["GLIBC_TUNABLES"] = ":".join(tunables + ["glibc.malloc.hugetlb=1"])
    return env


def run_driver(binary, args, env=None):
    """Runs the driver; returns (exit code, parsed output, wall seconds)."""
    begun = time.monotonic()
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, env=env or driver_env())
    wall = time.monotonic() - begun
    parsed = {"metrics": {}, "digest": None, "attempted": 0, "completed": 0}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if fields[:1] == ["metric"] and len(fields) == 4:
            parsed["metrics"][fields[1]] = {"value": float(fields[2]), "unit": fields[3]}
        elif fields[:1] == ["digest"] and len(fields) == 4:
            parsed["digest"] = fields[3]
        elif fields[:1] == ["petitions"] and len(fields) == 3:
            parsed["attempted"], parsed["completed"] = int(fields[1]), int(fields[2])
    return proc.returncode, parsed, wall


def unit_errors(metrics, units):
    """Every declared metric present, with its declared unit, finite."""
    errors = []
    for name, unit in units.items():
        got = metrics.get(name)
        if got is None:
            errors.append(f"{name}: missing")
        elif got["unit"] != unit:
            errors.append(f"{name}: unit {got['unit']!r}, declared {unit!r}")
        elif not math.isfinite(got["value"]):
            errors.append(f"{name}: non-finite value {got['value']}")
    errors += [f"{name}: not declared" for name in metrics if name not in units]
    return errors


def measure(args):
    binary = build()
    if binary is None:
        return 1
    units = declared_units(args.trace)
    code, out, _ = run_driver(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    if code not in (0, 1) or out["attempted"] < 1:
        log(f"e2ebench: driver exited {code} without a result")
        return 1
    errors = unit_errors(out["metrics"], units)
    for e in errors:
        log("unit check:", e)
    correct = code == 0 and not errors
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["attempted"] - out["completed"],
        "metrics": {name: out["metrics"][name] for name in units if name in out["metrics"]},
    }))
    return 0 if correct else 1


def selftest(args):
    """Toy-size checks (about 1% of each workload): determinism per
    seed, sensitivity to the seed, traced == detached digest, the unit
    pin with plausibility bands, and (--asan) clean mid-flight teardown
    under AddressSanitizer. Then each workload's traffic mix (MIX) on
    one full-size traced run."""
    binary = build()
    if binary is None:
        return 1
    failures = []

    def expect(ok, what):
        log(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    toy = ["--scale", "0.01", "--seconds", "0"]
    seed = 5
    for w in WORKLOADS:
        base = ["--workload", w] + toy
        code_a, a, _ = run_driver(binary, base + ["--seed", str(seed), "--trace", "0"])
        code_b, b, _ = run_driver(binary, base + ["--seed", str(seed), "--trace", "0"])
        code_c, c, _ = run_driver(binary, base + ["--seed", str(seed + 1), "--trace", "0"])
        code_t, t, wall = run_driver(binary, base + ["--seed", str(seed), "--trace", "1"])
        expect(code_a == code_b == code_c == code_t == 0, f"{w}: all toy runs pass their checks")
        expect(a["digest"] is not None and a["digest"] == b["digest"],
               f"{w}: same seed, same digest ({a['digest']})")
        expect(c["digest"] != a["digest"], f"{w}: other seed, other digest ({c['digest']})")
        expect(t["digest"] == a["digest"], f"{w}: traced digest equals detached digest")
        expect(not unit_errors(a["metrics"], declared_units(False)),
               f"{w}: end-to-end metrics carry their declared units")
        expect(not unit_errors(t["metrics"], declared_units(True)),
               f"{w}: per-layer metrics carry their declared units")
        m = {k: v["value"] for k, v in t["metrics"].items()}
        # A timing reported in the wrong unit is off by 10^3 or more:
        # bound every host timing by the run's own wall time.
        in_seconds = {
            "planetlab.build_s": m.get("planetlab.build_s", 0),
            "planetlab.boot_s": m.get("planetlab.boot_s", 0),
            "sim.slice_ms_p99": m.get("sim.slice_ms_p99", 0) / 1e3,
            "overlay.selection.rank_us_p99": m.get("overlay.selection.rank_us_p99", 0) / 1e6,
            "sim events x ns/event": m.get("sim.events", 0)
            * m.get("sim.host_ns_per_event", 0) / 1e9,
        }
        for name, seconds in in_seconds.items():
            expect(0 < seconds < wall, f"{w}: {name} = {seconds:.3g} s within the {wall:.2f} s run")
        expect(10 < m.get("sim.host_ns_per_event", 0) < 1e6,
               f"{w}: sim.host_ns_per_event plausible ({m.get('sim.host_ns_per_event', 0):.0f} ns)")

    # The mix each workload was chosen for, on one full-size traced run.
    for w in WORKLOADS:
        code, out, _ = run_driver(binary, ["--workload", w, "--seed", str(seed), "--seconds",
                                           "0", "--trace", "1"])
        expect(code == 0, f"{w}: full-size traced run passes its checks")
        m = {k: v["value"] for k, v in out["metrics"].items()}
        for name, low, high in MIX[w]:
            value = m.get(name, math.nan)
            expect(low <= value <= high, f"{w}: {name} = {value:.4g} in [{low}, {high}]")

    if args.asan:
        asan = build(sanitize=True)
        if asan is None:
            return 1
        env = driver_env({"ASAN_OPTIONS": "detect_leaks=1:abort_on_error=1"})
        for w in WORKLOADS:
            code, _, _ = run_driver(asan, ["--workload", w, "--seed", str(seed), "--scale",
                                           "0.01", "--abandon"], env=env)
            expect(code == 0, f"{w}: mid-flight teardown clean under ASan")
            code, _, _ = run_driver(asan, ["--workload", w, "--seed", str(seed), "--trace", "1"]
                                    + toy, env=env)
            expect(code == 0, f"{w}: traced toy run clean under ASan")

    log(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--asan", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest(args)
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
