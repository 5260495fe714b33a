#!/usr/bin/env bash
# Fast correctness gate: the tier-1 test suite, then an ASan+UBSan build
# exercising the churn/fault-injection paths (the tests most likely to
# hide lifetime bugs: crash-triggered flow aborts, failover callbacks,
# reentrant batch teardown).
#
# scripts/run_all.sh remains the full bar (benches + regression diff);
# this script is the quick pre-push check.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"
ctest --test-dir build -j "$(nproc)" --timeout 180 --output-on-failure

cmake -B build-asan -S . -DPEERLAB_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j "$(nproc)" \
  --target test_net test_overlay test_stats test_adversary test_econ test_property test_core \
  test_flow_differential test_selection_differential test_planetlab test_experiments \
  bench_churn bench_adversarial bench_economic
build-asan/tests/test_net \
  --gtest_filter='FaultPlan.*:FaultInjector.*:Network.*:FlowScheduler.*'
build-asan/tests/test_overlay --gtest_filter='Failover.*:Distribution.*:FileService.*'
# Every model's score_into sanitized, the member scratch the economic
# and hybrid models clear and refill per petition included.
build-asan/tests/test_core
# The broker's per-peer tables (history rows, reputation entries, the
# client registry) are indexed by peer id: the suites that grow, copy,
# export and adopt them run sanitized.
build-asan/tests/test_stats
build-asan/tests/test_overlay \
  --gtest_filter='Broker.*:BrokerDefense.*:ReputationBook.*:ReplicaSet.*:ReplicaFailover.*'
# Teardown order sanitized: a Deployment or experiment World destroyed
# with a flow in flight (metrics, profiling and tracing attached) must
# cancel into live instruments, and the scenario drivers run threaded
# with a registry attached.
build-asan/tests/test_planetlab --gtest_filter='Deployment.*'
build-asan/tests/test_experiments
# Adversarial actuation paths sanitized: scripted refusals, flapper
# aborts and doctored heartbeats all tear down transfer state from
# inside callbacks, exactly where use-after-frees would hide.
build-asan/tests/test_adversary
# Econ engine + broker econ path sanitized: admission re-ranks the
# model's scratch ranking in place and the assignment hints prune
# lazily, both on the petition hot path.
build-asan/tests/test_econ
# The whole property-labelled tier runs under the sanitizers: the
# randomized differential fuzz is where lifetime bugs in the
# incremental re-levelling (stale slots, reentrant aborts) would hide,
# the selection-equivalence fuzz drives the candidate index's lazy
# tree/heap maintenance through churn and adversarial stats deltas
# (stale slot pointers and heap stamps are exactly ASan's prey), the
# adversarial-distribution property drives leech/flapper/churn mixes
# through the failover machinery with defenses off and on, and the
# econ property suite pins the zero-perturbation contract (engine off
# or unconstrained == pristine, byte for byte).
ctest --test-dir build-asan -L property -j "$(nproc)" --timeout 600 --output-on-failure
build-asan/bench/bench_churn --reps 1
build-asan/bench/bench_adversarial --reps 1
build-asan/bench/bench_economic --reps 1

echo "peerlab: check.sh passed"
