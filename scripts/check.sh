#!/usr/bin/env bash
# Full check: the test suite under ASan+UBSan (plus a sharded perf-label
# sweep), the same suite under TSan with the host shard sweeps actually
# parallel (PERFCLOUD_THREADS=4, the one parallelism override: every
# top-level engine runs 4 shards and every runner 4 threads), the golden
# output manifest on the release build at PERFCLOUD_THREADS=4, the
# zero-steady-state-allocation gate on the release build, and determinism
# gates diffing real bench output across shard counts, runner thread counts
# and emission modes.
# Usage: scripts/check.sh [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== ASan + UBSan =="
cmake --preset asan
cmake --build --preset asan -j "$(nproc)"
UBSAN_OPTIONS=halt_on_error=1 ctest --preset asan -j "$(nproc)" "$@"
# The perf-label tests again, sharded: the slot-store/scratch hot path and
# the identifier's reused scoring scratch run their multi-host scenarios
# with ASan watching for stale-slot reads after VM eviction and host crashes.
UBSAN_OPTIONS=halt_on_error=1 PERFCLOUD_THREADS=4 ctest --preset asan -L perf -j "$(nproc)"

echo "== TSan, sharded (PERFCLOUD_THREADS=4) =="
# Every sharded periodic of every top-level engine in every test runs its
# host-local tasks across 4 threads, so the pool's handoffs and the thread-confinement of the
# hypervisor/monitor/node-manager pipelines are exercised under TSan. The
# fault tests (pc_faults_tests, label "faults") are part of the suite, so
# chaos runs — host crashes, blackouts, lossy cap channels — get the same
# sanitizer sweeps as everything else.
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"
# This sweep runs the pool's batch handoff (one claim cursor, seats taken
# and checked out under the mutex) under TSan everywhere, the policy tests included: the policy's barrier hook folds
# every host's monitor/controller state on the engine thread right after
# the parallel half, which is exactly the boundary a racy shard handoff
# would corrupt.
PERFCLOUD_THREADS=4 ctest --preset tsan -j "$(nproc)" "$@"

echo "== sharded golden gate (PERFCLOUD_THREADS=4) =="
# The golden test (every figure/ablation/extension bench, the examples and
# the chaos/trace outputs against tests/golden/outputs.sha256) is not
# registered in the sanitizer builds and the tier-1 run leaves the thread
# budget to the hardware. Here it runs on the full release build with every
# top-level engine at 4 shards and every runner at 4 threads, so tick state
# that leaks between hosts ticked on one thread, or between threads, moves a
# hash.
cmake --preset release
cmake --build --preset release -j "$(nproc)"
PERFCLOUD_THREADS=4 ctest --preset release -L golden

echo "== shard count determinism gate =="
# A multi-host figure bench must emit byte-identical stdout for any shard
# count; wall-clock time is the only thing sharding is allowed to change.
cmake --preset release
cmake --build --preset release -j "$(nproc)" --target ext_heterogeneous
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
PERFCLOUD_THREADS=1 ./build-release/bench/ext_heterogeneous > "$tmpdir/shards1.txt" 2> /dev/null
PERFCLOUD_THREADS=4 ./build-release/bench/ext_heterogeneous > "$tmpdir/shards4.txt" 2> /dev/null
diff "$tmpdir/shards1.txt" "$tmpdir/shards4.txt"
echo "ext_heterogeneous: byte-identical output across shard counts"

echo "== runner thread-count determinism gate =="
# fig12_variability runs its repetitions through exp::ParallelRunner, which
# runs them on a ShardPool; stdout must be byte-identical for any thread
# count (the thread-count banner goes to stderr). The override moves runner
# threads and top-level shards together: at 1 everything runs on one
# thread, at 4 the runner takes 4 and each scenario's engine runs inline.
cmake --build --preset release -j "$(nproc)" --target fig12_variability
PERFCLOUD_THREADS=1 ./build-release/bench/fig12_variability > "$tmpdir/threads1.txt" 2> /dev/null
PERFCLOUD_THREADS=4 ./build-release/bench/fig12_variability > "$tmpdir/threads4.txt" 2> /dev/null
diff "$tmpdir/threads1.txt" "$tmpdir/threads4.txt"
echo "fig12_variability: byte-identical output across runner thread counts"

echo "== zero-steady-state-allocation gate =="
# The release build (no sanitizer allocator inflating counts) runs the
# AllocGate suite: a warmed control quantum — monitor, detect, identify,
# bookkeeping — a warmed host tick and the engine's periodic re-arm must
# perform zero heap allocations, and the suite
# self-checks that the counting operator-new hook is linked and counting
# before trusting any zero. PolicyAllocGate holds an armed, non-triggering
# migration-policy interval to the same zero.
cmake --build --preset release -j "$(nproc)" --target pc_perf_tests pc_policy_tests
./build-release/tests/pc_perf_tests --gtest_filter='AllocGate.*'
./build-release/tests/pc_policy_tests --gtest_filter='PolicyAllocGate.*'

echo "== sync-vs-async emission gate =="
# micro_emit runs one PerfCloud scenario three times (no sink, sync sink,
# async writer thread) plus a heavy synthetic stream, and hard-fails inside
# the binary unless the simulation fingerprint is unchanged by observation.
# The diff below re-checks the emitted files byte for byte from the outside.
cmake --build --preset release -j "$(nproc)" --target micro_emit
( cd "$tmpdir" && "$OLDPWD/build-release/bench/micro_emit" > micro_emit.log )
diff "$tmpdir/emit_sync.csv" "$tmpdir/emit_async.csv"
diff "$tmpdir/emit_sync.jsonl" "$tmpdir/emit_async.jsonl"
diff "$tmpdir/emit_synth_sync.csv" "$tmpdir/emit_synth_async.csv"
diff "$tmpdir/emit_synth_sync.jsonl" "$tmpdir/emit_synth_async.jsonl"
echo "micro_emit: sync and async emission byte-identical (cluster + synthetic)"

echo "== packed-placement migration determinism gate =="
# micro_migrate drives the §IV-D escalation path with live migrations in
# flight (packed placement manufactures the collision) and prints only
# simulation results to stdout; it also hard-fails internally if its packed
# live-migration run differs between explicit shards 1 and 4. The diff
# re-checks the override-driven path from the outside: migrations, escalations,
# pre-copy inflows, pauses, and node-manager state handoffs may not change a
# single output bit with the host sweeps actually parallel. (The new
# migration/fault tests themselves run under TSan above via the full suite.)
cmake --build --preset release -j "$(nproc)" --target micro_migrate
( cd "$tmpdir" && PERFCLOUD_THREADS=1 "$OLDPWD/build-release/bench/micro_migrate" \
    > migrate_shards1.txt )
( cd "$tmpdir" && PERFCLOUD_THREADS=4 "$OLDPWD/build-release/bench/micro_migrate" \
    > migrate_shards4.txt )
diff "$tmpdir/migrate_shards1.txt" "$tmpdir/migrate_shards4.txt"
echo "micro_migrate: byte-identical output across shard counts"

echo "== migration-policy determinism gate =="
# micro_policy folds cluster-wide state (every host's monitors, controllers,
# deviation signals) each policy interval and issues live migrations from
# the barrier phase; its stdout is pure simulation output, so the decision
# layer may not change a single bit with the host sweeps actually parallel.
# The binary also hard-fails internally if the scored run differs between
# explicit shards 1 and 4.
cmake --build --preset release -j "$(nproc)" --target micro_policy
( cd "$tmpdir" && PERFCLOUD_THREADS=1 "$OLDPWD/build-release/bench/micro_policy" \
    > policy_shards1.txt )
( cd "$tmpdir" && PERFCLOUD_THREADS=4 "$OLDPWD/build-release/bench/micro_policy" \
    > policy_shards4.txt )
diff "$tmpdir/policy_shards1.txt" "$tmpdir/policy_shards4.txt"
echo "micro_policy: byte-identical output across shard counts"

echo "== fault-plan determinism gate =="
# A chaos run (host crash + blackout + disk degrade + cap-command loss +
# VM stall + task failures) must be byte-identical — stdout AND the emitted
# trace/event files — for any shard count and for sync vs async emission.
# Faults may only change what the simulation does, never whether it is
# deterministic.
cmake --build --preset release -j "$(nproc)" --target chaos_resilience
for mode in s1-async s4-async s1-sync; do
  mkdir -p "$tmpdir/chaos-$mode"
done
PERFCLOUD_THREADS=1 ./build-release/examples/chaos_resilience \
  "$tmpdir/chaos-s1-async" async > "$tmpdir/chaos-s1-async/stdout.txt"
PERFCLOUD_THREADS=4 ./build-release/examples/chaos_resilience \
  "$tmpdir/chaos-s4-async" async > "$tmpdir/chaos-s4-async/stdout.txt"
PERFCLOUD_THREADS=1 ./build-release/examples/chaos_resilience \
  "$tmpdir/chaos-s1-sync" sync > "$tmpdir/chaos-s1-sync/stdout.txt"
for f in stdout.txt chaos_trace.csv chaos_events.jsonl; do
  diff "$tmpdir/chaos-s1-async/$f" "$tmpdir/chaos-s4-async/$f"
  diff "$tmpdir/chaos-s1-async/$f" "$tmpdir/chaos-s1-sync/$f"
done
echo "chaos_resilience: byte-identical across shard counts and emission modes"
