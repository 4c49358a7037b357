#!/usr/bin/env bash
# Snapshot every deterministic output of the simulator into OUT_DIR: the
# stdout of all figure/ablation/extension benches and of the five examples,
# plus the trace/event files chaos_resilience and perfcloud_sim write.
# Builds the release preset of the checkout the script lives in, or, given
# BUILD_DIR, runs the binaries already built there and builds nothing.
# Last, it writes OUT_DIR/outputs.sha256: one `sha256sum` line per output
# file, sorted by path (tests/golden/outputs.sha256 is a committed copy).
#
# An output-neutral change is one where the snapshots of the parent commit
# and of the change are identical:
#   (parent checkout)  scripts/snapshot_outputs.sh /tmp/parent_out
#   (change checkout)  scripts/snapshot_outputs.sh /tmp/change_out
#   diff -r /tmp/parent_out /tmp/change_out
#
# Usage: scripts/snapshot_outputs.sh OUT_DIR [BUILD_DIR]
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 OUT_DIR [BUILD_DIR]" >&2
  exit 2
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
build=
[[ $# -eq 2 ]] && build=$(cd "$2" && pwd)

cd "$(dirname "$0")/.."

benches=(
  fig01_io_cap_sweep fig02_memory_interference fig03_iowait_signal
  fig04_cpi_signal fig05_io_antagonist_id fig06_cpu_antagonist_id
  fig07_cubic_regions fig09_dynamic_control fig10_cap_timeseries
  fig11_large_scale fig12_variability ext_heterogeneous ext_numa
  ext_shared_memory ablation_identification ablation_controller
)
examples=(quickstart noisy_neighbor straggler_mitigation perfcloud_sim chaos_resilience)

if [[ -z $build ]]; then
  cmake --preset release > /dev/null
  cmake --build --preset release -j "$(nproc)" --target "${benches[@]}" "${examples[@]}"
  build=$(pwd)/build-release
fi

# Banners (thread counts, timings) go to stderr; only stdout is compared.
for b in "${benches[@]}"; do
  echo "bench/$b"
  "$build"/bench/"$b" > "$out/$b.txt" 2> /dev/null
done
bin=$build/examples
for e in quickstart noisy_neighbor straggler_mitigation perfcloud_sim; do
  echo "examples/$e"
  "$bin/$e" > "$out/$e.txt" 2> /dev/null
done
# The file-writing runs work inside OUT_DIR with relative paths, so the
# paths they echo are the same for every OUT_DIR.
( cd "$out" && "$bin"/perfcloud_sim --scheme perfcloud --fio 2 --stream 1 \
    --csv perfcloud_sim_perfcloud.csv > perfcloud_sim_perfcloud.txt 2> /dev/null )
echo "examples/chaos_resilience"
mkdir -p "$out/chaos"
( cd "$out" && "$bin"/chaos_resilience chaos > chaos/stdout.txt 2> /dev/null )

manifest=$(cd "$out" && find . -type f ! -name outputs.sha256 -printf '%P\n' | LC_ALL=C sort |
  xargs sha256sum)
printf '%s\n' "$manifest" > "$out/outputs.sha256"

echo "snapshot written to $out"
