#!/usr/bin/env bash
# Golden-output check (`ctest -L golden`): rebuild the SHA-256 manifest of
# every deterministic bench and example output from the binaries in
# BUILD_DIR (scripts/snapshot_outputs.sh, run inside WORK_DIR) and compare
# it with the committed tests/golden/outputs.sha256, naming each output that
# moved, appeared or vanished.
#
# A change that claims bit-identity leaves the manifest untouched. A change
# that moves outputs on purpose regenerates it in a commit of its own:
#   scripts/snapshot_outputs.sh OUT_DIR && cp OUT_DIR/outputs.sha256 tests/golden/
#
# Usage: tests/golden/check_outputs.sh BUILD_DIR WORK_DIR
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR WORK_DIR" >&2
  exit 2
fi
here=$(cd "$(dirname "$0")" && pwd)
golden=$here/outputs.sha256
rm -rf "$2"
"$here/../../scripts/snapshot_outputs.sh" "$2" "$1" > /dev/null
fresh=$2/outputs.sha256

if cmp -s "$golden" "$fresh"; then
  echo "all $(wc -l < "$golden") outputs match $golden"
  exit 0
fi
awk 'NR == FNR { want[$2] = $1; next }
     { got[$2] = $1 }
     END {
       for (f in want) {
         if (!(f in got)) print "vanished: " f
         else if (got[f] != want[f]) print "moved:    " f
       }
       for (f in got) if (!(f in want)) print "appeared: " f
     }' "$golden" "$fresh" | LC_ALL=C sort
echo "outputs differ from $golden (fresh outputs in $2)"
exit 1
