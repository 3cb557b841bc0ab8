#!/usr/bin/env bash
# Usage: same_artifacts.sh DIR_A DIR_B
#
# Fails unless the two output directories of `skillscope all` hold the same
# file names and every artifact but run_manifest.json (which records timings)
# is byte-identical, and at least one artifact was compared.
set -euo pipefail
a=$1
b=$2
diff <(ls "$a") <(ls "$b")
compared=0
for path in "$a"/*; do
  name=$(basename "$path")
  [ "$name" = run_manifest.json ] && continue
  cmp "$path" "$b/$name"
  compared=$((compared + 1))
done
echo "$b: $compared artifacts identical to $a"
test "$compared" -gt 0
