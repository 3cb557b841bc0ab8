#!/usr/bin/env bash
# Usage: only_outputs.sh DIR STAGE... (or DIR all)
#
# Fails unless DIR holds exactly the declared outputs of the STAGEs (every
# stage for "all") and run_manifest.json: no temp file, and no part file or
# part directory a split stage writes while it runs.
set -euo pipefail
python3 - "$@" <<'PY'
import os
import sys

from skillscope.cli import PIPELINE

out, *stages = sys.argv[1:]
stages = list(PIPELINE) if stages == ["all"] else stages
want = {"run_manifest.json", *(name for stage in stages for name in PIPELINE[stage].outputs)}
have = set(os.listdir(out))
if have != want:
    sys.exit(f"{out}: missing {sorted(want - have)}, unexpected {sorted(have - want)}")
print(f"{out}: the {len(want) - 1} outputs of {len(stages)} stages and run_manifest.json")
PY
