#!/usr/bin/env python3
"""Usage: expect_processes.py MANIFEST N STAGE=COUNT...

Fails unless each STAGE's ``processes`` in the run manifest MANIFEST equals
its COUNT, for a run at ``--jobs N``. A COUNT is a whole number, ``N``, or
``min(N,K)`` for a whole number K; for example

    expect_processes.py out/run_manifest.json 3 'ingest=min(N,5)' cleanse=N topics=2
"""

import json
import re
import sys


def expected(count: str, jobs: int) -> int:
    match = re.fullmatch(r"N|(\d+)|min\(N,(\d+)\)", count)
    if not match:
        sys.exit(f"count {count!r} is not a whole number, N or min(N,K)")
    plain, cap = match.groups()
    return int(plain) if plain else min(jobs, int(cap)) if cap else jobs


def main(manifest: str, jobs: str, *specs: str) -> None:
    with open(manifest, encoding="utf-8") as fh:
        stages = json.load(fh)["stages"]
    wrong = []
    for spec in specs:
        stage, _, count = spec.partition("=")
        want = expected(count, int(jobs))
        have = stages.get(stage, {}).get("processes")
        if have != want:
            wrong.append(f"{stage}: {have} processes, expected {want} ({count})")
    if wrong:
        sys.exit(f"{manifest} at --jobs {jobs}:\n  " + "\n  ".join(wrong))
    print(f"{manifest}: {len(specs)} stages ran in the expected processes at --jobs {jobs}")


if __name__ == "__main__":
    if len(sys.argv) < 4:
        sys.exit(__doc__)
    main(*sys.argv[1:])
