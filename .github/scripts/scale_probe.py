#!/usr/bin/env python3
"""Usage: scale_probe.py N [DIR]

The scale probe: writes ``wide_rows(N, 1)`` from ``perfbench/inputs.py`` as
five sources, one per format, laid out as that module lays out wide-10k
(each source N/5 rows plus the planted noise and two duplicates of the
previous source), into DIR (a temporary directory by default). It then runs
``ingest``, ``cleanse``, ``extract``, ``framing`` and ``sectors`` at
``--jobs 2``, all in one fresh interpreter, and prints each stage's
``wall_clock_s`` and ``peak_rss_mb`` from ``run_manifest.json``, then one JSON
line of the same. ``peak_rss_mb`` is that interpreter's own high-water mark
so far (``VmHWM``, so the rows generated here do not count), and a stage's
reading is the most any stage up to it held.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))

from inputs import WIDE_FORMATS, _write_config, _write_source, noise_rows, wide_rows  # noqa: E402

STAGES = ("ingest", "cleanse", "extract", "framing", "sectors")
# run in a fresh interpreter: argv[1] is run.json
RUN = f"""
import sys
from skillscope.cli import RunConfig, run_stage
cfg = RunConfig.load(sys.argv[1])
for stage in {STAGES!r}:
    run_stage(stage, cfg, jobs=2)
"""


def write_sources(n: int, out: Path) -> Path:
    """The five sources and run.json under ``out``; the path of run.json."""
    rows, size = wide_rows(n, 1), n // len(WIDE_FORMATS)
    specs = []
    for s, fmt in enumerate(WIDE_FORMATS):
        own = rows[s * size:(s + 1) * size]
        chunk = own + noise_rows(own)
        if s:
            prev = rows[(s - 1) * size:s * size]
            chunk += [prev[5], (prev[7][0], prev[7][1].upper())]
        ext = "json" if fmt == "api" else fmt
        specs.append(_write_source(out / f"wide_{fmt}.{ext}", fmt, chunk))
    return _write_config(out, specs, 1, {})


def probe(n: int, out: Path) -> dict:
    subprocess.run([sys.executable, "-c", RUN, str(write_sources(n, out))], check=True)
    stages = json.loads((out / "results" / "run_manifest.json").read_text())["stages"]
    return {stage: {key: stages[stage][key] for key in ("wall_clock_s", "peak_rss_mb")}
            for stage in STAGES}


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3) or not argv[1].isdigit() or int(argv[1]) < 5 * 11:
        sys.exit(__doc__.split("\n\n")[0] + "\n(N at least 55: each source needs 11 rows)")
    n = int(argv[1])
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(argv[2] if len(argv) == 3 else scratch)
        out.mkdir(parents=True, exist_ok=True)
        found = probe(n, out)
    for stage, entry in found.items():
        print(f"{stage:8} {entry['wall_clock_s']:7.3f} s {entry['peak_rss_mb']:7.1f} MB")
    print(json.dumps({"postings": n, "stages": found}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
