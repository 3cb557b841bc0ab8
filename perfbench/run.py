"""skillscope benchmark: seeded workloads, end-to-end metrics, traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload demo-2k --seed 1 --seconds 40 --trace 0

``--workload all`` runs every workload in turn. Each pass runs the pipeline
in a fresh interpreter through ``RunConfig.load`` and ``run_stage(name, cfg,
jobs=2)``, on inputs generated from ``--seed``, and every pass is checked.
Passes repeat while another would end nearer to ``--seconds`` of measuring
than stopping; at least one runs. With ``--trace 0`` the last line of output
is a JSON object with the end-to-end metrics, whose times are scaled to a
reference host speed by a yardstick timed in each worker; with ``--trace 1``
each pass runs once plain and once under the tracer, the two must write
identical artifacts, and the JSON carries the per-layer metrics. See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

TIMED = {
    "demo-2k": tracing.STAGES,
    "wide-10k": ("ingest", "cleanse", "extract", "framing", "forecast", "correlate", "sectors"),
    "topics-3k": ("topics",),
}
# stages run once per seed, untimed, before the timed passes
PREP = {"topics-3k": ("ingest", "cleanse")}

SETUP_PROBES = 7    # set-up samples, each scaled by the yardstick right after it
RUN_BUDGET_S = 150  # no pass starts that would end later into the run than this
RUN_LIMIT_S = 170   # a pass still running this far into the run is killed and fails

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# wall_s and setup_s are scaled to a host on which worker.yardstick takes
# this long; see "Host speed" in README.md
REFERENCE_YARDSTICK_S = 0.0015


def at_reference_speed(seconds: float, result: dict) -> float:
    """``seconds`` measured in a worker, scaled by the host speed the
    worker's yardstick samples saw in the same window."""
    return seconds * REFERENCE_YARDSTICK_S / result["yardstick_s"]


class Run:
    """One workload at one seed: spawns passes, checks them, keeps the tally."""

    def __init__(self, workload: str, seed: int, root: Path = WORK, src: Path = SRC):
        self.workload = workload
        self.started = time.monotonic()
        self.work = root / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.corpus = inputs.generate(workload, seed, self.work / "inputs")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.spawned = 0
        # artifact digests must repeat across passes and runs of these inputs
        # under this code; another version of the package gets its own record
        inputs_key = checks.digests_of_files(sorted((self.work / "inputs").iterdir()),
                                             self.work)
        package = src / "skillscope"
        code_key = checks.digests_of_files(
            [p for p in sorted(package.rglob("*"))
             if p.is_file() and "__pycache__" not in p.parts], package)
        self.record = root / "digests" / f"{workload}-{inputs_key[:12]}-{code_key[:12]}.json"
        self.reference = (json.loads(self.record.read_text(encoding="utf-8"))
                          if self.record.exists() else {})

    def spawn(self, mode: str, out: Path, stages=()) -> dict | None:
        self.spawned += 1
        tag = f"{self.spawned:02d}-{mode}"
        job = {"src": str(SRC), "config": str(self.corpus.config), "out": str(out),
               "stages": list(stages), "mode": mode,
               "result": str(self.work / f"{tag}.result.json"),
               "spans": str(self.work / "trace_spans.json")}
        job_path = self.work / f"{tag}.job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        with open(self.work / f"{tag}.log", "wb") as log:
            spawned = time.monotonic()
            try:
                subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path),
                                repr(spawned)], stdout=log, stderr=subprocess.STDOUT,
                               timeout=max(1.0, self.started + RUN_LIMIT_S - spawned),
                               check=False, cwd=ROOT)
            except subprocess.TimeoutExpired:
                return None
        result = Path(job["result"])
        return json.loads(result.read_text(encoding="utf-8")) if result.exists() else None

    def settle(self, label: str, stages, result: dict | None, out: Path) -> bool:
        """Charge every failed stage run of a pass; True if all stages ran."""
        self.attempted += len(stages)
        bad: dict[str, list[str]] = {}
        if result is None:
            bad = {s: [f"worker died or timed out; see {self.work.name}/*.log"] for s in stages}
        else:
            for s in stages:
                if s in result["errors"]:
                    bad[s] = [result["errors"][s].strip().splitlines()[-1]]
                elif s not in result["stage_s"]:
                    bad[s] = ["not run: an earlier stage failed"]
            bad.update(checks.check_outputs(out, [s for s in stages if s not in bad],
                                            self.corpus))
        produced = checks.digests(out, [s for s in stages if s not in bad])
        for name, digest in produced.items():
            if self.reference.setdefault(name, digest) != digest:
                bad.setdefault(checks.STAGE_OF[name], []).append(
                    f"{name} differs from an earlier pass on the same inputs")
        self.failed += len(bad)
        for stage, msgs in sorted(bad.items()):
            self.problems += [f"{label} {stage}: {m}" for m in msgs]
        return result is not None and all(s in result["stage_s"] for s in stages)

    def fresh_out(self, prep_out: Path | None) -> Path:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        if prep_out is not None:
            shutil.copytree(prep_out, out)
        return out

    def prepare(self) -> Path | None:
        if self.workload not in PREP:
            return None
        out = self.work / "prep"
        result = self.spawn("pass", out, PREP[self.workload])
        self.settle("prep", PREP[self.workload], result, out)
        return out

    def keep_going(self, measured_from: float, seconds: float, last: float) -> bool:
        """Whether another pass as long as the ``last`` one would end nearer
        to ``seconds`` of measuring than stopping now, within the run budget."""
        now = time.monotonic()
        return (now - measured_from + last / 2 <= seconds
                and now - self.started + last < RUN_BUDGET_S)

    def save_record(self) -> None:
        if not self.record.exists() and self.failed == 0 and self.reference:
            self.record.parent.mkdir(parents=True, exist_ok=True)
            self.record.write_text(json.dumps(self.reference, indent=1, sort_keys=True),
                                   encoding="utf-8")


def measure(run: Run, seconds: float) -> tuple[dict[str, float], dict[str, int]] | None:
    """End-to-end metrics (medians) and their sample counts."""
    stages = TIMED[run.workload]
    prep_out = run.prepare()
    probes = []
    for i in range(SETUP_PROBES + 1):  # the first probe warms caches and is dropped
        probe = run.spawn("probe", run.work / "probe")
        if probe is not None and i:
            probes.append(probe)
    passes = []
    measured_from = time.monotonic()
    for n in itertools.count(1):
        out = run.fresh_out(prep_out)
        began = time.monotonic()
        result = run.spawn("pass", out, stages)
        if run.settle(f"pass {n}", stages, result, out):
            passes.append(result)
        if not run.keep_going(measured_from, seconds, time.monotonic() - began):
            break
    if not passes or not probes:
        return None
    print("  median stage times: " + ", ".join(
        f"{s} {statistics.median(p['stage_s'][s] for p in passes):.3f} s" for s in stages))
    print(f"  as measured: wall {statistics.median(p['wall_s'] for p in passes):.3f} s, "
          f"set-up {statistics.median(p['setup_s'] for p in probes):.3f} s; yardstick "
          f"{1e3 * statistics.median(p['yardstick_s'] for p in probes + passes):.3f} ms "
          f"(reference {1e3 * REFERENCE_YARDSTICK_S:.3f} ms)")
    metrics = {"wall_s": statistics.median(at_reference_speed(p["wall_s"], p) for p in passes),
               "setup_s": statistics.median(at_reference_speed(p["setup_s"], p) for p in probes),
               "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}
    return metrics, {"wall_s": len(passes), "setup_s": len(probes), "peak_rss_mb": len(passes)}


def measure_traced(run: Run, seconds: float) -> tuple[dict[str, float], dict[str, int]] | None:
    """Per-layer metrics (medians over traced passes) and their sample counts."""
    stages = TIMED[run.workload]
    prep_out = run.prepare()
    samples = []
    measured_from = time.monotonic()
    for n in itertools.count(1):
        began = time.monotonic()
        out = run.fresh_out(prep_out)
        plain = run.spawn("pass", out, stages)
        plain_ok = run.settle(f"plain pass {n}", stages, plain, out)
        out = run.fresh_out(prep_out)
        traced = run.spawn("traced", out, stages)
        if run.settle(f"traced pass {n}", stages, traced, out) and plain_ok:
            layers = traced["layers"]
            layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            samples.append(layers)
            for note in traced["notes"]:
                print(f"  trace note: {note}")
            top = sorted(traced["self_s"].items(), key=lambda kv: -kv[1])[:8]
            print("  largest self times: " + ", ".join(f"{name} {sec:.3f} s" for name, sec in top))
        if not run.keep_going(measured_from, seconds, time.monotonic() - began):
            break
    if not samples:
        return None
    metrics = tracing.median_metrics(samples)
    return metrics, {name: len(samples) for name in metrics}


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    print(f"{workload} (seed {seed}, {'traced' if trace else 'untraced'}):")
    run = Run(workload, seed)
    measured = (measure_traced if trace else measure)(run, seconds)
    run.save_record()
    for problem in run.problems:
        print(f"  FAILED {problem}")
    if measured is None:
        return run, None
    metrics, counts = measured
    units = tracing.UNITS if trace else END_TO_END
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6f} {units[name]:6s} median of {counts[name]}")
    rate = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'error_rate':36s} {rate:14.6f} {'share':6s} "
          f"{run.failed} of {run.attempted} stage runs failed")
    return run, {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "skillscope" / "cli.py").is_file():
        print(f"perfbench: no skillscope sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        run, measured = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        if measured is None:
            print(f"perfbench: {workload}: no pass completed every stage", file=sys.stderr)
            return 1
        attempted += run.attempted
        failed += run.failed
        prefix = f"{workload}." if len(workloads) > 1 else ""
        metrics.update({prefix + name: m for name, m in measured.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
