"""One benchmark pass in a fresh interpreter, as a user's invocation would be.

Usage: python3 worker.py JOB.json SPAWN_TIME

JOB.json names the package sources, the run config, the output directory,
the stages to run and the mode: ``probe`` stops where the first stage call
would start, ``pass`` runs the stages, ``traced`` runs them under the
tracer. SPAWN_TIME is the parent's ``time.monotonic()`` just before it
started this process; the clock is system-wide, so set-up time is measured
from process spawn to the first stage call. The result goes to the job's
``result`` path as JSON, with the mean time of the yardstick (below) taken
in the same process and window, so that the parent can scale the times to a
fixed host speed.
"""

import json
import random
import re
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

YARDSTICK_EVERY_S = 0.2  # how often a pass interrupts its stages to time the yardstick
YARDSTICK_AROUND = 10    # yardstick samples taken outside the timed window, per process
_TEXT = "the data engineer builds python and sql pipelines for routine reports " * 6
_WORD = re.compile(r"[a-z]+")


def yardstick() -> int:
    """A fixed piece of pure-Python work, about 2 ms, of the kinds the
    pipeline spends its time on: weighted draws as in Gibbs sampling,
    integer arithmetic over a list, a regex scan. It calls nothing in
    skillscope, so its time moves with the host's speed only."""
    rng = random.Random(7)
    weights = [1.0] * 8
    for _ in range(900):
        u = rng.random() * sum(weights)
        k = 0
        while k < 7 and u > weights[k]:
            u -= weights[k]
            k += 1
        weights[k] += 1.0
    table = list(range(64))
    acc = 0
    for i in range(13_000):
        acc += table[i & 63] * (i % 7)
    return acc + len(_WORD.findall(_TEXT))


class Yardstick:
    """Times ``yardstick`` YARDSTICK_AROUND times around a window and, inside
    it, every YARDSTICK_EVERY_S seconds from a SIGALRM handler in the main
    thread: the samples share the window and the CPU of the stages they
    interleave with. ``inside_s`` is the time the window spent on them."""

    def __init__(self):
        self.samples: list[float] = []
        self.inside_s = 0.0

    def sample(self) -> float:
        began = time.perf_counter()
        yardstick()
        took = time.perf_counter() - began
        self.samples.append(took)
        return took

    def _tick(self, *_) -> None:
        self.inside_s += self.sample()

    def __enter__(self) -> "Yardstick":
        for _ in range(YARDSTICK_AROUND // 2):
            self.sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, YARDSTICK_EVERY_S, YARDSTICK_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(YARDSTICK_AROUND - YARDSTICK_AROUND // 2):
            self.sample()

    def mean_s(self) -> float:
        return statistics.fmean(self.samples)


def main(job_path: str, spawned: float) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    from skillscope import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        print(f"imported {cli.__file__}, not the package under {job['src']}", file=sys.stderr)
        return 2
    cfg = cli.RunConfig.load(job["config"])
    cfg.output_dir = Path(job["out"])
    tracer = None
    if job["mode"] == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    result = {"setup_s": time.monotonic() - spawned, "stage_s": {}, "errors": {}}
    ruler = Yardstick()
    if job["mode"] == "probe":
        for _ in range(YARDSTICK_AROUND):
            ruler.sample()
    else:
        with ruler:
            first = time.perf_counter()
            try:
                for name in job["stages"]:
                    started = time.perf_counter()
                    try:
                        cli.run_stage(name, cfg, jobs=2)
                    except Exception:  # a failing stage is a measured outcome
                        result["errors"][name] = traceback.format_exc(limit=3)
                        break
                    result["stage_s"][name] = time.perf_counter() - started
            finally:
                result["wall_s"] = time.perf_counter() - first - ruler.inside_s
                if tracer is not None:
                    tracer.restore()
        if tracer is not None:
            tracer.write(Path(job["spans"]))
            result["layers"] = tracer.metrics()
            result["self_s"] = tracer.self_times()
            result["notes"] = tracer.notes
    result["yardstick_s"] = ruler.mean_s()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
