"""Tests of the benchmark itself: its inputs, its checks and its tracer.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from skillscope import cli  # noqa: E402


def _data_files(corpus_dir: Path) -> dict[str, bytes]:
    """Generated sources; run.json and sources.json hold absolute paths."""
    return {p.name: p.read_bytes() for p in sorted(corpus_dir.iterdir())
            if p.name not in ("run.json", "sources.json")}


def test_generator_is_deterministic_and_seeded(tmp_path):
    for workload in inputs.WORKLOADS:
        a = inputs.generate(workload, 11, tmp_path / workload / "a")
        b = inputs.generate(workload, 11, tmp_path / workload / "b")
        c = inputs.generate(workload, 12, tmp_path / workload / "c")
        first = _data_files(a.config.parent)
        assert first == _data_files(b.config.parent)
        assert first.keys() == _data_files(c.config.parent).keys()
        assert all(first[name] != data for name, data in _data_files(c.config.parent).items())
        assert (a.records, a.duplicates, a.retained) == (b.records, b.duplicates, b.retained)


def test_wide_corpus_spreads_over_every_format_with_distinct_stems(tmp_path):
    corpus = inputs.generate("wide-10k", 3, tmp_path)
    specs = json.loads((tmp_path / "sources.json").read_text(encoding="utf-8"))
    assert sorted(s["format"] for s in specs) == sorted(inputs.WIDE_FORMATS)
    stems = [Path(s["path_or_url"]).stem for s in specs]
    assert len(set(stems)) == len(stems)
    assert corpus.retained == 10_000
    assert corpus.duplicates > len(specs)  # in-source and cross-source duplicates


def _run_stages(config: Path, out: Path, stages) -> None:
    cfg = cli.RunConfig.load(config)
    cfg.output_dir = out
    for stage in stages:
        cli.run_stage(stage, cfg, jobs=2)


def test_corrupted_artifact_is_caught_and_counted(tmp_path):
    bench = run.Run("demo-2k", 4, root=tmp_path / "work")
    stages = ("ingest", "cleanse", "extract")
    out = tmp_path / "out"
    _run_stages(bench.corpus.config, out, stages)
    ran = {"stage_s": {s: 0.0 for s in stages}, "errors": {}}
    assert bench.settle("clean", stages, ran, out)
    assert (bench.attempted, bench.failed) == (3, 0)

    postings = out / "postings.ndjson"
    lines = postings.read_text(encoding="utf-8").splitlines(keepends=True)
    postings.write_text("".join(lines[1:]), encoding="utf-8")
    bench.settle("corrupt", stages, ran, out)
    assert (bench.attempted, bench.failed) == (6, 1)
    assert any("cleanse" in p and "postings.ndjson" in p for p in bench.problems)


def test_reference_digests_are_kept_per_package_version(tmp_path):
    stages = ("ingest",)

    def one_run(src: Path, reformat: bool) -> run.Run:
        bench = run.Run("demo-2k", 4, root=tmp_path / "work", src=src)
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        _run_stages(bench.corpus.config, out, stages)
        if reformat:  # same values, other bytes, as another algorithm might write
            report = out / "ingest_report.json"
            report.write_text(report.read_text(encoding="utf-8") + "\n", encoding="utf-8")
        bench.settle("pass", stages, {"stage_s": {"ingest": 0.0}, "errors": {}}, out)
        bench.save_record()
        return bench

    assert one_run(ROOT / "src", reformat=False).failed == 0
    assert one_run(ROOT / "src", reformat=True).failed == 1  # same code, other bytes
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "skillscope", changed / "skillscope",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(changed / "skillscope" / "cli.py", "a", encoding="utf-8") as fh:
        fh.write("\n# another version of the package\n")
    assert one_run(changed, reformat=True).failed == 0


def test_check_flags_a_broken_correlation_matrix(tmp_path):
    corpus = inputs.Corpus(config=tmp_path, records=0, duplicates=0, retained=0)
    matrix = tmp_path / "correlation.csv"
    matrix.write_text("category,a,b\na,1.0,0.5\nb,0.4,1.0\n", encoding="utf-8")
    failures = checks.check_outputs(tmp_path, ["correlate"], corpus)
    assert failures["correlate"] == ["correlation matrix not symmetric at (1, 0)"]
    # a diagonal off 1 by rounding alone, as np.corrcoef gives it, passes
    matrix.write_text("category,a,b\na,0.9999999999999998,0.5\nb,0.5,1.0000000000000002\n",
                      encoding="utf-8")
    assert checks.check_outputs(tmp_path, ["correlate"], corpus) == {}


def test_tracer_leaves_outputs_unchanged_and_restores_originals(tmp_path):
    rows = inputs.demo_rows(400, 5)
    spec = inputs._write_source(tmp_path / "postings.csv", "csv", rows)
    config = inputs._write_config(tmp_path, [spec], 5, {"lda": {"K": 4, "iterations": 3}})
    stages = tracing.STAGES

    _run_stages(config, tmp_path / "plain", stages)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    originals = [(owner, attr, original) for owner, attr, original in tracer._saved]
    try:
        assert all(vars(owner)[attr] is not original for owner, attr, original in originals)
        _run_stages(config, tmp_path / "traced", stages)
    finally:
        tracer.restore()

    assert all(vars(owner)[attr] is original for owner, attr, original in originals)
    assert tracer.notes == []
    assert (checks.digests(tmp_path / "plain", stages)
            == checks.digests(tmp_path / "traced", stages))
    layers = tracer.metrics()
    assert set(layers) | {"trace.overhead_s"} == set(tracing.UNITS)
    assert layers["embed.texts_per_posting"] == 2.0  # framing and topics both embed
    assert layers["language.detect.calls"] > 0
    assert layers["topics.lda.tokens"] > 0
    assert layers["topics.density.peak_mb"] > 0
    assert all(layers[f"cli.{s}.s"] > 0 for s in stages)


def test_yardstick_samples_inside_the_window_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    ruler = worker.Yardstick()
    with ruler:
        end = time.perf_counter() + 3 * worker.YARDSTICK_EVERY_S
        while time.perf_counter() < end:  # pure Python, so the handler runs
            pass
    assert len(ruler.samples) >= worker.YARDSTICK_AROUND + 2
    assert ruler.inside_s > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    signal.signal(signal.SIGALRM, before)
    # a host twice as slow as the reference halves the reported time
    slow = {"yardstick_s": 2 * run.REFERENCE_YARDSTICK_S}
    assert run.at_reference_speed(10.0, slow) == 5.0


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} <= set(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.METRICS
