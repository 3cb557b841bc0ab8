import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillscope import cli, taxonomy, trends
from skillscope.cli import (
    CONFIG_FIELDS,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_MISSING_UPSTREAM,
    EXIT_OK,
    MODEL_FIELDS,
    PIPELINE,
    RunConfig,
    atomic_write,
    count_rows,
    derive_seed,
    load_postings,
    main,
    ndjson_lines,
    read_ndjson,
    run_stage,
    write_part,
)
from skillscope.embed import HashedProvider
from skillscope.errors import DataError
from skillscope.fixtures import write_demo_corpus
from skillscope.taxonomy import CompiledMatcher, default_path, load_anchors, load_sectors
from skillscope.text import tokenize
from skillscope.trends import sector_totals

from .helpers import assert_no_children, write_three_sources

README = Path(__file__).resolve().parents[1] / "README.md"
# a tie between IT and Finance, which the lexicon's priority breaks, and a
# posting that no sector trigger matches
EXTRA_POSTINGS = [
    {"id": "extra:tie", "date": "2021-05-01", "year": 2021,
     "description": "developer needed for audit work"},
    {"id": "extra:none", "date": "2022-05-01", "year": 2022,
     "description": "a generic posting about an unnamed role in town"},
]


# values json.dumps writes: text of any code point but a surrogate, integers,
# floats (NaN and the infinities too), bools, null, and lists and objects of them
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12)


def sectors_of(postings, lexicon=None) -> list:
    """The sector of each posting under the sector lexicon at ``lexicon``."""
    return sector_totals(postings, CompiledMatcher(load_sectors(lexicon)),
                         [tokenize(p.description) for p in postings])


def cut_inside_a_record(data: bytes) -> tuple[bytes, str]:
    """As a full disk leaves a file: cut a few bytes before a line's end."""
    cut = data.index(b"\n", len(data) // 2) - 5
    line = data[:cut].count(b"\n") + 1
    return data[:cut], f" line {line}: "


def word_in_the_last_column(data: bytes) -> tuple[bytes, str]:
    lines = data.split(b"\n")
    lines[2] = lines[2].rsplit(b",", 1)[0] + b",abc"
    return b"\n".join(lines), " line 3: "


def without_the_last_column(data: bytes) -> tuple[bytes, str]:
    lines = data.split(b"\n")
    return (b"\n".join(line.rsplit(b",", 1)[0] for line in lines),
            f" line 1: no column {lines[0].rsplit(b',', 1)[1].decode()!r}")


def rate_out_of_range(data: bytes) -> tuple[bytes, str]:
    lines = data.split(b"\n")
    category = lines[0].split(b",")[2].decode()
    year, postings, _, *rest = lines[1].split(b",")
    lines[1] = b",".join([year, postings, b"1500.0", *rest])
    return (b"\n".join(lines),
            f": series ({category!r},): rate 1500.0 at {year.decode()} out of [0,1000]")


def blank_line_6(data: bytes) -> tuple[bytes, str]:
    """A blank line inserted as line 6: the pipeline writes none."""
    lines = data.splitlines(keepends=True)
    return b"".join([*lines[:5], b"\n", *lines[5:]]), " line 6: a blank line"


# each way to damage an artifact, and what the message then says after its path
DAMAGE = {"cut": cut_inside_a_record, "word": word_in_the_last_column,
          "blank": blank_line_6,
          "header-only": lambda data: (data[:data.index(b"\n") + 1], ": no data rows"),
          "no-column": without_the_last_column, "rate-1500": rate_out_of_range,
          # the rates of a corpus that spans two years
          "two-years": lambda data: (b"".join(data.splitlines(keepends=True)[:3]),
                                     ": need at least 3 shared time points")}
# (stage, artifact it reads, damage)
CORRUPT_ARTIFACTS = [
    *((stage, name, "cut") for stage, name in [
        ("cleanse", "raw_records.ndjson"), ("extract", "postings.ndjson"),
        ("framing", "skill_flags.ndjson"), ("sectors", "skill_flags.ndjson"),
        ("sectors", "postings.ndjson"), ("report", "cleanse_report.json"),
        ("report", "density_topics.json"), ("report", "lda_topics.json"),
        ("report", "run_manifest.json"), ("forecast", "skill_rates.csv"),
        ("correlate", "skill_rates.csv"), ("report", "skill_rates.csv"),
        ("report", "framing_by_year.csv"), ("report", "forecast.csv"),
        ("report", "correlation.csv")]),
    *((stage, name, "word") for stage, name in [
        ("forecast", "skill_rates.csv"), ("correlate", "skill_rates.csv"),
        ("report", "framing_by_year.csv"), ("report", "forecast.csv"),
        ("report", "correlation.csv"), ("report", "skill_rates.csv")]),
    ("forecast", "skill_rates.csv", "header-only"),
    ("correlate", "skill_rates.csv", "header-only"),
    ("forecast", "skill_rates.csv", "no-column"), ("correlate", "skill_rates.csv", "no-column"),
    ("report", "skill_rates.csv", "no-column"), ("report", "forecast.csv", "no-column"),
    ("forecast", "skill_rates.csv", "rate-1500"), ("correlate", "skill_rates.csv", "rate-1500"),
    ("report", "skill_rates.csv", "rate-1500"),
    ("correlate", "skill_rates.csv", "two-years"),
    # framing and sectors pair postings.ndjson with skill_flags.ndjson by line
    *((stage, "postings.ndjson", "blank") for stage in ("extract", "framing", "sectors",
                                                        "topics")),
]


def results_dir(demo_dir: Path) -> Path:
    return demo_dir / "results"


def strict_json(path: Path):
    """The JSON value in ``path`` as RFC 8259 reads it: NaN and Infinity raise."""
    def reject(constant):
        raise ValueError(f"{path}: {constant} is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


def copy_artifacts(src: Path, dst: Path, names) -> None:
    dst.mkdir(parents=True, exist_ok=True)
    for name in names:
        shutil.copyfile(src / name, dst / name)


class TestSmoke:
    def test_all_artifacts_present(self, demo_dir):
        out = results_dir(demo_dir)
        for stage in PIPELINE.values():
            for name in stage.outputs:
                assert (out / name).exists(), name
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert set(manifest["stages"]) == set(PIPELINE)

    def test_manifest_records_each_stage_s_peak_memory(self, demo_dir):
        stages = json.loads((results_dir(demo_dir) / "run_manifest.json").read_text())["stages"]
        for entry in stages.values():
            assert entry["peak_rss_mb"] > 0
            assert entry["workers_peak_rss_mb"] >= 0
        # high-water marks over the run: they never fall from stage to stage
        peaks = [stages[name]["peak_rss_mb"] for name in PIPELINE]
        assert peaks == sorted(peaks)

    def test_manifest_counts_only_what_no_artifact_holds(self, demo_dir):
        stages = json.loads((results_dir(demo_dir) / "run_manifest.json").read_text())["stages"]
        assert {name: sorted(entry["counts"]) for name, entry in stages.items()} == {
            "ingest": ["duplicates_removed", "records"], "cleanse": [], "extract": [],
            "framing": [], "topics": ["density", "fit_s", "kmeans", "vocab"],
            "forecast": ["fits"], "correlate": [], "sectors": [], "report": []}

    def test_manifest_peak_is_the_stage_process_s_own(self, demo_dir, tmp_path):
        # on Linux, ru_maxrss keeps the peak of the process that started this
        # one across exec: here a launcher that holds 200 MB
        copy_artifacts(results_dir(demo_dir), tmp_path, PIPELINE["correlate"].inputs)
        ballast = b"\x01" * (200 << 20)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "skillscope.cli", "correlate",
                               "--config", str(demo_dir / "run.json"), "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        del ballast
        assert done.returncode == EXIT_OK, done.stderr
        entry = json.loads((tmp_path / "run_manifest.json").read_text())["stages"]["correlate"]
        assert 0 < entry["peak_rss_mb"] < 100

    def test_manifest_lists_each_forecast_fit(self, demo_dir):
        out = results_dir(demo_dir)
        fits = json.loads((out / "run_manifest.json").read_text()
                          )["stages"]["forecast"]["counts"]["fits"]
        series = cli.rate_series_from_csv(out)
        # each spec's ARIMA order and smoothing alpha
        specs = {"smoothed_arima(1,1,1)": (cli.ArimaSpec(1, 1, 1), 0.5),
                 "arima(2,0,2)": (cli.ArimaSpec(2, 0, 2), None)}
        assert [(f["category"], f["spec"]) for f in fits] == \
            [(cat, spec) for cat in cli.SKILL_CATEGORIES for spec in specs]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the fits' own warnings
            for entry in fits:
                order, alpha = specs[entry["spec"]]
                fc = trends.forecast_series(series[entry["category"]], order,
                                            smoothing_alpha=alpha)
                assert entry == {"category": entry["category"], "spec": entry["spec"],
                                 "converged": fc.model.converged,
                                 "stationary": fc.model.stationary,
                                 "short_series": fc.short_series,
                                 "iterations": fc.model.iterations}
        assert {f["converged"] for f in fits} == {True, False}
        assert all(f["iterations"] > 0 for f in fits)

    @pytest.mark.parametrize("stages, unloaded", [
        ((), ("scipy",)),
        (("ingest", "cleanse", "extract", "framing", "sectors"), ("scipy",)),
        (("forecast",), ("scipy",)),
        (("correlate", "report"), ("scipy",)),
        # LDA and the density model load scipy.sparse, scipy.special,
        # scipy.spatial and scipy.sparse.csgraph
        (("topics",), ("scipy.optimize",)),
    ], ids=["import", "ingest-to-sectors", "forecast", "correlate-and-report", "topics"])
    def test_stages_leave_the_scipy_modules_they_do_not_use_unloaded(
            self, demo_dir, tmp_path, stages, unloaded):
        inputs = {name for stage in stages for name in PIPELINE[stage].inputs}
        copy_artifacts(results_dir(demo_dir), tmp_path, inputs - {
            name for stage in stages for name in PIPELINE[stage].outputs})
        # a name counts as loaded if it or any of its submodules is
        code = ("import sys; from skillscope.cli import main; "
                "print(*[main([stage, '--config', sys.argv[1], '--out', sys.argv[2]]) "
                "for stage in sys.argv[4:]], *[any(m == name or m.startswith(name + '.') "
                "for m in sys.modules) for name in sys.argv[3].split(',')])")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code, str(demo_dir / "run.json"),
                               str(tmp_path), ",".join(unloaded), *stages], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.split() == ["0"] * len(stages) + ["False"] * len(unloaded), \
            done.stderr
        for name in {name for stage in stages for name in PIPELINE[stage].outputs}:
            assert (tmp_path / name).read_bytes() == \
                (results_dir(demo_dir) / name).read_bytes(), name

    def test_exit_zero_via_main(self, demo_dir):
        assert main(["extract", "--config", str(demo_dir / "run.json")]) == EXIT_OK

    def test_lda_diagnostics_written(self, demo_dir):
        lda = json.loads((results_dir(demo_dir) / "lda_topics.json").read_text())
        assert lda["iterations"] == 150
        # sweeps 0, 10, ..., 140 and the last one, 149
        assert len(lda["log_likelihood_trace"]) == 16
        assert lda["log_likelihood_trace"][-1] > lda["log_likelihood_trace"][0]

    def test_manifest_records_the_cluster_models_diagnostics(self, demo_dir):
        out = results_dir(demo_dir)
        counts = json.loads((out / "run_manifest.json").read_text()
                            )["stages"]["topics"]["counts"]
        kmeans, density = counts["kmeans"], counts["density"]
        trace = kmeans["wcss_trace"]
        assert len(trace) == kmeans["iterations_run"] > 1
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        # the values of a fit made here on the same embeddings and seeds
        cfg = RunConfig.load(demo_dir / "run.json")
        postings = load_postings(out)
        emb = cli.embed_postings(cli.embedding_provider(cfg), postings)
        km = cli.kmeans_fit(emb, cfg.kmeans["K"], seed=derive_seed(cfg.seed, "topics.kmeans"))
        assert (kmeans["iterations_run"], trace) == (km.iterations_run, km.wcss_trace)
        dm = cli.density_topics(
            emb, min_cluster_size=cli.scaled_min_cluster_size(len(postings)),
            k_reduced=cfg.density["k_reduced"], seed=derive_seed(cfg.seed, "topics.density"))
        assert density == {"eps": dm.eps}

    def test_summary_lists_ten_tables(self, demo_dir):
        summary = json.loads((results_dir(demo_dir) / "summary.json").read_text())
        assert len(summary["tables"]) == 10
        for meta in summary["tables"].values():
            assert meta["rows"] >= 0

    def test_summary_lists_the_three_topic_files_with_the_manifest_s_rows(self, demo_dir):
        out = results_dir(demo_dir)
        tables = json.loads((out / "summary.json").read_text())["tables"]
        outputs = json.loads((out / "run_manifest.json").read_text()
                             )["stages"]["topics"]["outputs"]
        md = (out / "summary.md").read_text()
        for name in ("lda_topics.json", "kmeans_clusters.json", "density_topics.json"):
            assert tables[name] == {"path": name, **outputs[name]}, name
            assert f"- `{name}`: {outputs[name]['rows']} rows\n" in md, name

    def test_summary_counts_topics_not_lines(self, demo_dir):
        out = results_dir(demo_dir)
        tables = json.loads((out / "summary.json").read_text())["tables"]
        lda = json.loads((out / "lda_topics.json").read_text())
        density = json.loads((out / "density_topics.json").read_text())
        assert tables["lda_topics.json"]["rows"] == lda["K"] == 6
        assert tables["density_topics.json"]["rows"] == len(density["topics"])
        assert f"`lda_topics.json`: {lda['K']} rows" in (out / "summary.md").read_text()
        manifest = json.loads((out / "run_manifest.json").read_text())["stages"]
        assert manifest["topics"]["outputs"]["kmeans_clusters.json"]["rows"] == 6

    def test_the_four_topic_files_agree(self, demo_dir):
        out = results_dir(demo_dir)
        postings = len(load_postings(out))
        lda, kmeans, density = (json.loads((out / name).read_text()) for name in (
            "lda_topics.json", "kmeans_clusters.json", "density_topics.json"))
        assert sum(topic["size"] for topic in lda["topics"].values()) == postings
        assert sum(cluster["size"] for cluster in kmeans["clusters"].values()) == postings
        sizes = {int(t): topic["size"] for t, topic in density["topics"].items()}
        assert sum(sizes.values()) + density["noise_count"] == postings
        assert density["all_noise"] == (not sizes)
        with open(out / "topic_over_time.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        counts, weights = Counter(), Counter()
        for row in rows:
            counts[int(row["topic_id"])] += int(row["count"])
            weights[int(row["year"])] += float(row["weight"])
        assert dict(counts) == sizes
        assert all(total == pytest.approx(1.0, abs=1e-12) for total in weights.values())

    def test_json_row_count_ignores_layout(self, demo_dir, tmp_path):
        for name in ("lda_topics.json", "kmeans_clusters.json", "density_topics.json",
                     "ingest_report.json", "cleanse_report.json", "summary.json"):
            original = results_dir(demo_dir) / name
            moved = tmp_path / name
            doc = json.loads(original.read_text())
            moved.write_text(json.dumps({**doc, "note": "one more scalar field"}, indent=5))
            assert count_rows(moved) == count_rows(original), name

    def test_summary_retention_matches_cleanse_report(self, demo_dir):
        out = results_dir(demo_dir)
        summary = json.loads((out / "summary.json").read_text())
        report = json.loads((out / "cleanse_report.json").read_text())
        assert summary["headline"]["retained_postings"] == report["retained"]

    def test_summary_correlation_extremes_match_csv(self, demo_dir):
        out = results_dir(demo_dir)
        summary = json.loads((out / "summary.json").read_text())
        with open(out / "correlation.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        vals = [float(v) for i, r in enumerate(rows)
                for j, v in enumerate(r[1:]) if i != j and v != "undefined"]
        ex = summary["headline"]["correlation_extremes"]
        assert ex["min_off_diagonal"] == pytest.approx(min(vals))
        assert ex["max_off_diagonal"] == pytest.approx(max(vals))

    def test_correlate_on_constant_series_leaves_a_strict_json_manifest(self, demo_dir,
                                                                        tmp_path):
        # every pair is undefined, so there are no extremes to record
        out = tmp_path / "out"
        copy_artifacts(results_dir(demo_dir), out, PIPELINE["correlate"].inputs)
        header, *rows = (out / "skill_rates.csv").read_text().splitlines()
        constant = [",".join(row.split(",")[:2] + ["100.0"] * 5) for row in rows]
        (out / "skill_rates.csv").write_text("\n".join([header, *constant]) + "\n")
        assert main(["correlate", "--config", str(demo_dir / "run.json"),
                     "--out", str(out)]) == EXIT_OK
        assert strict_json(out / "run_manifest.json")["stages"]["correlate"]["counts"] == {}
        with open(out / "correlation.csv", newline="") as fh:
            cells = [(i, j, v) for i, r in enumerate(list(csv.reader(fh))[1:])
                     for j, v in enumerate(r[1:])]
        assert {v for i, j, v in cells if i != j} == {"undefined"}


class TestErrors:
    def test_missing_upstream_names_artifact(self, tmp_path, capsys):
        write_demo_corpus(tmp_path)
        code = main(["topics", "--config", str(tmp_path / "run.json")])
        assert code == EXIT_MISSING_UPSTREAM
        assert "postings.ndjson" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "run.json"
        bad.write_text("{}")  # no sources
        assert main(["all", "--config", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, jobs):
        run = write_demo_corpus(tmp_path)
        assert main(["ingest", "--config", str(run), "--jobs", jobs]) == EXIT_CONFIG
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_unreadable_config(self, tmp_path):
        assert main(["all", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_invalid_granularity(self, tmp_path, capsys):
        run = write_demo_corpus(tmp_path)
        valid = json.loads(run.read_text())
        # no stage reads a month granularity or an unknown key, at the top level or
        # inside a model object (a misspelt one would leave the default in force)
        for field, value in (("granularity", "weekly"), ("granularity", "month"),
                             ("iterations", 10), ("lda", {"K": 6, "iteration": 5}),
                             ("kmeans", {"k": 6}), ("density", {"min_cluster": 5}),
                             ("forecast", {"horizons": 2}), ("lda", [6]),
                             ("embedding", {"kind": "hashed", "dimensions": 256}),
                             ("embedding", {"kind": "file", "path": "v.csv", "seed": 1}),
                             ("embedding", {"kind": "http", "url": "http://localhost",
                                            "dimension": 8, "token": "x"}),
                             ("embedding", {"kind": "remote"})):
            run.write_text(json.dumps({**valid, field: value}))
            assert main(["ingest", "--config", str(run)]) == EXIT_CONFIG, (field, value)
            assert field in capsys.readouterr().err, (field, value)
            assert not (tmp_path / "results" / "raw_records.ndjson").exists()

    @pytest.mark.parametrize("text", ["[]", "5", '"x"', "null"])
    def test_config_not_an_object(self, tmp_path, capsys, text):
        bad = tmp_path / "run.json"
        bad.write_text(text)
        assert main(["ingest", "--config", str(bad)]) == EXIT_CONFIG
        assert "must be a JSON object" in capsys.readouterr().err

    def test_sources_with_the_same_stem_rejected(self, tmp_path, capsys):
        run = write_demo_corpus(tmp_path)
        (spec,) = json.loads((tmp_path / "sources.json").read_text())
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            shutil.copyfile(spec["path_or_url"], tmp_path / sub / "postings.csv")
        (tmp_path / "sources.json").write_text(json.dumps(
            [{**spec, "path_or_url": str(tmp_path / sub / "postings.csv")}
             for sub in ("a", "b")]))
        assert main(["ingest", "--config", str(run)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(tmp_path / "a" / "postings.csv") in err
        assert str(tmp_path / "b" / "postings.csv") in err
        assert not (tmp_path / "results" / "raw_records.ndjson").exists()

    @pytest.mark.parametrize("field, value, code, named", [
        ("lda", {"iterations": 1.5}, EXIT_CONFIG, "iterations"),
        ("kmeans", {"K": 2.7}, EXIT_CONFIG, "K"),
        ("lda", {"K": True}, EXIT_CONFIG, "K"),
        ("seed", 1.9, EXIT_CONFIG, "seed"),
        ("lda", {"K": "six"}, EXIT_CONFIG, "K"),
        ("lda", {"alpha": "x"}, EXIT_CONFIG, "alpha"),
        ("lda", {"beta": float("nan")}, EXIT_CONFIG, "beta"),
        ("forecast", {"horizon": "x"}, EXIT_CONFIG, "horizon"),
        ("lda", {"K": 0}, EXIT_CONFIG, "K"),
        ("forecast", {"horizon": 0}, EXIT_CONFIG, "horizon"),
        ("forecast", {"smoothing_alpha": 1.5}, EXIT_CONFIG, "smoothing_alpha"),
        ("embedding", {"dimension": 0}, EXIT_CONFIG, "dimension"),
        ("embedding", {"dimension": 2.5}, EXIT_CONFIG, "dimension"),
        ("cleanse_config", "{not json", EXIT_CONFIG, "cleanse config"),
        ("cleanse_config", "[]", EXIT_CONFIG, "cleanse config"),
        ("cleanse_config", '{"min_tokens": "x"}', EXIT_CONFIG, "min_tokens"),
        ("cleanse_config", '{"year_range": [2018]}', EXIT_CONFIG, "year_range"),
        ("sources", {"api_page_size": "x"}, EXIT_CONFIG, "api_page_size"),
        ("kmeans", {"K": 500}, EXIT_DATA, "kmeans K 500"),
        ("sources", {"api_date_range": ["2020-01-01", "2020-12-31"]}, EXIT_CONFIG,
         "apply only to format 'api'")])
    def test_bad_value_stops_before_writing(self, tmp_path, capsys, field, value, code,
                                            named):
        run = write_demo_corpus(tmp_path, n=60)
        valid = json.loads(run.read_text())
        if field == "cleanse_config":
            (tmp_path / "cleanse.json").write_text(value)
            value = str(tmp_path / "cleanse.json")
        elif field == "sources":
            (spec,) = json.loads((tmp_path / "sources.json").read_text())
            (tmp_path / "sources.json").write_text(json.dumps([{**spec, **value}]))
            value = valid["sources"]
        elif isinstance(value, dict):
            value = {**valid[field], **value}
        run.write_text(json.dumps({**valid, field: value}))
        assert main(["all", "--config", str(run)]) == code
        assert named in capsys.readouterr().err
        out = tmp_path / "results"
        if code == EXIT_DATA:  # past the data: the stages before topics ran
            assert not any((out / name).exists() for name in PIPELINE["topics"].outputs)
        else:
            assert not out.exists() or not any(out.iterdir())

    def test_bad_source_spec_stops_every_stage(self, tmp_path, capsys):
        run = write_demo_corpus(tmp_path, n=60)
        assert main(["ingest", "--config", str(run)]) == EXIT_OK
        (spec,) = json.loads((tmp_path / "sources.json").read_text())
        (tmp_path / "sources.json").write_text(json.dumps([{**spec, "api_page_size": "x"}]))
        assert main(["cleanse", "--config", str(run)]) == EXIT_CONFIG
        assert "api_page_size" in capsys.readouterr().err
        assert not (tmp_path / "results" / "postings.ndjson").exists()

    def test_api_that_keeps_failing_is_exit_4(self, tmp_path, capsys):
        run = write_demo_corpus(tmp_path, n=60)
        (tmp_path / "jobs_api.json").write_text(json.dumps({"calls": [{"status": 404}] * 3}))
        (tmp_path / "sources.json").write_text(json.dumps([
            {"path_or_url": str(tmp_path / "jobs_api.json"), "format": "api",
             "date_field": "date", "text_field": "description"}]))
        assert main(["ingest", "--config", str(run)]) == EXIT_DATA
        assert "page 3: 3 unusable pages in a row, the last HTTP 404" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"pages": [{"data": []}', "[]", '{"calls": [5]}',
                                      '{"page": []}', "\udcff"])
    def test_malformed_replay_file_is_exit_4(self, tmp_path, capsys, text):
        run = write_demo_corpus(tmp_path, n=60)
        replay = tmp_path / "jobs_api.json"
        replay.write_text(text, errors="surrogateescape")
        (tmp_path / "sources.json").write_text(json.dumps([
            {"path_or_url": str(replay), "format": "api",
             "date_field": "date", "text_field": "description"}]))
        assert main(["ingest", "--config", str(run)]) == EXIT_DATA
        assert f"API replay file {replay}" in capsys.readouterr().err
        assert not (tmp_path / "results" / "raw_records.ndjson").exists()

    @pytest.mark.parametrize("stage, name, damage", CORRUPT_ARTIFACTS, ids=[
        "-".join([stage, name] + ([damage] if damage != "cut" else []))
        for stage, name, damage in CORRUPT_ARTIFACTS])
    def test_corrupt_artifact_is_exit_4_naming_it(self, demo_dir, tmp_path, capsys, stage,
                                                  name, damage):
        out = tmp_path / "out"
        copy_artifacts(results_dir(demo_dir), out, {*PIPELINE[stage].inputs, name})
        data, where = DAMAGE[damage]((out / name).read_bytes())
        (out / name).write_bytes(data)
        code = main([stage, "--config", str(demo_dir / "run.json"), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert (f"{out / name}{where}" if name.endswith((".ndjson", ".csv"))
                else f"cannot read {'run manifest' if name.startswith('run') else 'artifact'} "
                     f"{out / name}: ") in err
        assert not any((out / artifact).exists() for artifact in PIPELINE[stage].outputs)

    @pytest.mark.parametrize("name, text", [
        ("lda_topics.json", "[1, 2]"), ("lda_topics.json", '{"K": 6}'),
        ("density_topics.json", '{"topics": 5}'),
        # density topics that are not objects with an int size
        ("density_topics.json", '{"topics": {"0": 5}}'),
        ("density_topics.json", '{"topics": {"0": {"size": "5"}}}')])
    def test_a_topic_model_of_the_wrong_shape_is_exit_4(self, demo_dir, tmp_path, capsys,
                                                         name, text):
        out = tmp_path / "out"
        copy_artifacts(results_dir(demo_dir), out,
                       {*PIPELINE["report"].inputs, "run_manifest.json"})
        (out / name).write_text(text)
        assert main(["report", "--config", str(demo_dir / "run.json"),
                     "--out", str(out)]) == EXIT_DATA
        assert f"data error: artifact {out / name}: " in capsys.readouterr().err
        assert not any((out / artifact).exists() for artifact in PIPELINE["report"].outputs)

    @pytest.mark.parametrize("name, column, value", [
        ("framing_by_year.csv", "fi", "nan"), ("forecast.csv", "value", "inf"),
        ("correlation.csv", "AI_Data", "nan")])
    def test_a_number_that_is_not_finite_is_exit_4(self, demo_dir, tmp_path, capsys, name,
                                                    column, value):
        # the last row: a forecast's in forecast.csv, a cell off the diagonal in
        # correlation.csv
        out = tmp_path / "out"
        copy_artifacts(results_dir(demo_dir), out,
                       {*PIPELINE["report"].inputs, "run_manifest.json"})
        with open(out / name, newline="") as fh:
            header, *rows = csv.reader(fh)
        rows[-1][header.index(column)] = value
        with open(out / name, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        assert main(["report", "--config", str(demo_dir / "run.json"),
                     "--out", str(out)]) == EXIT_DATA
        assert (f"{out / name} line {len(rows) + 1}: {value!r} is not a finite number"
                in capsys.readouterr().err)
        assert not any((out / artifact).exists() for artifact in PIPELINE["report"].outputs)

    @pytest.mark.parametrize("text, named", [
        ("[]", " must be a JSON object"), ('{"input": 5}', ": retained is required"),
        ('{"input": "x", "retained": null, "rejected": 3}', ": input must be int >= 0"),
        ('{"input": 5, "retained": -1, "rejected": {}}', ": retained must be int >= 0"),
        ('{"input": 5, "retained": 5, "rejected": {"bad_date": 0}}',
         ": rejected: non_english is required"),
        ('{"input": 5, "retained": 5, "rejected": {"bad_date": 0, "non_english": 0, '
         '"out_of_range": 0, "too_short": 0.5}}', ": rejected: too_short must be int >= 0")])
    def test_a_cleanse_report_of_the_wrong_shape_is_exit_4(self, demo_dir, tmp_path, capsys,
                                                           text, named):
        out = tmp_path / "out"
        copy_artifacts(results_dir(demo_dir), out,
                       {*PIPELINE["report"].inputs, "run_manifest.json"})
        (out / "cleanse_report.json").write_text(text)
        assert main(["report", "--config", str(demo_dir / "run.json"),
                     "--out", str(out)]) == EXIT_DATA
        assert (f"data error: artifact {out / 'cleanse_report.json'}{named}"
                in capsys.readouterr().err)
        assert not any((out / artifact).exists() for artifact in PIPELINE["report"].outputs)

    def test_a_year_missing_from_the_rates_is_exit_4_in_forecast(self, tmp_path, capsys):
        run = write_demo_corpus(tmp_path, n=400)
        with open(tmp_path / "postings.csv", newline="") as fh:
            rows = [row for row in csv.reader(fh) if not row[0].startswith("2020")]
        with open(tmp_path / "postings.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        for stage in ("ingest", "cleanse", "extract"):
            assert main([stage, "--config", str(run)]) == EXIT_OK
        out = tmp_path / "results"
        assert main(["forecast", "--config", str(run)]) == EXIT_DATA
        assert (f"data error: {out / 'skill_rates.csv'}: series ('AI_Data',): "
                "years 2019 and 2021 are not consecutive") in capsys.readouterr().err
        assert not (out / "forecast.csv").exists()
        # correlate pairs the series' points by year, so a gap is no fault there
        assert main(["correlate", "--config", str(run)]) == EXIT_OK

    @pytest.mark.parametrize("text", [
        "[]", "{}", '{"stages": []}', '{"stages": {"extract": 1}}',
        '{"stages": {"extract": {"outputs": {"skill_rates.csv": {"rows": "9"}}}}}'])
    def test_a_run_manifest_of_the_wrong_shape_is_exit_4(self, demo_dir, tmp_path, capsys,
                                                          text):
        out = tmp_path / "out"
        copy_artifacts(results_dir(demo_dir), out, PIPELINE["forecast"].inputs)
        (out / "run_manifest.json").write_text(text)
        assert main(["forecast", "--config", str(demo_dir / "run.json"),
                     "--out", str(out)]) == EXIT_DATA
        assert (f"data error: run manifest {out / 'run_manifest.json'}: "
                in capsys.readouterr().err)
        assert not (out / "forecast.csv").exists()

    def test_a_table_cut_at_a_line_end_is_exit_4(self, demo_dir, tmp_path, capsys):
        # every line it keeps parses, so only the manifest's row count shows the cut
        out = tmp_path / "out"
        copy_artifacts(results_dir(demo_dir), out,
                       {*PIPELINE["report"].inputs, "run_manifest.json"})
        lines = (out / "forecast.csv").read_bytes().splitlines(keepends=True)
        (out / "forecast.csv").write_bytes(b"".join(lines[:len(lines) // 2]))
        assert main(["report", "--config", str(demo_dir / "run.json"),
                     "--out", str(out)]) == EXIT_DATA
        assert (f"{out / 'forecast.csv'} has {len(lines) // 2 - 1} rows; "
                f"the manifest recorded {len(lines) - 1}") in capsys.readouterr().err
        assert not any((out / artifact).exists() for artifact in PIPELINE["report"].outputs)

    @pytest.mark.parametrize("stage", [name for name, stage in PIPELINE.items()
                                       if "postings.ndjson" in stage.inputs])
    def test_an_input_cut_at_a_line_end_is_exit_4_before_the_stage_runs(
            self, demo_dir, tmp_path, capsys, monkeypatch, stage):
        out = tmp_path / "out"
        copy_artifacts(results_dir(demo_dir), out,
                       {*PIPELINE[stage].inputs, "run_manifest.json"})
        lines = (out / "postings.ndjson").read_bytes().splitlines(keepends=True)
        (out / "postings.ndjson").write_bytes(b"".join(lines[:len(lines) // 2]))
        monkeypatch.setitem(PIPELINE, stage, replace(PIPELINE[stage], run=None))  # not reached
        assert main([stage, "--config", str(demo_dir / "run.json"),
                     "--out", str(out)]) == EXIT_DATA
        assert (f"{out / 'postings.ndjson'} has {len(lines) // 2} rows; "
                f"the manifest recorded {len(lines)}") in capsys.readouterr().err
        assert not any((out / artifact).exists() for artifact in PIPELINE[stage].outputs)

    def test_missing_embedding_file_stops_before_writing(self, tmp_path, capsys):
        run = write_demo_corpus(tmp_path, n=60)
        run.write_text(json.dumps({**json.loads(run.read_text()),
                                   "embedding": {"kind": "file", "path": "vectors.csv"}}))
        assert main(["all", "--config", str(run)]) == EXIT_CONFIG
        assert (f"'embedding.path': file not found: {tmp_path / 'vectors.csv'}"
                in capsys.readouterr().err)
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("field, make, message", [
        ("embedding.path", lambda path: path.mkdir(), "not a file"),
        ("embedding.path", lambda path: path.write_bytes(b"id,2\nx,0.5,\xff\n"),
         "cannot read config field 'embedding.path'"),
        ("taxonomy", lambda path: path.mkdir(), "not a file"),
    ], ids=["embedding-dir", "embedding-not-utf8", "taxonomy-dir"])
    def test_file_field_that_is_no_utf8_file_stops_before_writing(self, tmp_path, capsys,
                                                                  field, make, message):
        run = write_demo_corpus(tmp_path, n=60)
        make(tmp_path / "given")
        value = ({"embedding": {"kind": "file", "path": "given"}} if field == "embedding.path"
                 else {field: "given"})
        run.write_text(json.dumps({**json.loads(run.read_text()), **value}))
        assert main(["all", "--config", str(run)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{field!r}" in err and message in err and str(tmp_path / "given") in err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("stage, name, field", [
        ("cleanse", "raw_records.ndjson", "raw_text"),
        ("extract", "postings.ndjson", "description"),
        ("sectors", "skill_flags.ndjson", "posting_id"),
        ("framing", "skill_flags.ndjson", "AI_Data"),
        ("topics", "postings.ndjson", None),  # a value that is not an object
        # (field, value it is given, what the message says of it)
        ("extract", "postings.ndjson", ("date", "2020-13-45",
                                        "date '2020-13-45' is not an ISO date")),
        ("sectors", "postings.ndjson", ("year", "2020", "year '2020' is not the year of date")),
        ("framing", "postings.ndjson", ("year", 1999, "year 1999 is not the year of date")),
        ("topics", "postings.ndjson", ("description", None,
                                       "description is NoneType, not a string")),
        ("cleanse", "raw_records.ndjson", ("raw_text", None,
                                           "raw_text is NoneType, not a string")),
        ("cleanse", "raw_records.ndjson", ("source_id", 7, "source_id is int, not a string")),
        ("sectors", "skill_flags.ndjson", ("AI_Data", "no", "AI_Data is str, not a bool")),
        ("framing", "skill_flags.ndjson", ("Leadership", 0, "Leadership is int, not a bool")),
        ("framing", "skill_flags.ndjson", ("sector", 5, "sector is int, not a string or null")),
        ("sectors", "skill_flags.ndjson", ("sector", 5, "sector is int, not a string or null")),
        ("extract", "postings.ndjson", ("id", ["x"], "id is list, not a string")),
        ("topics", "postings.ndjson", ("id", 5, "id is int, not a string")),
        ("sectors", "skill_flags.ndjson", ("posting_id", 5, "posting_id is int, not a string")),
    ], ids=lambda v: f"{v[0]}={v[1]}" if isinstance(v, tuple) else None)
    def test_ndjson_row_without_a_field_is_exit_4_naming_it(self, demo_dir, tmp_path, capsys,
                                                            stage, name, field):
        out = tmp_path / "out"
        copy_artifacts(results_dir(demo_dir), out, PIPELINE[stage].inputs)
        lines = (out / name).read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[2])
        if isinstance(field, tuple):
            row[field[0]] = field[1]
        elif field:
            del row[field]
        lines[2] = json.dumps(row if field else list(row)) + "\n"
        (out / name).write_text("".join(lines), encoding="utf-8")
        code = main([stage, "--config", str(demo_dir / "run.json"), "--out", str(out)])
        assert code == EXIT_DATA
        message = (field[2] if isinstance(field, tuple) else
                   f"missing field {field!r}" if field else "not a JSON object")
        assert f"{out / name} line 3: {message}" in capsys.readouterr().err
        assert not any((out / artifact).exists() for artifact in PIPELINE[stage].outputs)

    @pytest.mark.parametrize("name, group, entry", [
        ("taxonomy", ("categories", "AI_Data"), {"surface": "m word", "variants": "ml"}),
        ("taxonomy", ("categories", "AI_Data"), {"surface": "m word", "variant": ["foo bar"]}),
        ("taxonomy", ("categories", "AI_Data"), {"surface": "m word", "variants": [5]}),
        ("taxonomy", ("categories", "AI_Data"), {"surface": "!!!"}),
        ("taxonomy", ("categories", "AI_Data"), {"surface": "m word", "extended": "yes"}),
        ("anchors", ("ai_anchors",), {"phrase": "x y", "extnded": True, "foo": 1}),
        ("anchors", ("ai_anchors",), "&&"),
        ("anchors", ("ai_anchors",), {"phrase": "x y", "extended": 1}),
        ("sectors", ("sectors", "IT"), "lawyer"),  # also a Legal trigger
        ("anchors", ("ai_anchors",), 5),
        ("sectors", ("sectors", "IT"), 5)])
    def test_bad_lexicon_is_invalid_and_stops_before_writing(self, tmp_path, capsys,
                                                             name, group, entry):
        doc = json.loads(default_path(name).read_text(encoding="utf-8"))
        entries = doc
        for key in group:
            entries = entries[key]
        entries.append(entry)
        lexicon = tmp_path / "lexicon" / f"{name}.json"
        lexicon.parent.mkdir()
        lexicon.write_text(json.dumps(doc))
        assert main(["validate", f"--{name}", str(lexicon)]) == EXIT_CONFIG
        out = capsys.readouterr().out
        assert f"{name}: INVALID" in out
        if entry == 5:
            assert "must be a phrase string or a JSON object, got 5" in out
        run = write_demo_corpus(tmp_path, n=60)
        run.write_text(json.dumps({**json.loads(run.read_text()), name: str(lexicon)}))
        assert main(["all", "--config", str(run)]) == EXIT_CONFIG
        assert str(lexicon) in capsys.readouterr().err
        out = tmp_path / "results"
        assert not out.exists() or not any(out.iterdir())

    def test_unexpected_exception_is_exit_5_on_one_line(self, tmp_path, capsys,
                                                        monkeypatch):
        run = write_demo_corpus(tmp_path, n=60)
        monkeypatch.setattr(cli, "load_manifest", lambda path: 1 / 0)
        assert main(["ingest", "--config", str(run)]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "ZeroDivisionError" in err

    def test_keyboard_interrupt_is_not_caught(self, tmp_path, monkeypatch):
        run = write_demo_corpus(tmp_path, n=60)

        def interrupt(path):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "load_manifest", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["ingest", "--config", str(run)])


class TestDensityBounds:
    @pytest.mark.parametrize("density", [
        {"min_cluster_size": 0}, {"min_cluster_size": -2}, {"min_cluster_size": 2.5},
        {"min_cluster_size": "5"}, {"min_cluster_size": True}, {"min_cluster_size": None},
        {"k_reduced": 0}, {"k_reduced": 8.0}])
    def test_value_not_a_positive_int_rejected_at_load(self, tmp_path, capsys, density):
        run = write_demo_corpus(tmp_path)
        run.write_text(json.dumps({**json.loads(run.read_text()), "density": density}))
        assert main(["ingest", "--config", str(run)]) == EXIT_CONFIG
        assert next(iter(density)) in capsys.readouterr().err
        assert not (tmp_path / "results" / "raw_records.ndjson").exists()

    @pytest.mark.parametrize("change, key", [
        ({"density": {"min_cluster_size": 500}}, "min_cluster_size"),
        ({"density": {"k_reduced": 256}}, "k_reduced"),
        ({"embedding": {"kind": "hashed", "dimension": 4}}, "k_reduced")])
    def test_bound_past_the_data_is_a_data_error(self, demo_dir, tmp_path, capsys,
                                                 change, key):
        run = tmp_path / "run.json"
        run.write_text(json.dumps({**json.loads((demo_dir / "run.json").read_text()),
                                   **change}))
        out = tmp_path / "out"
        copy_artifacts(results_dir(demo_dir), out, ["postings.ndjson"])
        assert main(["topics", "--config", str(run), "--out", str(out)]) == EXIT_DATA
        assert key in capsys.readouterr().err
        assert not any((out / name).exists() for name in PIPELINE["topics"].outputs)

    def test_k_reduced_checked_before_the_lda_fit(self, demo_dir, tmp_path, capsys,
                                                  monkeypatch):
        def no_fit(*args):
            raise AssertionError("lda_fit called")

        monkeypatch.setattr(cli, "lda_fit", no_fit)
        run = tmp_path / "run.json"
        run.write_text(json.dumps({**json.loads((demo_dir / "run.json").read_text()),
                                   "embedding": {"kind": "hashed", "dimension": 4}}))
        out = tmp_path / "out"
        copy_artifacts(results_dir(demo_dir), out, ["postings.ndjson"])
        assert main(["topics", "--config", str(run), "--out", str(out)]) == EXIT_DATA
        assert "k_reduced" in capsys.readouterr().err


class TestDeterminism:
    def test_rerun_produces_identical_checksums(self, demo_dir, tmp_path):
        run1 = results_dir(demo_dir) / "run_manifest.json"
        run_path = write_demo_corpus(tmp_path)
        assert main(["all", "--config", str(run_path),
                     "--out", str(tmp_path / "results")]) == EXIT_OK
        m1 = json.loads(run1.read_text())["stages"]
        m2 = json.loads((tmp_path / "results" / "run_manifest.json").read_text())["stages"]
        for stage in PIPELINE:
            c1 = {k: v["sha256"] for k, v in m1[stage]["outputs"].items()}
            c2 = {k: v["sha256"] for k, v in m2[stage]["outputs"].items()}
            assert c1 == c2, stage

    def test_stage_isolation_rebuild_identical(self, demo_dir):
        out = results_dir(demo_dir)
        target = out / "skill_rates.csv"
        before = target.read_bytes()
        target.unlink()
        cfg = RunConfig.load(demo_dir / "run.json")
        run_stage("extract", cfg)
        assert target.read_bytes() == before

    def test_seed_changes_model_outputs(self, demo_dir, tmp_path):
        run_path = write_demo_corpus(tmp_path)
        assert main(["all", "--config", str(run_path), "--seed", "99",
                     "--out", str(tmp_path / "alt")]) == EXIT_OK
        a = (results_dir(demo_dir) / "lda_topics.json").read_bytes()
        b = (tmp_path / "alt" / "lda_topics.json").read_bytes()
        assert a != b

    def test_derive_seed_separates_stages(self):
        seeds = {derive_seed(7, name) for name in
                 ("topics.lda", "topics.kmeans", "topics.density", "embedding")}
        assert len(seeds) == 4
        assert derive_seed(7, "topics.lda") == derive_seed(7, "topics.lda")


def extract_with_extras(demo_dir: Path, out: Path) -> None:
    """Run extract in ``out`` on the demo postings plus EXTRA_POSTINGS."""
    out.mkdir(parents=True)
    demo = (results_dir(demo_dir) / "postings.ndjson").read_text()
    (out / "postings.ndjson").write_text(
        demo + "".join(json.dumps(p, sort_keys=True) + "\n" for p in EXTRA_POSTINGS))
    assert main(["extract", "--config", str(demo_dir / "run.json"), "--out", str(out)]) == EXIT_OK


class TestSectorLabels:
    def test_extract_writes_the_sector_of_each_posting(self, demo_dir, tmp_path):
        out = tmp_path / "out"
        extract_with_extras(demo_dir, out)
        postings = load_postings(out)
        rows = read_ndjson(out / "skill_flags.ndjson")
        assert [r["posting_id"] for r in rows] == [p.id for p in postings]
        assert [r["sector"] for r in rows] == sectors_of(postings)
        assert rows[-2]["sector"] == "IT"
        assert rows[-1]["sector"] is None
        assert '"sector": null' in (out / "skill_flags.ndjson").read_text().splitlines()[-1]

    def test_a_repeated_id_keeps_each_posting_s_own_sector(self, demo_dir, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        lines = (results_dir(demo_dir) / "postings.ndjson").read_text().splitlines(True)
        first_id = json.loads(lines[0])["id"]
        lines[1] = json.dumps({**json.loads(lines[1]), "id": first_id}) + "\n"
        (out / "postings.ndjson").write_text("".join(lines))
        assert main(["extract", "--config", str(demo_dir / "run.json"),
                     "--out", str(out)]) == EXIT_OK
        rows = read_ndjson(out / "skill_flags.ndjson")[:2]
        assert [(r["posting_id"], r["sector"]) for r in rows] == [
            (first_id, "IT"), (first_id, "Healthcare")]

    def test_a_repeated_id_stops_the_stages_that_look_vectors_up_by_id(
            self, demo_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        lines = (results_dir(demo_dir) / "postings.ndjson").read_text().splitlines(True)
        rows = [json.loads(line) for line in lines]
        first_id = rows[0]["id"]
        lines[1] = json.dumps({**rows[1], "id": first_id}) + "\n"
        (out / "postings.ndjson").write_text("".join(lines))
        # the hashed vector of each id's text and of each anchor phrase; the
        # two postings' texts differ
        hashed = HashedProvider(16, seed=1)
        keyed = [(row["id"], row["description"]) for row in rows[:1] + rows[2:]]
        keyed += [(phrase, phrase) for group in load_anchors(None).values() for phrase in group]
        (tmp_path / "vectors.csv").write_text("id,16\n" + "".join(
            ",".join([key, *map(repr, hashed.embed(text).tolist())]) + "\n"
            for key, text in keyed))
        run = tmp_path / "run.json"
        run.write_text(json.dumps({**json.loads((demo_dir / "run.json").read_text()),
                                   "embedding": {"kind": "file", "path": "vectors.csv"}}))
        assert main(["extract", "--config", str(run), "--out", str(out)]) == EXIT_OK
        for stage, outputs in (("framing", ["framing.ndjson", "framing_by_year.csv"]),
                               ("topics", ["lda_topics.json", "topic_over_time.csv"])):
            assert main([stage, "--config", str(run), "--out", str(out)]) == EXIT_DATA
            assert f"posting id {first_id!r} repeats" in capsys.readouterr().err
            assert not any((out / name).exists() for name in outputs), stage

    @pytest.mark.parametrize("bad_row, message", [
        ("{first},0,1\n", "id {first!r} was given on line 2"),
        ("other,0,0\n", "embedding has zero or non-finite norm"),
    ], ids=["repeated-id", "zero-row"])
    def test_a_bad_row_of_the_vectors_file_is_exit_4_naming_its_line(
            self, demo_dir, tmp_path, capsys, bad_row, message):
        out = tmp_path / "out"
        copy_artifacts(results_dir(demo_dir), out,
                       {*PIPELINE["framing"].inputs, "run_manifest.json"})
        first = json.loads((out / "postings.ndjson").read_text().splitlines()[0])["id"]
        vectors = tmp_path / "vectors.csv"
        vectors.write_text(f"id,2\n{first},1,0\n" + bad_row.format(first=first))
        run = tmp_path / "run.json"
        run.write_text(json.dumps({**json.loads((demo_dir / "run.json").read_text()),
                                   "embedding": {"kind": "file", "path": "vectors.csv"}}))
        assert main(["framing", "--config", str(run), "--out", str(out)]) == EXIT_DATA
        assert f"{vectors}:3: {message.format(first=first)}\n" in capsys.readouterr().err
        assert not (out / "framing.ndjson").exists()

    def test_one_run_classifies_once(self, tmp_path, monkeypatch):
        calls, classified = Counter(), Counter()
        for name in ("sector_totals", "load_sectors"):
            def counted(*args, _name=name, _fn=getattr(cli, name)):
                calls[_name] += 1
                if _name == "sector_totals":  # once per piece of postings
                    classified.update(p.id for p in args[0])
                return _fn(*args)
            monkeypatch.setattr(cli, name, counted)
        run_path = write_demo_corpus(tmp_path)
        assert main(["all", "--config", str(run_path)]) == EXIT_OK
        assert calls["load_sectors"] == 1
        ids = [p.id for p in load_postings(results_dir(tmp_path))]
        assert classified == Counter(ids) and set(classified.values()) == {1}

    def test_extract_tokenizes_each_posting_once(self, demo_dir, tmp_path, monkeypatch):
        seen = Counter()
        for module in (cli, taxonomy):
            def counted(text, _fn=module.tokenize):
                seen[text] += 1
                return _fn(text)
            monkeypatch.setattr(module, "tokenize", counted)
        out = tmp_path / "out"
        copy_artifacts(results_dir(demo_dir), out, PIPELINE["extract"].inputs)
        assert main(["extract", "--config", str(demo_dir / "run.json"),
                     "--out", str(out)]) == EXIT_OK
        descriptions = Counter(p.description for p in load_postings(out))
        # the other calls tokenize the lexicons' phrases
        assert {t: seen[t] for t in descriptions} == descriptions

    def test_framing_and_sectors_do_not_read_the_lexicon(self, demo_dir, tmp_path):
        first = tmp_path / "first"
        extract_with_extras(demo_dir, first)
        for stage in ("framing", "sectors"):
            assert main([stage, "--config", str(demo_dir / "run.json"),
                         "--out", str(first)]) == EXIT_OK
        lexicon = json.loads(default_path("sectors").read_text(encoding="utf-8"))
        lexicon["priority"].reverse()
        reversed_path = tmp_path / "sectors.json"
        reversed_path.write_text(json.dumps(lexicon))
        postings = load_postings(first)
        # the reversed priority relabels the tie, so a stage that classified would differ
        tie = -2  # extra:tie
        assert sectors_of(postings, reversed_path)[tie] != sectors_of(postings)[tie]
        run_path = tmp_path / "run.json"
        run_path.write_text(json.dumps({**json.loads((demo_dir / "run.json").read_text()),
                                        "sectors": str(reversed_path)}))
        second = tmp_path / "second"
        copy_artifacts(first, second, {*PIPELINE["framing"].inputs, *PIPELINE["sectors"].inputs})
        for stage in ("framing", "sectors"):
            assert main([stage, "--config", str(run_path), "--out", str(second)]) == EXIT_OK
            for artifact in PIPELINE[stage].outputs:
                assert (second / artifact).read_bytes() == (first / artifact).read_bytes(), artifact


    @pytest.mark.parametrize("stage", ["framing", "sectors"])
    @pytest.mark.parametrize("stale", ["no sector field", "other postings", "a blank line",
                                       "one row more"])
    def test_stale_flags_exit_4(self, demo_dir, tmp_path, capsys, stage, stale):
        out = tmp_path / "out"
        copy_artifacts(results_dir(demo_dir), out, PIPELINE[stage].inputs)
        rows = read_ndjson(out / "skill_flags.ndjson")
        lines = [json.dumps(r) + "\n" for r in rows]
        if stale == "no sector field":
            lines = [json.dumps({k: v for k, v in r.items() if k != "sector"}) + "\n"
                     for r in rows]
        elif stale == "other postings":
            lines = lines[1:]
        elif stale == "a blank line":
            # each row labels its posting, but the rows are read by line, so
            # the rows after it would label the lines after their postings'
            blank = len(lines) // 2 + 1
            lines.insert(blank - 1, "\n")
        else:
            lines.append(lines[-1])
        (out / "skill_flags.ndjson").write_text("".join(lines))
        code = main([stage, "--config", str(demo_dir / "run.json"), "--out", str(out)])
        assert code == EXIT_DATA
        expected = (f"skill_flags.ndjson line {blank}: a blank line"
                    if stale == "a blank line" else "re-run extract")
        assert expected in capsys.readouterr().err
        assert not any((out / artifact).exists() for artifact in PIPELINE[stage].outputs)


    @pytest.mark.parametrize("stage", ["framing", "sectors"])
    @pytest.mark.parametrize("where", ["past the postings", "in the first piece"])
    def test_a_bad_flags_line_is_named_before_stale_rows(self, demo_dir, tmp_path, capsys,
                                                        stage, where):
        out = tmp_path / "out"
        copy_artifacts(results_dir(demo_dir), out, PIPELINE[stage].inputs)
        lines = (out / "skill_flags.ndjson").read_text().splitlines(keepends=True)
        assert len(lines) > 125  # pieces of 125 lines; the last reads to the file's end
        if where == "past the postings":
            lines += ["{not json\n"]
            bad = len(lines)
        else:  # the rows after a dropped one are stale, in every piece
            del lines[100]
            lines[2] = "{not json\n"
            bad = 3
        (out / "skill_flags.ndjson").write_text("".join(lines))
        assert main([stage, "--config", str(demo_dir / "run.json"), "--out", str(out),
                     "--jobs", "2"]) == EXIT_DATA
        assert f"{out / 'skill_flags.ndjson'} line {bad}: " in capsys.readouterr().err
        assert not any((out / artifact).exists() for artifact in PIPELINE[stage].outputs)


class TestStageTable:
    def test_readme_table_matches_pipeline(self):
        rows = {m["stage"]: (m["reads"], m["writes"]) for m in re.finditer(
            r"^\| `(?P<stage>\w+)`\s*\|(?P<reads>[^|]*)\|(?P<writes>[^|]*)\|$",
            README.read_text(encoding="utf-8"), re.MULTILINE)}
        assert list(rows) == list(PIPELINE)
        artifacts = {a for stage in PIPELINE.values() for a in (*stage.inputs, *stage.outputs)}
        for name, stage in PIPELINE.items():
            reads, writes = (set(re.findall(r"`([^`]+)`", cell)) & artifacts
                             for cell in rows[name])
            assert reads == set(stage.inputs), name
            assert writes == set(stage.outputs), name

    def test_inputs_are_outputs_of_earlier_stages(self):
        written: set[str] = set()
        for name, stage in PIPELINE.items():
            assert set(stage.inputs) <= written, name
            written |= set(stage.outputs)

    @pytest.mark.parametrize("name", list(PIPELINE))
    def test_stage_runs_from_its_declared_inputs_alone(self, demo_dir, tmp_path, name):
        stage, full = PIPELINE[name], results_dir(demo_dir)
        out = tmp_path / "out"
        copy_artifacts(full, out, stage.inputs)
        assert main([name, "--config", str(demo_dir / "run.json"), "--out", str(out)]) == EXIT_OK
        for artifact in stage.outputs:
            assert (out / artifact).read_bytes() == (full / artifact).read_bytes(), artifact

    @pytest.mark.parametrize("name,missing", [(name, artifact)
                                              for name, stage in PIPELINE.items()
                                              for artifact in stage.inputs])
    def test_each_missing_input_exits_3(self, demo_dir, tmp_path, capsys, name, missing):
        stage = PIPELINE[name]
        out = tmp_path / "out"
        copy_artifacts(results_dir(demo_dir), out, [a for a in stage.inputs if a != missing])
        code = main([name, "--config", str(demo_dir / "run.json"), "--out", str(out)])
        assert code == EXIT_MISSING_UPSTREAM
        assert missing in capsys.readouterr().err
        assert not any((out / artifact).exists() for artifact in stage.outputs)


class TestArtifactWrites:
    def test_failed_write_keeps_the_old_file_and_no_temp(self, tmp_path):
        target = tmp_path / "rows.ndjson"
        target.write_text("old\n")

        def rows():
            yield "new\n"
            raise RuntimeError("source failed mid-artifact")

        with pytest.raises(RuntimeError):
            atomic_write(target, rows())
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rows.ndjson"]

    def test_ndjson_rows_are_streamed(self, tmp_path):
        # 20,000 rows are about 5 MB of JSON; no more than a few rows are held
        rows = ({"id": f"p{i}", "description": "x" * 220} for i in range(20_000))
        tracemalloc.start()
        try:
            write_part(tmp_path / "rows.ndjson", rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(read_ndjson(tmp_path / "rows.ndjson")) == 20_000
        assert peak < 2 ** 20

    @given(st.lists(st.dictionaries(st.text(max_size=8), json_values, max_size=6), max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_ndjson_lines_equal_json_dumps_with_sorted_keys(self, rows):
        assert list(ndjson_lines(rows)) == [json.dumps(r, sort_keys=True) + "\n" for r in rows]

    @pytest.mark.parametrize("bad", [b'{"id": "p1"', b'{"id": "\xff"}', b"[1] [2]", b"", b" \t"])
    def test_ndjson_line_that_does_not_parse_is_named(self, tmp_path, bad):
        path = tmp_path / "rows.ndjson"
        path.write_bytes(b'{"id": "p0"}\n' + bad + b'\n{"id": "p2"}\n')
        with pytest.raises(DataError, match=re.escape(f"{path} line 2: ")):
            read_ndjson(path)


# sha256 of the artifacts of write_demo_corpus(200, seed=7) whose path has no
# BLAS or scipy call, so they repeat across numpy builds and Python versions.
# A change meant to alter one of these bytes updates its pin and says why.
TEXT_PATH_DIGESTS = {
    "raw_records.ndjson": "81def560e23a70778fb6ed0d6f47864e9792c20d567f3a16bee4351a4e100860",
    "ingest_report.json": "b672d32c030e3846cc9ddcf185837b39b435b6f441b42a07e0a1989bfbce9df9",
    "postings.ndjson": "e4dd0be1da103ce8a16fcbd2e843b382956003efe36af8bb92e04d7700439e1c",
    "cleanse_report.json": "341ed38a8bdb4320d52b4e34eb326b5f867fefe5eedbed1e22338d54ba228d70",
    "skill_flags.ndjson": "da302a914bacf38e9a07832de2b83c71794b7545f0fca294575d9364361ca97d",
    "skill_rates.csv": "0fc5c694fe850a535c07026f4311e9ab27846cd8304034fb7e5c5cd7425df672",
    "sector_rates.csv": "327a3f910a2aeb959e449f7418817c258abbe43d6facc645dd4ad2c60015ec63",
}


def test_text_path_artifacts_are_pinned(demo_dir):
    out = results_dir(demo_dir)
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in TEXT_PATH_DIGESTS} == TEXT_PATH_DIGESTS


# An adversarial corpus written by hand and read from two sources, a CSV file
# and an ldjson file: case folds that grow or reach ASCII, combining marks,
# fullwidth forms, control characters, tabs and newlines, XML entities,
# boilerplate sentences, French, Spanish and German rows, the tokens the
# tokenizer treats apart (fine-tuning, c++, c#), and rows each filter rejects.
_BODY = ("We are looking for a motivated professional to join our growing team. "
         "The successful candidate will work closely with colleagues across several "
         "departments and deliver high quality results on schedule every single week.")
ADVERSARIAL_CSV = [
    ("2019-01-15", "Senior developer for backend services: python, c++ and c# daily. " + _BODY),
    ("15/03/2020", "Fine-tuning of large language models, prompt engineering and gpt tooling. "
                   + _BODY),
    ("March 4, 2021", "STRASSE or stra\xdfe, \ufb01nance and \ufb00 teams, the \u0130stanbul "
                      "office. The accountant prepares audit files. " + _BODY),
    ("2022-06-01", "The \u212aelvin sign, a long \u017f and a dotless \u0131 in data entry "
                   "and filing work. " + _BODY),
    ("2023-02-02", "Tabs\there\tand\tthere, NBSP\xa0spaces, an ideographic\u3000space and a "
                   "line\u2028separator for the nurse at the hospital. " + _BODY),
    ("2018-07-07", "First line.\nSecond line\r\nThird\n\n\n line   with   spaces. " + _BODY),
    ("2024-11-30", _BODY + " Equal Opportunity Employer. Benefits include a gym and lunch. "
                   "About the Company: we build tools for the logistics team."),
    ("2020-08-08", "EQUAL\topportunity   employer for all! The lawyer supports litigation. "
                   + _BODY),
    ("2021-12-12", "Cafe\u0301 re\u0301sume\u0301 na\xefve co\xf6perate with "
                   "the teacher and the lecturer group. " + _BODY),
    ("2022-02-22", "\uff30\uff59\uff54\uff48\uff4f\uff4e developer \uff21\uff29 "
                   "\uff11\uff12\uff13 in machine learning. " + _BODY),
    ("2023-03-03", "human-in-the-loop review, scikit-learn, -leading and trailing-, a--b, "
                   "c+++, ##tag and x-+#y. " + _BODY),
    ("2019-09-19", "A great team \U0001F680 \u4e2d\u6587 \u0436\u0414\u044f \u03b1\u03b2\u03a9 "
                   "for the designer doing graphic design. " + _BODY),
    ("2020-10-10", "R&amp;D team, &lt;b&gt;bold&lt;/b&gt;, &quot;quoted&quot; and "
                   "&apos;apostrophes&apos; in sales. " + _BODY),
    ("2021-01-01", "Zero\u200bwidth\ufeffmarks and a right\u200fto\u200eleft mark in mlops "
                   "and model monitoring. " + _BODY),
    ("2022-04-04", "Nous recherchons un ing\xe9nieur logiciel exp\xe9riment\xe9 pour rejoindre "
                   "notre \xe9quipe parisienne d\xe8s que possible afin de d\xe9velopper nos "
                   "services."),
    ("2023-05-05", "Buscamos una persona responsable para unirse a nuestro equipo de ventas "
                   "en Madrid con experiencia en atenci\xf3n al cliente y log\xedstica."),
    ("2024-06-06", "Short ad, apply now."),
    ("not-a-date", "A row whose date does not parse. " + _BODY),
    ("2015-05-05", "A row from a year outside the range. " + _BODY),
    ("2019-02-28", "Strategic planning, people management and mentoring for the manager "
                   "who reports to the director. " + _BODY),
    ("2020-03-31", "Invoice processing, photocopying and routine maintenance of records in "
                   "the warehouse with freight and shipping. " + _BODY),
    ("2021-04-30", "Strong communication, teamwork and problem solving, critical thinking "
                   "and adaptability. " + _BODY),
    ("2022-05-31", "DATA ENTRY, ORDER PROCESSING AND MANUAL CODING OF LEGACY SPREADSHEETS. "
                   + _BODY.upper()),
]
ADVERSARIAL_LDJSON = [
    ("2019-06-30", "Control\x00characters\x07and\x1bescapes\x7fand\x1cseparators\x1f in "
                   "the backend devops toolchain. " + _BODY),
    ("2020-07-31", "A next line\x85and a form\x0cfeed and a vertical\x0btab in banking and "
                   "investment reporting. " + _BODY),
    ("2021-08-31", "Senior developer for backend services: python, c++ and c# daily. " + _BODY),
    ("2022-09-30", "Benefits include free lunch. Benefits include a gym. " + _BODY
                   + " About the Company. Equal Opportunity Employer"),
    ("2023-10-31", "About the About the Company Company. " + _BODY),
    ("2024-01-31", "Wir suchen eine erfahrene Fachkraft zur Verst\xe4rkung unseres Teams in "
                   "Berlin und M\xfcnchen f\xfcr die Softwareentwicklung."),
    ("2018-12-31", "Nous cherchons un d\xe9veloppeur python pour le machine learning et la "
                   "fine-tuning des mod\xe8les dans notre \xe9quipe \xe0 Lyon."),
    ("2019-03-15", "c# c++ c+ c## -- ++ ## " * 6 + _BODY),
    ("2020-04-15", "Model validation, model monitoring and fine-tuning with python, for "
                   "the attorney at the law firm. " + _BODY),
    ("2021-05-15", "\u1e9e and \xdf, \u0149, \u01f0 and \ufb03 fold to longer forms in "
                   "ux and ui deliverables. " + _BODY),
    ("2022-06-15", "Decision support and human oversight, working alongside the clinical "
                   "staff to assist the patient. " + _BODY),
    ("2023-07-15", "Fully automated pipelines replace manual work and eliminate routine "
                   "steps in the office. " + _BODY),
    ("2024-08-15", "   \t\n "),
    ("2019-11-11", ""),
    ("2020-12-12", "An account executive for business development targets. " + _BODY
                   + "\n\nBenefits include\ttravel.\nMore text after the newline."),
    ("06/07/2021", "The successful candidate will work with the director. " + _BODY),
    ("2022-10-10", "Senior developer for backend services: PYTHON, C++ AND C# DAILY. " + _BODY),
]


def write_adversarial_corpus(root: Path) -> Path:
    """The adversarial corpus as a CSV and an ldjson source; its run.json."""
    run = write_demo_corpus(root, n=60)
    with open(root / "board.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "description"])
        writer.writerows(ADVERSARIAL_CSV)
    (root / "feed.ldjson").write_text(
        "".join(json.dumps({"date": d, "description": t}) + "\n" for d, t in ADVERSARIAL_LDJSON),
        encoding="utf-8")
    (spec,) = json.loads((root / "sources.json").read_text())
    (root / "sources.json").write_text(json.dumps([
        {**spec, "path_or_url": str(root / "board.csv")},
        {**spec, "path_or_url": str(root / "feed.ldjson"), "format": "ldjson"}]))
    return run


# sha256 of the TEXT_PATH_DIGESTS artifacts of the adversarial corpus, taken
# from the regex tokenizer and language filter the str.translate forms replaced
ADVERSARIAL_DIGESTS = {
    "raw_records.ndjson": "41b4c43cb92df7f1a1a34b17770a637979288ded2b502598563bfab052aaef7d",
    "ingest_report.json": "07fc5576389758b7c5687f3de793c9c3287855a82e22da7fec887edcb836a0e5",
    "postings.ndjson": "be085577932138b1684e0748c347199240260b7d85371180e5f8f58c79c4c435",
    "cleanse_report.json": "49a26a252b417b589fddac782678a65f8559ae45c39c7d643dd52ee548a1ab61",
    "skill_flags.ndjson": "f9f6bdf6adec276fd2e0cbdf9f356edad598d631a9f2a58317a203b7a1d85d50",
    "skill_rates.csv": "3cea3f010b6414c843d5e6ac74f6887adfd6aece7ea3e9180dbd48627e545bec",
    "sector_rates.csv": "eb089196d50451c586c6d4a8674d1ac6aa6bc31eccc93711409cf397ba3da081",
}


def test_adversarial_text_path_artifacts_are_pinned(tmp_path):
    run = write_adversarial_corpus(tmp_path / "in")
    out = tmp_path / "out"
    for stage in ("ingest", "cleanse", "extract", "framing", "sectors"):
        assert main([stage, "--config", str(run), "--out", str(out)]) == EXIT_OK
    # 40 rows: two blank, two repeated, and each filter rejects at least one
    assert json.loads((out / "cleanse_report.json").read_text()) == {
        "input": 36, "retained": 29,
        "rejected": {"bad_date": 1, "non_english": 4, "out_of_range": 1, "too_short": 1}}
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in TEXT_PATH_DIGESTS} == ADVERSARIAL_DIGESTS


class TestConfigPlumbing:
    def test_default_output_dir_is_out_in_the_working_directory(self, tmp_path, monkeypatch):
        write_demo_corpus(tmp_path / "demo", n=60)
        cfg = json.loads((tmp_path / "demo" / "run.json").read_text())
        del cfg["output_dir"]
        (tmp_path / "demo" / "run.json").write_text(json.dumps(cfg))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SKILLSCOPE_OUT", str(tmp_path / "envout"))  # not read
        assert main(["ingest", "--config", str(tmp_path / "demo" / "run.json")]) == EXIT_OK
        assert (tmp_path / "out" / "raw_records.ndjson").exists()
        assert not (tmp_path / "envout").exists()

    def test_out_flag_overrides(self, tmp_path):
        write_demo_corpus(tmp_path)
        assert main(["ingest", "--config", str(tmp_path / "run.json"),
                     "--out", str(tmp_path / "flagout")]) == EXIT_OK
        assert (tmp_path / "flagout" / "raw_records.ndjson").exists()

    def test_readme_lists_each_config_key(self):
        text = README.read_text(encoding="utf-8")
        section = text[text.index("## Configuration"):]
        rows = {m[1]: (m[2], m[3]) for m in re.finditer(
            r"^\| `([\w.]+)` \| ([^|]*) \| ([^|]*) \|", section[:section.index("\n## ")],
            re.MULTILINE)}
        declared = {**{k: f for k, f in CONFIG_FIELDS.items() if k not in MODEL_FIELDS},
                    **{f"{m}.{k}": f for m, fields in MODEL_FIELDS.items()
                       for k, f in fields.items()}}
        assert sorted(rows) == sorted(declared)
        words = {int: "integer", float: "number", str: "string", str | None: "path",
                 dict: "object"}
        for key, (kind, default, _) in declared.items():
            assert rows[key][0] == words[kind], key
            if default is not None and kind is not dict:
                assert rows[key][1] == f"`{json.dumps(default)}`", key

    def test_relative_paths_follow_the_file_that_names_them(self, tmp_path, monkeypatch):
        demo = write_demo_corpus(tmp_path / "demo", n=60)
        data = tmp_path / "cfg" / "data"
        data.mkdir(parents=True)
        shutil.copyfile(tmp_path / "demo" / "postings.csv", data / "postings.csv")
        (spec,) = json.loads((tmp_path / "demo" / "sources.json").read_text())
        (data / "sources.json").write_text(json.dumps([{**spec, "path_or_url": "postings.csv"}]))
        shutil.copyfile(default_path("sectors"), tmp_path / "cfg" / "sectors.json")
        (tmp_path / "cfg" / "cleanse.json").write_text('{"min_tokens": 30}')
        (tmp_path / "cfg" / "run.json").write_text(json.dumps({
            "sources": "data/sources.json", "cleanse_config": "cleanse.json",
            "sectors": "sectors.json", "output_dir": "results"}))
        monkeypatch.chdir(tmp_path)
        assert main(["ingest", "--config", "cfg/run.json"]) == EXIT_OK
        assert main(["ingest", "--config", str(demo), "--out", "flag"]) == EXIT_OK
        demo.write_text(json.dumps({k: v for k, v in json.loads(demo.read_text()).items()
                                    if k != "output_dir"}))
        assert main(["ingest", "--config", str(demo)]) == EXIT_OK
        # --out and the default ./out stay relative to the working directory
        expected = (tmp_path / "flag" / "raw_records.ndjson").read_bytes()
        for out in (tmp_path / "cfg" / "results", tmp_path / "out"):
            assert (out / "raw_records.ndjson").read_bytes() == expected

    def test_validate_defaults_ok(self, capsys):
        assert main(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("OK") == 3

    def test_validate_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "t.json"
        bad.write_text('{"categories": {}}')
        assert main(["validate", "--taxonomy", str(bad)]) == EXIT_CONFIG
        assert "INVALID" in capsys.readouterr().out


class TestReports:
    def test_ingest_report_conservation(self, demo_dir):
        report = json.loads((results_dir(demo_dir) / "ingest_report.json").read_text())
        counts = report["postings"]
        raw_lines = (results_dir(demo_dir) / "raw_records.ndjson").read_text().splitlines()
        assert counts["emitted"] - counts["duplicates_removed"] == len(raw_lines)

    def test_ingest_report_carries_api_stats(self, tmp_path):
        def page(n):
            return {"data": [{"date": "2022-01-01", "description": f"api posting {n}.{i}"}
                             for i in range(3)]}

        (tmp_path / "jobs_api.json").write_text(json.dumps({"calls": [
            {"status": 200, "body": page(1)},
            {"status": 503},                      # page 2 fails once, then comes
            {"status": 200, "body": page(2)},
            {"status": 404},                      # page 3 has no body: skipped
            {"status": 200, "body": page(4)},
            {"status": 200, "body": {"data": []}},
        ]}))
        (tmp_path / "jobs.csv").write_text("date,description\n2022-01-01,a csv posting\n")
        fields = {"date_field": "date", "text_field": "description"}
        (tmp_path / "sources.json").write_text(json.dumps([
            {"path_or_url": str(tmp_path / "jobs.csv"), "format": "csv", **fields},
            {"path_or_url": str(tmp_path / "jobs_api.json"), "format": "api", **fields}]))
        (tmp_path / "run.json").write_text(json.dumps(
            {"sources": str(tmp_path / "sources.json"), "output_dir": str(tmp_path / "out")}))
        run_stage("ingest", RunConfig.load(tmp_path / "run.json"))
        report = json.loads((tmp_path / "out" / "ingest_report.json").read_text())
        assert report["jobs_api"] == {"emitted": 9, "skipped": 0, "dropped_empty": 0,
                                      "duplicates_removed": 0, "retries": 1,
                                      "pages_fetched": 3, "pages_skipped": 1}
        assert report["jobs"] == {"emitted": 1, "skipped": 0, "dropped_empty": 0,
                                  "duplicates_removed": 0}

    def test_duplicates_charged_to_sources_whose_names_hold_a_colon(self, tmp_path):
        run = write_demo_corpus(tmp_path, n=60)
        (spec,) = json.loads((tmp_path / "sources.json").read_text())
        for name in ("other.csv", "jobs:2024.csv"):  # the second repeats the first
            shutil.copyfile(spec["path_or_url"], tmp_path / name)
        (tmp_path / "sources.json").write_text(json.dumps(
            [{**spec, "path_or_url": str(tmp_path / name)}
             for name in ("other.csv", "jobs:2024.csv")]))
        assert main(["ingest", "--config", str(run)]) == EXIT_OK
        out = tmp_path / "results"
        report = json.loads((out / "ingest_report.json").read_text())
        removed = json.loads((out / "run_manifest.json").read_text()
                             )["stages"]["ingest"]["counts"]["duplicates_removed"]
        assert report["jobs:2024"]["duplicates_removed"] == report["jobs:2024"]["emitted"]
        assert sum(r["duplicates_removed"] for r in report.values()) == removed

    def test_ingest_in_processes_writes_the_same_bytes(self, tmp_path):
        run = write_three_sources(tmp_path)
        for jobs in (1, 2, 3):
            out = tmp_path / f"jobs{jobs}"
            assert main(["ingest", "--config", str(run), "--jobs", str(jobs),
                         "--out", str(out)]) == EXIT_OK
            entry = json.loads((out / "run_manifest.json").read_text())["stages"]["ingest"]
            # one process per contiguous group of sources, at most one per source
            assert (entry["jobs"], entry["processes"]) == (jobs, jobs)
        for name in PIPELINE["ingest"].outputs:
            assert ((tmp_path / "jobs1" / name).read_bytes()
                    == (tmp_path / "jobs2" / name).read_bytes()
                    == (tmp_path / "jobs3" / name).read_bytes()), name
        report = json.loads((tmp_path / "jobs2" / "ingest_report.json").read_text())
        assert report["jobs"]["duplicates_removed"] == report["jobs"]["emitted"] > 0
        assert report["jobs_api"]["pages_fetched"] == 1
        assert_no_children()

    def test_a_malformed_source_read_by_a_worker_exits_as_at_jobs_1(self, tmp_path, capsys,
                                                                   monkeypatch):
        run = write_three_sources(tmp_path)
        sources = json.loads((tmp_path / "sources.json").read_text())
        # the second source, the first piece of a worker at --jobs 2 and 3
        (tmp_path / "jobs_xml.xml").write_text("<postings><posting><description>cut")
        sources[1] = {**sources[1], "path_or_url": "jobs_xml.xml", "format": "xml"}
        (tmp_path / "sources.json").write_text(json.dumps(sources))
        read_source = cli.read_source

        def reading(spec, *args):
            if spec.format == "xml":
                (tmp_path / "pid").write_text(str(os.getpid()))
            return read_source(spec, *args)

        monkeypatch.setattr(cli, "read_source", reading)
        errors = {}
        for jobs in (1, 2, 3):
            out = tmp_path / f"jobs{jobs}"
            assert main(["ingest", "--config", str(run), "--jobs", str(jobs),
                         "--out", str(out)]) == EXIT_DATA
            errors[jobs] = capsys.readouterr().err
            assert (int((tmp_path / "pid").read_text()) == os.getpid()) == (jobs == 1)
            assert not (out / "raw_records.ndjson").exists()
            assert_no_children()
        assert errors[1] == errors[2] == errors[3]
        assert f"data error: {tmp_path / 'jobs_xml.xml'}: not well-formed XML" in errors[1]

    def test_a_malformed_last_source_leaves_no_records_and_no_part_file(self, tmp_path,
                                                                        capsys):
        run = write_three_sources(tmp_path)
        sources = json.loads((tmp_path / "sources.json").read_text())
        # the first two sources are read, and their part files written, first
        (tmp_path / "jobs_xml.xml").write_text("<postings><posting><description>cut")
        sources[2] = {**sources[2], "path_or_url": "jobs_xml.xml", "format": "xml"}
        (tmp_path / "sources.json").write_text(json.dumps(sources))
        errors = {}
        for jobs in (1, 2, 3):
            out = tmp_path / f"jobs{jobs}"
            out.mkdir()
            assert main(["ingest", "--config", str(run), "--jobs", str(jobs),
                         "--out", str(out)]) == EXIT_DATA
            errors[jobs] = capsys.readouterr().err
            assert os.listdir(out) == []  # no raw_records.ndjson, part file or directory
            assert_no_children()
        assert errors[1] == errors[2] == errors[3]
        assert f"data error: {tmp_path / 'jobs_xml.xml'}: not well-formed XML" in errors[1]

    def test_forecast_csv_shape(self, demo_dir):
        with open(results_dir(demo_dir) / "forecast.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        labels = {r["label"] for r in rows}
        specs = {r["spec"] for r in rows}
        assert len(labels) == 5 and len(specs) == 2
        for r in rows:
            if r["is_forecast"] == "1":
                assert float(r["lower"]) <= float(r["value"]) <= float(r["upper"])

    def test_postings_ndjson_schema(self, demo_dir):
        lines = (results_dir(demo_dir) / "postings.ndjson").read_text().splitlines()
        assert lines
        for line in lines:
            d = json.loads(line)
            assert set(d) == {"id", "date", "year", "description"}
