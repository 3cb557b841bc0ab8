"""Pipeline orchestration CLI.

Usage: skillscope <stage> --config run.json [--jobs N] [--seed S] [--out DIR]

Stages: ingest, cleanse, extract, framing, topics, forecast, correlate,
sectors, report, all. ``PIPELINE`` declares each stage's inputs and outputs:
a stage reads only its inputs, which earlier stages write, writes its outputs
atomically (temp file + rename) and appends to the run manifest, so re-running
any stage with the same inputs and seed reproduces byte-identical artifacts.

Exit codes: 0 ok, 2 config error, 3 missing upstream, 4 data error,
5 internal error.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import hashlib
import io
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import __version__
from .arima import ArimaSpec
from .cleanse import CleanseConfig, CleanseReport, Posting, cleanse
from .config import check_fields
from .embed import HashedProvider, provider_from_spec, spec_arguments
from .errors import ConfigError, DataError, MissingUpstreamError, SkillscopeError
from .framing import AnchorCentroids, frame_document
from .ingest import (
    ApiClientStats,
    Deduplicator,
    RawRecord,
    SourceCounts,
    load_manifest,
    read_source,
)
from .parallel import map_chunks
from .skills import detect_skills, per_mille, rate_table
from .taxonomy import (
    SKILL_CATEGORIES,
    CompiledMatcher,
    load_anchors,
    load_sectors,
    load_taxonomy,
)
from .text import tokenize
from .topics import (
    LdaConfig,
    build_dtm,
    cluster_terms,
    density_topics,
    kmeans_fit,
    lda_fit,
    scaled_min_cluster_size,
    temporal_weights,
    top_terms,
)
from .trends import (
    RateSeries,
    forecast_series,
    pearson_matrix,
    sector_rates,
    sector_totals,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_UPSTREAM = 3
EXIT_DATA = 4
EXIT_INTERNAL = 5


def derive_seed(seed: int, stage: str) -> int:
    h = hashlib.blake2b(stage.encode("utf-8"), digest_size=8).digest()
    return (seed ^ int.from_bytes(h, "little")) & 0x7FFFFFFFFFFFFFFF


# Each key of the four model objects: (type, default, lowest value). LdaConfig
# holds the LDA defaults and checks the LDA bounds, ArimaSpec smoothing_alpha's
# and HashedProvider the embedding dimension; RunConfig calls them at load.
MODEL_FIELDS = {
    "lda": {"K": (int, LdaConfig.K, None), "alpha": (float, LdaConfig.alpha, None),
            "beta": (float, LdaConfig.beta, None),
            "iterations": (int, LdaConfig.iterations, None),
            "vocab_min_df": (int, LdaConfig.vocab_min_df, 1),
            "vocab_max_df_fraction": (float, LdaConfig.vocab_max_df_fraction, None)},
    "kmeans": {"K": (int, 6, 1)},
    "density": {"min_cluster_size": (int, None, 1), "k_reduced": (int, 8, 1)},
    "forecast": {"horizon": (int, 2, 1), "smoothing_alpha": (float, 0.5, None)},
}
FILE_FIELDS = ("sources", "cleanse_config", "taxonomy", "anchors", "sectors")
# the top level of run.json; the embedding object takes the keys of its kind
CONFIG_FIELDS = {
    **{name: (str | None, None, None) for name in (*FILE_FIELDS, "output_dir")},
    "seed": (int, 0, None), "granularity": (str, "year", None),
    **{name: (dict, {}, None) for name in ("embedding", *MODEL_FIELDS)},
}


class RunConfig:
    def __init__(self, raw: dict, path: Path):
        self.raw = raw
        self.path = path
        top = check_fields(raw, CONFIG_FIELDS, f"config {path}")
        self.lda, self.kmeans, self.density, self.forecast = (
            check_fields(top[name], fields, f"config {name!r}")
            for name, fields in MODEL_FIELDS.items())
        if not top["sources"]:
            raise ConfigError("config field 'sources' is required")
        if top["granularity"] != "year":
            raise ConfigError("granularity must be 'year'")
        for field in FILE_FIELDS:
            if top[field] is not None and not Path(top[field]).exists():
                raise ConfigError(f"config field {field!r}: file not found: {top[field]}")
        self.sources = load_manifest(top["sources"])
        self.taxonomy, self.anchors, self.sectors = (
            load_taxonomy(top["taxonomy"]), load_anchors(top["anchors"]),
            load_sectors(top["sectors"]))
        self.cleanse = (CleanseConfig.from_file(top["cleanse_config"])
                        if top["cleanse_config"] else CleanseConfig())
        self.embedding = dict(top["embedding"])
        # a provider checks its own bounds; a file provider would read its whole file
        if spec_arguments(self.embedding)[0] != "file":
            provider_from_spec(self.embedding)
        LdaConfig(**self.lda)
        ArimaSpec(1, 1, 1, self.forecast["smoothing_alpha"])
        self.output_dir = Path(top["output_dir"] or os.environ.get("SKILLSCOPE_OUT") or "out")
        self.seed = top["seed"]

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        p = Path(path)
        try:
            raw = json.loads(p.read_text(encoding="utf-8"))
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}") from e
        return cls(raw, p)


# --- artifact IO ------------------------------------------------------------

def atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Write the strings ``chunks`` yields, in turn, to ``path`` through a
    temp file, so a large artifact is never held as one string; a failure
    while writing leaves no temp file and ``path`` as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def write_json(path: Path, obj) -> None:
    atomic_write(path, [json.dumps(obj, indent=2, sort_keys=True) + "\n"])


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    atomic_write(path, [buf.getvalue()])


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    return rows[0], rows[1:]


def write_ndjson(path: Path, rows: Iterable[dict]) -> None:
    """One sorted-key JSON object per line."""
    atomic_write(path, (json.dumps(row, sort_keys=True) + "\n" for row in rows))


def read_ndjson(path: Path) -> list[dict]:
    # line by line: the JSON is ASCII-escaped, so "\n" is its only line break
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


# the object whose entries are a JSON artifact's rows; any other JSON file is one row
JSON_ROWS = {"lda_topics.json": "topics", "kmeans_clusters.json": "clusters",
             "density_topics.json": "topics"}


def count_rows(path: Path) -> int:
    """Records, not lines: CSV data rows, ndjson objects, and for JSON the
    topics or clusters of a topic model (else 1), however it is indented."""
    if path.suffix == ".json":
        key = JSON_ROWS.get(path.name)
        if not key:
            return 1
        with open(path, encoding="utf-8") as fh:
            return len(json.load(fh)[key])
    with open(path, encoding="utf-8") as fh:
        lines = sum(1 for line in fh if line.strip())
    return lines - 1 if path.suffix == ".csv" and lines else lines


class Manifest:
    def __init__(self, out: Path, cfg: RunConfig):
        self.path = out / "run_manifest.json"
        self.doc = (json.loads(self.path.read_text(encoding="utf-8"))
                    if self.path.exists() else {"stages": {}})
        self.doc.update(tool_version=__version__, config=cfg.raw)

    def record(self, stage: str, outputs: list[Path], wall_clock: float,
               counts: dict | None = None, jobs: int = 1, processes: int = 1) -> None:
        self.doc["stages"][stage] = {
            "wall_clock_s": round(wall_clock, 3),
            "jobs": jobs,
            "processes": processes,
            "counts": counts or {},
            "outputs": {
                p.name: {"sha256": sha256_file(p), "rows": count_rows(p)}
                for p in outputs
            },
        }
        write_json(self.path, self.doc)


# --- shared loaders ---------------------------------------------------------

def load_postings(out: Path) -> list[Posting]:
    return [Posting(id=d["id"], date=dt.date.fromisoformat(d["date"]),
                    year=d["year"], description=d["description"])
            for d in read_ndjson(out / "postings.ndjson")]


def read_flag_rows(out: Path, postings: list[Posting]) -> list[dict]:
    """The rows ``extract`` wrote, one per posting in order, each with its
    sector; rows of other postings or without a sector are stale."""
    rows = read_ndjson(out / "skill_flags.ndjson")
    if ([d["posting_id"] for d in rows] != [p.id for p in postings]
            or any("sector" not in d for d in rows)):
        raise DataError("skill_flags.ndjson does not label postings.ndjson; re-run extract")
    return rows


def embedding_provider(cfg: RunConfig):
    spec = dict(cfg.embedding)
    if spec.get("kind", "hashed") == "hashed" and "seed" not in spec:
        spec["seed"] = derive_seed(cfg.seed, "embedding")
    return provider_from_spec(spec)


def embed_postings(provider, postings: list[Posting]) -> list[np.ndarray]:
    """One vector per posting, in postings order."""
    return provider.embed_batch([p.description for p in postings],
                                keys=[p.id for p in postings])


def rate_series_from_csv(out: Path) -> dict[str, RateSeries]:
    header, rows = read_csv(out / "skill_rates.csv")
    series: dict[str, list[tuple[int, float]]] = {c: [] for c in SKILL_CATEGORIES}
    for row in rows:
        rec = dict(zip(header, row))
        for cat in SKILL_CATEGORIES:
            series[cat].append((int(rec["year"]), float(rec[cat])))
    return {cat: RateSeries(label=(cat,), points=tuple(pts))
            for cat, pts in series.items()}


# --- stages -----------------------------------------------------------------

class Workers:
    """A stage's ``--jobs`` budget, and the most processes it ran at once."""

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.processes = 1

    def map_chunks(self, fn, items) -> list:
        """``parallel.map_chunks`` within this budget."""
        results = map_chunks(fn, items, self.jobs)
        self.processes = max(self.processes, len(results))
        return results


def stage_ingest(cfg: RunConfig, out: Path, workers: Workers) -> dict:
    def collect(spec):
        counts, stats = SourceCounts(), ApiClientStats()
        records = list(read_source(spec, counts, stats, cfg.cleanse.date_order))
        return records, counts, asdict(stats) if spec.format == "api" else {}

    if workers.jobs > 1 and len(cfg.sources) > 1:
        with ThreadPoolExecutor(max_workers=workers.jobs) as pool:
            results = list(pool.map(collect, cfg.sources))
    else:
        results = [collect(s) for s in cfg.sources]

    dedup = Deduplicator()
    kept: list[RawRecord] = []
    for records, _, _ in results:
        kept.extend(dedup.filter(records))
    report = {}
    for spec, (_, counts, api_stats) in zip(cfg.sources, results):
        counts.duplicates_removed = dedup.removed_by_source.get(spec.name, 0)
        report[spec.name] = {**asdict(counts), **api_stats}

    # the row dataclasses are flat, so vars() is asdict() without its deep copy
    write_ndjson(out / "raw_records.ndjson", map(vars, kept))
    write_json(out / "ingest_report.json", report)
    return {"records": len(kept), "duplicates_removed": dedup.removed}


def stage_cleanse(cfg: RunConfig, out: Path, workers: Workers) -> dict:
    records = [RawRecord(**d) for d in read_ndjson(out / "raw_records.ndjson")]
    chunks = workers.map_chunks(lambda chunk: cleanse(chunk, cfg.cleanse), records)
    report = CleanseReport()
    for _, part in chunks:
        report.add(part)
    write_ndjson(out / "postings.ndjson",
                 ({"id": p.id, "date": p.date.isoformat(), "year": p.year,
                   "description": p.description} for postings, _ in chunks for p in postings))
    write_json(out / "cleanse_report.json", report.as_dict())
    return report.as_dict()


def stage_extract(cfg: RunConfig, out: Path, workers: Workers) -> dict:
    postings = load_postings(out)
    matcher = CompiledMatcher.from_taxonomy(cfg.taxonomy)

    def label(chunk):
        flags = []

        def tokens_after_skills():
            # each description is tokenized once for both matchers, one at a time
            for p in chunk:
                tokens = tokenize(p.description)
                flags.append(detect_skills(p, matcher, tokens))
                yield tokens

        return flags, sector_totals(chunk, cfg.sectors, tokens_after_skills())

    flags, sectors = [], {}
    for chunk_flags, chunk_sectors in workers.map_chunks(label, postings):
        flags += chunk_flags
        sectors.update(chunk_sectors)
    write_ndjson(out / "skill_flags.ndjson",
                 ({"posting_id": f.posting_id, **f.flags, "sector": sectors[f.posting_id]}
                  for f in flags))
    yearly = rate_table(((p.year,), per_mille(f.flags)) for p, f in zip(postings, flags))
    write_csv(out / "skill_rates.csv", ["year", "postings"] + list(SKILL_CATEGORIES), yearly)
    return {"postings": len(postings), "years": len(yearly)}


def stage_framing(cfg: RunConfig, out: Path, workers: Workers) -> dict:
    postings = load_postings(out)
    if not postings:
        raise DataError("no postings to frame")
    rows = read_flag_rows(out, postings)
    provider = embedding_provider(cfg)
    centroids = AnchorCentroids.from_anchors(cfg.anchors, provider)

    def frame(chunk):
        return [frame_document(v, centroids, posting_id=p.id)
                for p, v in zip(chunk, embed_postings(provider, chunk))]

    # file lookups are cheap, and an http provider has its own concurrency
    chunks = (workers.map_chunks(frame, postings) if isinstance(provider, HashedProvider)
              else [frame(postings)])
    results = [r for chunk in chunks for r in chunk]
    write_ndjson(out / "framing.ndjson", map(vars, results))

    sims = [(r.sim_ai, r.sim_augment, r.sim_automate, r.framing_index) for r in results]
    columns = ["n", "sim_ai", "sim_augment", "sim_automate", "fi"]
    by_year = rate_table(((p.year,), v) for p, v in zip(postings, sims))
    write_csv(out / "framing_by_year.csv", ["year", *columns], by_year)
    by_sector = rate_table(((p.year, row["sector"]), v) for p, row, v
                           in zip(postings, rows, sims) if row["sector"] is not None)
    write_csv(out / "framing_by_sector.csv", ["year", "sector", *columns], by_sector)
    return {"documents": len(results), "year_rows": len(by_year),
            "sector_rows": len(by_sector)}


def topic_entries(sizes: dict[int, int], terms: dict[int, list]) -> dict:
    """Each topic's top (term, weight) pairs and posting count, by topic id."""
    return {str(t): {"top_terms": [list(tw) for tw in terms.get(t, [])], "size": size}
            for t, size in sizes.items()}


def stage_topics(cfg: RunConfig, out: Path, workers: Workers) -> dict:
    postings = load_postings(out)
    if not postings:
        raise DataError("no postings for topic modeling")
    mcs = cfg.density["min_cluster_size"] or scaled_min_cluster_size(len(postings))
    for name, value in (("kmeans K", cfg.kmeans["K"]), ("density min_cluster_size", mcs)):
        if value > len(postings):
            raise DataError(f"{name} {value} exceeds the {len(postings)} postings")
    provider = embedding_provider(cfg)
    k_reduced = cfg.density["k_reduced"]
    if k_reduced >= provider.dimension:
        raise DataError(f"density k_reduced {k_reduced} must be below the "
                        f"embedding dimension {provider.dimension}")
    texts = [p.description for p in postings]
    years = [p.year for p in postings]

    lda_cfg = LdaConfig(**cfg.lda, seed=derive_seed(cfg.seed, "topics.lda"))
    dtm = build_dtm(texts, min_df=lda_cfg.vocab_min_df,
                    max_df_fraction=lda_cfg.vocab_max_df_fraction)
    lda = lda_fit(dtm, lda_cfg)
    emb = np.array(embed_postings(provider, postings))
    km = kmeans_fit(emb, cfg.kmeans["K"], seed=derive_seed(cfg.seed, "topics.kmeans"))
    dm = density_topics(emb, min_cluster_size=mcs, k_reduced=k_reduced,
                        seed=derive_seed(cfg.seed, "topics.density"))
    km_terms = cluster_terms(km.assignments, dtm)
    dm_terms = cluster_terms(dm.labels, dtm)

    # written only once all three models are fitted, so a failed run leaves
    # no topic file newer than the others
    lda_terms = {k: top_terms(row, dtm.vocab) for k, row in enumerate(lda.phi)}
    lda_sizes = np.bincount(lda.theta.argmax(axis=1), minlength=lda_cfg.K).tolist()
    write_json(out / "lda_topics.json", {
        "K": lda_cfg.K, "iterations": lda_cfg.iterations,
        "log_likelihood_trace": lda.log_likelihood_trace,
        "topics": topic_entries(dict(enumerate(lda_sizes)), lda_terms)})
    write_json(out / "kmeans_clusters.json", {
        "K": cfg.kmeans["K"], "wcss": km.wcss,
        "clusters": topic_entries({c: int((km.assignments == c).sum()) for c in km_terms},
                                  km_terms)})
    write_json(out / "density_topics.json", {
        "min_cluster_size": mcs, "all_noise": dm.all_noise,
        "noise_count": int((dm.labels == -1).sum()),
        "topics": topic_entries(dm.topic_sizes, dm_terms)})
    matrix = temporal_weights(dm.labels.tolist(), years)
    write_csv(out / "topic_over_time.csv", ["year", "topic_id", "count", "weight"],
              [[year, topic, matrix.counts[year][topic], float(matrix.weights[year][topic])]
               for year in matrix.years for topic in matrix.topics])
    return {"lda_topics": lda_cfg.K, "density_topics": len(dm.topic_sizes),
            "vocab": dtm.n_terms}


def stage_forecast(cfg: RunConfig, out: Path, workers: Workers) -> dict:
    series = rate_series_from_csv(out)
    horizon = cfg.forecast["horizon"]
    specs = [
        ("smoothed_arima(1,1,1)",
         ArimaSpec(1, 1, 1, smoothing_alpha=cfg.forecast["smoothing_alpha"])),
        ("arima(2,0,2)", ArimaSpec(2, 0, 2)),
    ]
    rows = []
    for cat in SKILL_CATEGORIES:
        s = series[cat]
        for spec_name, spec in specs:
            fc = forecast_series(s, spec, horizon=horizon)
            for year, rate in s.points:
                rows.append([cat, spec_name, year, float(rate), float(rate), float(rate), 0])
            for year, point, lower, upper in fc.forecasts:
                rows.append([cat, spec_name, year, float(point), float(lower),
                             float(upper), 1])
    write_csv(out / "forecast.csv",
              ["label", "spec", "year", "value", "lower", "upper", "is_forecast"],
              rows)
    return {"series": len(SKILL_CATEGORIES) * len(specs), "horizon": horizon}


def stage_correlate(cfg: RunConfig, out: Path, workers: Workers) -> dict:
    series = rate_series_from_csv(out)
    matrix = pearson_matrix(series)
    rows = []
    for i, label in enumerate(matrix.labels):
        row = [label]
        for j in range(len(matrix.labels)):
            v = matrix.entries[i, j]
            row.append("undefined" if np.isnan(v) else float(v))
        rows.append(row)
    write_csv(out / "correlation.csv", ["category"] + list(matrix.labels), rows)
    lo, hi = matrix.off_diagonal_extremes()
    return {"min_off_diagonal": lo, "max_off_diagonal": hi}


def stage_sectors(cfg: RunConfig, out: Path, workers: Workers) -> dict:
    postings = load_postings(out)
    rows = sector_rates(postings, read_flag_rows(out, postings))
    write_csv(out / "sector_rates.csv",
              ["sector", "year", "postings"] + list(SKILL_CATEGORIES), rows)
    return {"rows": len(rows)}


REPORT_TABLES = (
    "skill_rates.csv", "framing_by_year.csv", "framing_by_sector.csv",
    "topic_over_time.csv", "forecast.csv", "correlation.csv", "sector_rates.csv",
    "lda_topics.json", "density_topics.json",
)


def stage_report(cfg: RunConfig, out: Path, workers: Workers) -> dict:
    cleanse_report = json.loads((out / "cleanse_report.json").read_text(encoding="utf-8"))
    header, rate_rows = read_csv(out / "skill_rates.csv")
    rates_by_year = {r[0]: dict(zip(header, r)) for r in rate_rows}
    fy_header, fy_rows = read_csv(out / "framing_by_year.csv")
    mean_fi = {r[0]: float(dict(zip(fy_header, r))["fi"]) for r in fy_rows}
    density = json.loads((out / "density_topics.json").read_text(encoding="utf-8"))
    corr_header, corr_rows = read_csv(out / "correlation.csv")
    off_diag = []
    for i, row in enumerate(corr_rows):
        for j, v in enumerate(row[1:]):
            if i != j and v != "undefined":
                off_diag.append(float(v))
    fc_header, fc_rows = read_csv(out / "forecast.csv")
    endpoints: dict[str, dict[str, float]] = {}
    for row in fc_rows:
        rec = dict(zip(fc_header, row))
        if rec["is_forecast"] == "1":
            endpoints.setdefault(rec["label"], {})[rec["spec"]] = float(rec["value"])

    tables = {
        name: {"path": name, "rows": count_rows(out / name),
               "sha256": sha256_file(out / name)}
        for name in REPORT_TABLES
    }
    summary = {
        "tool_version": __version__,
        "tables": tables,
        "headline": {
            "input_records": cleanse_report["input"],
            "retained_postings": cleanse_report["retained"],
            "rejections": cleanse_report["rejected"],
            "rates_per_1000_by_year": rates_by_year,
            "mean_framing_index_by_year": mean_fi,
            "density_topic_sizes": {k: v["size"] for k, v in density["topics"].items()},
            "correlation_extremes": {
                "min_off_diagonal": min(off_diag) if off_diag else None,
                "max_off_diagonal": max(off_diag) if off_diag else None,
            },
            "forecast_endpoints": endpoints,
        },
    }
    write_json(out / "summary.json", summary)

    md = ["# skillscope run summary", "",
          f"- tool version: {__version__}",
          f"- input records: {cleanse_report['input']}",
          f"- retained postings: {cleanse_report['retained']}", "",
          "## Tables", ""]
    for name, meta in tables.items():
        md.append(f"- `{name}`: {meta['rows']} rows")
    md += ["", "## Mean framing index by year", ""]
    for year in sorted(mean_fi):
        md.append(f"- {year}: {mean_fi[year]:+.4f}")
    if off_diag:
        md += ["", f"Correlation off-diagonal range: "
                   f"{min(off_diag):.4f} .. {max(off_diag):.4f}"]
    atomic_write(out / "summary.md", [line + "\n" for line in md])
    return {"tables": len(tables)}


@dataclass(frozen=True)
class Stage:
    run: Callable[[RunConfig, Path, Workers], dict]  # (cfg, output dir, workers) -> counts
    inputs: tuple[str, ...]   # artifacts read from the output dir, checked in order
    outputs: tuple[str, ...]  # artifacts written, checksummed into the manifest


# The pipeline in run order. A stage reads only its inputs, which earlier
# stages write; ingest reads the configured sources.
PIPELINE: dict[str, Stage] = {
    "ingest": Stage(stage_ingest, (), ("raw_records.ndjson", "ingest_report.json")),
    "cleanse": Stage(stage_cleanse, ("raw_records.ndjson",),
                     ("postings.ndjson", "cleanse_report.json")),
    "extract": Stage(stage_extract, ("postings.ndjson",),
                     ("skill_flags.ndjson", "skill_rates.csv")),
    "framing": Stage(stage_framing, ("postings.ndjson", "skill_flags.ndjson"),
                     ("framing.ndjson", "framing_by_year.csv", "framing_by_sector.csv")),
    "topics": Stage(stage_topics, ("postings.ndjson",),
                    ("lda_topics.json", "kmeans_clusters.json", "density_topics.json",
                     "topic_over_time.csv")),
    "forecast": Stage(stage_forecast, ("skill_rates.csv",), ("forecast.csv",)),
    "correlate": Stage(stage_correlate, ("skill_rates.csv",), ("correlation.csv",)),
    "sectors": Stage(stage_sectors, ("postings.ndjson", "skill_flags.ndjson"),
                     ("sector_rates.csv",)),
    "report": Stage(stage_report,
                    REPORT_TABLES + ("cleanse_report.json", "kmeans_clusters.json"),
                    ("summary.json", "summary.md")),
}


def run_stage(name: str, cfg: RunConfig, jobs: int = 1) -> dict:
    stage = PIPELINE[name]
    out = cfg.output_dir
    for artifact in stage.inputs:
        if not (out / artifact).exists():
            raise MissingUpstreamError(artifact)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(out, cfg)
    workers = Workers(jobs)
    started = time.monotonic()
    counts = stage.run(cfg, out, workers)
    elapsed = time.monotonic() - started
    manifest.record(name, [out / f for f in stage.outputs], elapsed, counts,
                    jobs, workers.processes)
    return counts


def run_all(cfg: RunConfig, jobs: int = 1) -> None:
    for name in PIPELINE:
        run_stage(name, cfg, jobs)


def cmd_validate(args) -> int:
    ok = True
    for kind, loader, path in (("taxonomy", load_taxonomy, args.taxonomy),
                               ("anchors", load_anchors, args.anchors),
                               ("sectors", load_sectors, args.sectors)):
        try:
            loader(path)
            print(f"{kind}: OK ({path or 'bundled default'})")
        except SkillscopeError as e:
            print(f"{kind}: INVALID - {e}")
            ok = False
    return EXIT_OK if ok else EXIT_CONFIG


def cmd_demo(args) -> int:
    from .fixtures import write_demo_corpus
    run_path = write_demo_corpus(args.out, seed=args.seed)
    print(f"demo corpus and config written; run: skillscope all --config {run_path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="skillscope",
                                     description="job-postings corpus analytics pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*PIPELINE, "all"]:
        p = sub.add_parser(name, help=f"run the {name} stage" if name != "all"
                           else "run every stage in pipeline order")
        p.add_argument("--config", required=True)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)

    v = sub.add_parser("validate", help="validate lexicon files without running")
    v.add_argument("--taxonomy", default=None)
    v.add_argument("--anchors", default=None)
    v.add_argument("--sectors", default=None)

    d = sub.add_parser("demo", help="write the bundled synthetic demo corpus")
    d.add_argument("--out", required=True)
    d.add_argument("--seed", type=int, default=7)

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "demo":
            return cmd_demo(args)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        cfg = RunConfig.load(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
            cfg.raw["seed"] = args.seed
        if args.out is not None:
            cfg.output_dir = Path(args.out)
        if args.command == "all":
            run_all(cfg, jobs=args.jobs)
        else:
            run_stage(args.command, cfg, jobs=args.jobs)
        return EXIT_OK
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingUpstreamError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISSING_UPSTREAM
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # a bug, not bad input: one line naming the type
        print(f"internal error: {e!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
