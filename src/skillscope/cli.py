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
from dataclasses import asdict, dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import __version__, parallel
from .arima import ArimaSpec
from .cleanse import CleanseConfig, CleanseReport, Posting, cleanse
from .config import check_fields, check_utf8, read_json
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
        top = check_fields(raw, CONFIG_FIELDS, f"config {path}")
        self.lda, self.kmeans, self.density, self.forecast = (
            check_fields(top[name], fields, f"config {name!r}")
            for name, fields in MODEL_FIELDS.items())
        if not top["sources"]:
            raise ConfigError("config field 'sources' is required")
        if top["granularity"] != "year":
            raise ConfigError("granularity must be 'year'")
        # a path in run.json is taken relative to the directory run.json is in
        files = {field: path.parent / top[field] for field in FILE_FIELDS if top[field]}
        self.embedding = dict(top["embedding"])
        if spec_arguments(self.embedding)[0] == "file":
            files["embedding.path"] = path.parent / self.embedding["path"]
            self.embedding["path"] = str(files["embedding.path"])
        else:  # a provider checks its own bounds; a file provider would read its whole file
            provider_from_spec(self.embedding)
        for field, file in files.items():
            if not file.is_file():
                problem = "not a file" if file.exists() else "file not found"
                raise ConfigError(f"config field {field!r}: {problem}: {file}")
        if "embedding.path" in files:  # a file provider reads it only when a stage starts
            check_utf8(files["embedding.path"], "config field 'embedding.path'")
        self.sources = load_manifest(files["sources"])
        self.taxonomy, self.anchors, self.sectors = (
            load_taxonomy(files.get("taxonomy")), load_anchors(files.get("anchors")),
            load_sectors(files.get("sectors")))
        self.cleanse = (CleanseConfig.from_file(files["cleanse_config"])
                        if "cleanse_config" in files else CleanseConfig())
        LdaConfig(**self.lda)
        ArimaSpec(1, 1, 1, self.forecast["smoothing_alpha"])
        self.output_dir = (path.parent / top["output_dir"] if top["output_dir"]
                           else Path(os.environ.get("SKILLSCOPE_OUT") or "out"))
        self.seed = top["seed"]

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        return cls(read_json(path, "config"), Path(path))


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


def read_csv(path: Path) -> list[dict[str, str]]:
    """Each data row as a dict keyed by the header's column names."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def write_ndjson(path: Path, rows: Iterable[dict]) -> None:
    """One sorted-key JSON object per line."""
    atomic_write(path, (json.dumps(row, sort_keys=True) + "\n" for row in rows))


def read_ndjson(path: Path, fields: Iterable[str] = ()) -> list[dict]:
    """One value per non-blank line; a line that does not parse, or whose value
    is not an object holding each of ``fields``, raises DataError naming the
    file and the line."""
    rows = []
    # line by line: the JSON is ASCII-escaped, so "\n" is its only line break;
    # each line is decoded on its own, so bad UTF-8 is caught on its line too
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    row = json.loads(line.decode("utf-8"))
                except ValueError as e:
                    raise DataError(f"{path} line {number}: {e}") from e
                if fields:
                    if not isinstance(row, dict):
                        raise DataError(f"{path} line {number}: not a JSON object")
                    missing = [f for f in fields if f not in row]
                    if missing:
                        raise DataError(f"{path} line {number}: missing field {missing[0]!r}")
                rows.append(row)
    return rows


# the object whose entries are a JSON artifact's rows; any other JSON file is one row
JSON_ROWS = {"lda_topics.json": "topics", "kmeans_clusters.json": "clusters",
             "density_topics.json": "topics"}


def count_rows(path: Path) -> int:
    """Records, not lines: CSV data rows, ndjson objects, and for JSON the
    topics or clusters of a topic model (else 1), however it is indented."""
    if path.suffix == ".json":
        key = JSON_ROWS.get(path.name)
        return len(read_json(path, "artifact", DataError)[key]) if key else 1
    with open(path, encoding="utf-8") as fh:
        lines = sum(1 for line in fh if line.strip())
    return lines - 1 if path.suffix == ".csv" and lines else lines


def describe(path: Path) -> dict:
    """An artifact's sha256 and its row count, as the manifest and the report list it."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return {"sha256": digest.hexdigest(), "rows": count_rows(path)}


class Manifest:
    def __init__(self, out: Path, cfg: RunConfig):
        self.path = out / "run_manifest.json"
        self.doc = (read_json(self.path, "run manifest", DataError)
                    if self.path.exists() else {"stages": {}})
        self.doc.update(tool_version=__version__, config=cfg.raw)

    def record(self, stage: str, outputs: list[Path], wall_clock: float,
               counts: dict | None = None, jobs: int = 1, processes: int = 1) -> None:
        import resource  # here, so that loading the CLI imports no more

        def peak_mb(who) -> float:  # ru_maxrss is in KiB
            return round(resource.getrusage(who).ru_maxrss / 1024, 1)

        self.doc["stages"][stage] = {
            "wall_clock_s": round(wall_clock, 3),
            "jobs": jobs,
            "processes": processes,
            # high-water marks since this process started: its own, and that
            # of the largest worker it has waited for
            "peak_rss_mb": peak_mb(resource.RUSAGE_SELF),
            "workers_peak_rss_mb": peak_mb(resource.RUSAGE_CHILDREN),
            "counts": counts or {},
            "outputs": {p.name: describe(p) for p in outputs},
        }
        write_json(self.path, self.doc)


# --- shared loaders ---------------------------------------------------------

# the keys every row of an ndjson artifact must hold
POSTING_FIELDS, RAW_RECORD_FIELDS = (tuple(f.name for f in dataclass_fields(cls))
                                     for cls in (Posting, RawRecord))


def load_postings(out: Path) -> list[Posting]:
    return [Posting(id=d["id"], date=dt.date.fromisoformat(d["date"]),
                    year=d["year"], description=d["description"])
            for d in read_ndjson(out / "postings.ndjson", POSTING_FIELDS)]


def read_flag_rows(out: Path, postings: list[Posting]) -> list[dict]:
    """The rows ``extract`` wrote, one per posting in order, each with its
    sector; rows of other postings or without a sector are stale."""
    rows = read_ndjson(out / "skill_flags.ndjson", ("posting_id", *SKILL_CATEGORIES))
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
    rows = read_csv(out / "skill_rates.csv")
    return {cat: RateSeries(label=(cat,), points=tuple((int(r["year"]), float(r[cat]))
                                                       for r in rows))
            for cat in SKILL_CATEGORIES}


# --- stages -----------------------------------------------------------------

class Workers:
    """A stage's ``--jobs`` budget, and the most processes it ran at once."""

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.processes = 1

    def map_chunks(self, fn, items, floor: int | None = None) -> list:
        """``parallel.map_chunks`` within this budget."""
        results = parallel.map_chunks(fn, items, self.jobs, floor)
        self.processes = max(self.processes, len(results))
        return results

    def call_all(self, calls, items: int) -> list:
        """``parallel.call_all(calls)`` when this budget allows more than one
        process and the stage's ``items`` fill two chunks of MIN_CHUNK; else
        each call in turn, here, in the same order."""
        if self.jobs == 1 or items < 2 * parallel.MIN_CHUNK or not hasattr(os, "fork"):
            return [call() for call in calls]
        self.processes = max(self.processes, len(calls))
        return parallel.call_all(calls)


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
    records = [RawRecord(**d) for d in read_ndjson(out / "raw_records.ndjson",
                                                   RAW_RECORD_FIELDS)]
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

    def clusters():
        emb = np.array(embed_postings(provider, postings))
        km = kmeans_fit(emb, cfg.kmeans["K"], seed=derive_seed(cfg.seed, "topics.kmeans"))
        dm = density_topics(emb, min_cluster_size=mcs, k_reduced=k_reduced,
                            seed=derive_seed(cfg.seed, "topics.density"))
        return km, dm, cluster_terms(km.assignments, dtm), cluster_terms(dm.labels, dtm)

    def lda():  # only what the artifact needs comes back from a worker
        model = lda_fit(dtm, lda_cfg)
        return model.phi, model.theta, model.log_likelihood_trace

    # given the processes and postings, LDA fits in a worker meanwhile
    (km, dm, km_terms, dm_terms), (phi, theta, trace) = workers.call_all(
        [clusters, lda], len(postings))

    # written only once all three models are fitted, so a failed run leaves
    # no topic file newer than the others
    lda_terms = {k: top_terms(row, dtm.vocab) for k, row in enumerate(phi)}
    lda_sizes = np.bincount(theta.argmax(axis=1), minlength=lda_cfg.K).tolist()
    write_json(out / "lda_topics.json", {
        "K": lda_cfg.K, "iterations": lda_cfg.iterations,
        "log_likelihood_trace": trace,
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

    def fit(group):
        rows = []
        for cat, (spec_name, spec) in group:
            s = series[cat]
            fc = forecast_series(s, spec, horizon=horizon)
            for year, rate in s.points:
                rows.append([cat, spec_name, year, float(rate), float(rate), float(rate), 0])
            for year, point, lower, upper in fc.forecasts:
                rows.append([cat, spec_name, year, float(point), float(lower),
                             float(upper), 1])
        return rows

    # one fit costs far more than one fork, so a group may hold a single fit
    fits = [(cat, spec) for cat in SKILL_CATEGORIES for spec in specs]
    write_csv(out / "forecast.csv",
              ["label", "spec", "year", "value", "lower", "upper", "is_forecast"],
              [row for rows in workers.map_chunks(fit, fits, floor=1) for row in rows])
    return {"series": len(fits), "horizon": horizon}


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
    cleanse_report = read_json(out / "cleanse_report.json", "artifact", DataError)
    rates_by_year = {r["year"]: r for r in read_csv(out / "skill_rates.csv")}
    mean_fi = {r["year"]: float(r["fi"]) for r in read_csv(out / "framing_by_year.csv")}
    density = read_json(out / "density_topics.json", "artifact", DataError)
    # each row's cells off the diagonal, which is the row's own category column
    off_diag = [float(v) for r in read_csv(out / "correlation.csv") for col, v in r.items()
                if col not in ("category", r["category"]) and v != "undefined"]
    endpoints: dict[str, dict[str, float]] = {}
    for r in read_csv(out / "forecast.csv"):
        if r["is_forecast"] == "1":
            endpoints.setdefault(r["label"], {})[r["spec"]] = float(r["value"])

    tables = {name: {"path": name, **describe(out / name)} for name in REPORT_TABLES}
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
