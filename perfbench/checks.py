"""Correctness checks run on every benchmark pass.

They pin invariants and the structure planted by the generator, not the
bytes of any model, so a legitimate algorithm swap (say, another LDA
inference method) still passes. Each failure is charged to the stage whose
artifact shows it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# The artifacts each stage documents in the README.
ARTIFACTS = {
    "ingest": ["raw_records.ndjson", "ingest_report.json"],
    "cleanse": ["postings.ndjson", "cleanse_report.json"],
    "extract": ["skill_flags.ndjson", "skill_rates.csv"],
    "framing": ["framing.ndjson", "framing_by_year.csv", "framing_by_sector.csv"],
    "topics": ["lda_topics.json", "kmeans_clusters.json", "density_topics.json",
               "topic_over_time.csv"],
    "forecast": ["forecast.csv"],
    "correlate": ["correlation.csv"],
    "sectors": ["sector_rates.csv"],
    "report": ["summary.json", "summary.md"],
}
STAGE_OF = {name: stage for stage, names in ARTIFACTS.items() for name in names}


def digests_of_files(paths, base: Path) -> str:
    """One sha256 over the paths (relative to ``base``) and bytes of ``paths``,
    in the order given."""
    h = hashlib.sha256()
    for path in paths:
        data = path.read_bytes()
        h.update(f"{path.relative_to(base).as_posix()}\0{len(data)}\0".encode("utf-8") + data)
    return h.hexdigest()


def digests(out: Path, stages) -> dict[str, str]:
    """sha256 of every declared artifact present (run_manifest.json, which
    records timings, is not an artifact)."""
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for stage in stages for name in ARTIFACTS[stage] if (out / name).exists()}


def _ndjson(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def _csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _slope(points: list[tuple[float, float]]) -> float:
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in points) / sxx if sxx else 0.0


def _check_ingest(out, corpus):
    records = _ndjson(out / "raw_records.ndjson")
    if len(records) != corpus.records:
        yield f"raw_records has {len(records)} rows, generator expects {corpus.records}"
    dups = sum(s["duplicates_removed"] for s in _json(out / "ingest_report.json").values())
    if dups != corpus.duplicates:
        yield f"ingest removed {dups} duplicates, generator planted {corpus.duplicates}"


def _check_cleanse(out, corpus):
    report = _json(out / "cleanse_report.json")
    if report["input"] != report["retained"] + sum(report["rejected"].values()):
        yield f"cleanse report does not conserve records: {report}"
    if report["input"] != corpus.records:
        yield f"cleanse read {report['input']} records, generator expects {corpus.records}"
    if report["retained"] != corpus.retained:
        yield f"cleanse retained {report['retained']}, generator has {corpus.retained} valid rows"
    ids = [p["id"] for p in _ndjson(out / "postings.ndjson")]
    if len(ids) != report["retained"]:
        yield f"postings.ndjson has {len(ids)} rows, report says {report['retained']}"
    if len(set(ids)) != len(ids):
        yield f"posting ids are not unique: {len(ids) - len(set(ids))} repeats"


def _check_extract(out, corpus):
    flags = _ndjson(out / "skill_flags.ndjson")
    if len(flags) != corpus.retained:
        yield f"skill_flags has {len(flags)} rows for {corpus.retained} postings"
    rates = _csv(out / "skill_rates.csv")
    if sum(int(r["postings"]) for r in rates) != corpus.retained:
        yield "skill_rates posting counts do not sum to the retained postings"
    if _slope([(int(r["year"]), float(r["AI_Data"])) for r in rates]) <= 0:
        yield "planted rise of the AI_Data rate not recovered"
    if _slope([(int(r["year"]), float(r["Routine"])) for r in rates]) >= 0:
        yield "planted fall of the Routine rate not recovered"


def _check_framing(out, corpus):
    rows = _ndjson(out / "framing.ndjson")
    if len(rows) != corpus.retained:
        yield f"framing has {len(rows)} rows for {corpus.retained} postings"
    by_year = _csv(out / "framing_by_year.csv")
    if _slope([(int(r["year"]), float(r["fi"])) for r in by_year]) <= 0:
        yield "planted rise of the mean framing index not recovered"


def _check_topics(out, corpus):
    n = corpus.retained
    lda = sum(t["size"] for t in _json(out / "lda_topics.json")["topics"].values())
    if lda != n:
        yield f"LDA topic sizes sum to {lda}, not {n}"
    km = sum(c["size"] for c in _json(out / "kmeans_clusters.json")["clusters"].values())
    if km != n:
        yield f"k-means cluster sizes sum to {km}, not {n}"
    density = _json(out / "density_topics.json")
    dn = sum(t["size"] for t in density["topics"].values()) + density["noise_count"]
    if dn != n:
        yield f"density topic sizes plus noise sum to {dn}, not {n}"


def _check_forecast(out, corpus):
    for row in _csv(out / "forecast.csv"):
        values = [float(row[k]) for k in ("value", "lower", "upper")]
        if not all(math.isfinite(v) for v in values):
            yield f"non-finite forecast row {row}"
            return


def _check_correlate(out, corpus):
    with open(out / "correlation.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    cells = [row[1:] for row in rows]
    k = len(header) - 1
    if len(cells) != k or any(len(row) != k for row in cells):
        yield "correlation matrix is not square"
        return
    for i in range(k):
        if cells[i][i] == "undefined" or not math.isclose(float(cells[i][i]), 1.0,
                                                          rel_tol=1e-12):
            yield f"correlation diagonal entry {header[i + 1]} is {cells[i][i]}, not 1"
        for j in range(i):
            if cells[i][j] != cells[j][i]:
                yield f"correlation matrix not symmetric at ({i}, {j})"


def _check_sectors(out, corpus):
    rows = _csv(out / "sector_rates.csv")
    if not rows:
        yield "sector_rates is empty"
    if sum(int(r["postings"]) for r in rows) > corpus.retained:
        yield "sector posting counts exceed the retained postings"


def _check_report(out, corpus):
    headline = _json(out / "summary.json")["headline"]
    if headline["retained_postings"] != corpus.retained:
        yield f"summary reports {headline['retained_postings']} retained postings"


CHECKS = {
    "ingest": _check_ingest, "cleanse": _check_cleanse, "extract": _check_extract,
    "framing": _check_framing, "topics": _check_topics, "forecast": _check_forecast,
    "correlate": _check_correlate, "sectors": _check_sectors, "report": _check_report,
}


def check_outputs(out: Path, stages, corpus) -> dict[str, list[str]]:
    """Failures per stage for the artifacts a pass over ``stages`` wrote."""
    failures: dict[str, list[str]] = {}
    for stage in stages:
        missing = [name for name in ARTIFACTS[stage] if not (out / name).exists()]
        if missing:
            failures[stage] = [f"missing artifact {name}" for name in missing]
            continue
        try:
            problems = list(CHECKS[stage](out, corpus))
        except (KeyError, ValueError, TypeError) as e:  # unreadable or malformed artifact
            problems = [f"malformed artifact: {type(e).__name__}: {e}"]
        if problems:
            failures[stage] = problems
    return failures
