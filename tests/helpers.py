"""Shared fixtures and checks used by the module tests and the acceptance suite."""

import csv
import json
import os

import numpy as np
import pytest

from skillscope.fixtures import write_demo_corpus
from skillscope.ingest import RawRecord

VALID_EN = (
    "We are looking for a motivated professional to join our growing team. "
    "The successful candidate will work closely with colleagues across several "
    "departments and will be responsible for delivering high quality results "
    "on schedule and within the agreed budget every single week of the year."
)

FRENCH = (
    "Nous recherchons une personne motivée pour rejoindre notre équipe en pleine "
    "croissance. Le candidat retenu travaillera en étroite collaboration avec des "
    "collègues de plusieurs départements pour fournir des résultats de haute qualité."
)

SHORT_EN = (
    "Apply now to join our friendly team and start working with us on great "
    "projects this coming spring season."
)  # well under 30 tokens but clearly English


def labeled_cleanse_batch():
    """100 records with hand labels: 60 retained, 20 non_english, 10 too_short,
    10 bad_date."""
    records, labels = [], []
    n = 0

    def add(text, date, label):
        nonlocal n
        records.append(RawRecord(source_id=f"fix:{n}", raw_date=date,
                                 raw_text=text, source_format="csv"))
        labels.append(label)
        n += 1

    for i in range(60):
        add(f"{VALID_EN} Posting reference number {i}.", f"2022-03-{i % 28 + 1:02d}", "retained")
    for i in range(20):
        add(f"{FRENCH} Référence numéro {i}.", "2021-06-10", "non_english")
    for i in range(10):
        add(f"{SHORT_EN} Ref {i}.", "2020-01-15", "too_short")
    for i in range(10):
        add(f"{VALID_EN} Second reference {i}.", "n/a", "bad_date")
    return records, labels


def dense(dtm):
    """The D×V count matrix of a DocTermMatrix (int64), for reference checks."""
    out = np.zeros((dtm.n_docs, dtm.n_terms), dtype=np.int64)
    for d in range(dtm.n_docs):
        cells = slice(dtm.indptr[d], dtm.indptr[d + 1])
        out[d, dtm.indices[cells]] = dtm.doc_counts[cells]
    return out


def assert_no_children() -> None:
    """Every worker has been waited for: none is running, and none is left
    for waitpid to reap."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write_three_sources(tmp_path):
    """The 60-posting demo corpus read from three sources, csv, ldjson and an
    api replay file, the last two repeating rows of the first so duplicates
    are charged across sources; the path of its run.json."""
    run = write_demo_corpus(tmp_path, n=60)
    with open(tmp_path / "postings.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    (tmp_path / "jobs.ldjson").write_text("".join(json.dumps(r) + "\n" for r in rows[::2]))
    (tmp_path / "jobs_api.json").write_text(json.dumps({"pages": [{"data": rows[1::3]}]}))
    (spec,) = json.loads((tmp_path / "sources.json").read_text())
    (tmp_path / "sources.json").write_text(json.dumps([
        spec, {**spec, "path_or_url": "jobs.ldjson", "format": "ldjson"},
        {**spec, "path_or_url": "jobs_api.json", "format": "api"}]))
    return run
