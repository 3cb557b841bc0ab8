"""Seeded inputs for the three benchmark workloads.

The benchmark owns its inputs: nothing here imports skillscope, so a change
to the package cannot change what the benchmark feeds it. The demo-shaped
rows reproduce the package's demo corpus (``fixtures.write_demo_corpus``)
byte for byte at the commit that introduced the benchmark.

Every corpus carries the same planted structure (AI/data skills rising over
2018-2025, routine tasks falling, augmentation language displacing
automation language) and the same planted noise rows (French, Spanish, too
short, bad date, case and exact duplicates), so every cleanse filter and the
dedup path fire and the retained count is known ahead of time.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import escape

WORKLOADS = ("demo-2k", "wide-10k", "topics-3k")

FILLER_SENTENCES = [
    "We are looking for a motivated professional to join our growing team in a fast paced environment.",
    "The successful candidate will work closely with colleagues across several departments every single day.",
    "You will be responsible for delivering high quality results on schedule and within the agreed budget.",
    "Our organization offers a competitive salary, flexible working hours and generous holiday allowance.",
    "Applicants should be comfortable presenting their work to stakeholders and senior management regularly.",
    "This role offers excellent opportunities for professional growth and ongoing training throughout the year.",
    "Candidates must hold a relevant degree or demonstrate equivalent practical experience from previous roles.",
    "The position is full time and based in our central office with occasional travel to client sites.",
]

SECTOR_SNIPPETS = {
    "IT": "As a developer you will maintain backend services and support the devops toolchain.",
    "Healthcare": "The nurse will coordinate patient schedules and assist clinical staff at the hospital.",
    "Legal": "Our lawyer supports litigation and works with the attorney team at the law firm.",
    "Education": "The teacher plans classroom activities and develops curriculum with the lecturer group.",
    "Design": "The designer leads graphic design work and reviews ux and ui deliverables.",
    "Finance": "The accountant prepares audit files and supports banking and investment reporting.",
    "Logistics": "Warehouse staff manage freight and shipping and keep the logistics schedule moving.",
    "Sales": "The sales representative works with the account executive on business development targets.",
    "Management": "The manager reports to the director and leads a team lead group day to day.",
}

AI_SNIPPETS = [
    "Experience with prompt engineering and model monitoring is essential for this position.",
    "You will apply machine learning and fine-tuning techniques using python every week.",
    "Familiarity with gpt tooling, mlops practice and model validation is required.",
]

ROUTINE_SNIPPETS = [
    "Daily duties include data entry and filing of incoming paperwork for the office.",
    "The role covers invoice processing, photocopying and routine maintenance of records.",
    "You will handle order processing and manual coding of legacy spreadsheets.",
]

SOFT_SNIPPETS = [
    "Strong communication, teamwork and problem solving are expected from every member.",
    "We value critical thinking, adaptability and careful attention to detail in all work.",
]

LEADERSHIP_SNIPPETS = [
    "Strategic planning and people management experience will set candidates apart.",
    "The role includes stakeholder management, mentoring and decision making duties.",
]

DOMAIN_SNIPPETS = [
    "Knowledge of regulatory compliance and contract review processes is a plus.",
    "Background in patient care or clinical trials would strengthen an application.",
]

AUGMENT_SNIPPETS = [
    "Modern tools assist the team and provide decision support with human-in-the-loop review.",
    "We co-create solutions and build hybrid intelligence workflows together with analysts.",
]

AUTOMATE_SNIPPETS = [
    "Several workflows are automated and robotic process automation will replace slower steps.",
    "We operate autonomous pipelines and expand automation across reporting tasks.",
]

YEARS = list(range(2018, 2026))

# English syllables: pseudo-words built from them keep the language
# detector's English verdict while adding tens of thousands of new terms.
SYLLABLES = [
    "ber", "cal", "con", "der", "dis", "el", "en", "er", "fer", "gen", "im",
    "in", "ing", "ist", "lan", "ler", "man", "mer", "ment", "min", "mon",
    "nal", "ness", "or", "pen", "per", "por", "pro", "ran", "ren", "ser",
    "sion", "tal", "ter", "tin", "tion", "ton", "tor", "ver", "vis",
]
PSEUDO_VOCAB = 50_000
ZIPF_EXPONENT = 0.85
TAIL_WORDS = (10, 20)

DEMO_RUN = {
    "embedding": {"kind": "hashed", "dimension": 256},
    "lda": {"K": 6, "iterations": 150},
    "kmeans": {"K": 6},
    "density": {"k_reduced": 8},
    "forecast": {"horizon": 2, "smoothing_alpha": 0.5},
}


def _prevalence(year: int, start: float, end: float) -> float:
    return start + (end - start) * (year - YEARS[0]) / (YEARS[-1] - YEARS[0])


def planted_rows(n: int, rng: random.Random, tail=None) -> list[tuple[str, str]]:
    """n valid (date, description) rows with the planted trends.

    ``tail(rng)`` returns one extra sentence per row; without it the draws
    are exactly those of the package's demo generator.
    """
    rows: list[tuple[str, str]] = []
    sectors = list(SECTOR_SNIPPETS)
    per_year = n // len(YEARS)
    extra = n - per_year * len(YEARS)
    for yi, year in enumerate(YEARS):
        count = per_year + (1 if yi < extra else 0)
        for i in range(count):
            date = f"{year}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
            parts = [rng.choice(FILLER_SENTENCES) for _ in range(3)]
            parts.append(SECTOR_SNIPPETS[sectors[(yi * per_year + i) % len(sectors)]])
            if rng.random() < _prevalence(year, 0.10, 0.80):
                parts.append(rng.choice(AI_SNIPPETS))
            if rng.random() < _prevalence(year, 0.40, 0.10):
                parts.append(rng.choice(ROUTINE_SNIPPETS))
            if rng.random() < 0.5:
                parts.append(rng.choice(SOFT_SNIPPETS))
            if rng.random() < 0.3:
                parts.append(rng.choice(LEADERSHIP_SNIPPETS))
            if rng.random() < 0.3:
                parts.append(rng.choice(DOMAIN_SNIPPETS))
            if rng.random() < _prevalence(year, 0.20, 0.70):
                parts.append(rng.choice(AUGMENT_SNIPPETS))
            if rng.random() < _prevalence(year, 0.50, 0.20):
                parts.append(rng.choice(AUTOMATE_SNIPPETS))
            if tail is not None:
                parts.append(tail(rng))
            rng.shuffle(parts)
            rows.append((date, " ".join(parts)))
    return rows


def noise_rows(rows: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """Non-English, too short, bad date, a case duplicate and an exact
    duplicate of earlier rows; appended after ``rows``."""
    return [
        ("2022-03-04", "Nous recherchons une personne motivée pour rejoindre notre équipe parisienne rapidement."),
        ("2021-06-10", "Buscamos una persona responsable para unirse a nuestro equipo de ventas en Madrid."),
        ("2020-01-15", "Short ad, apply now."),
        ("not-a-date", rows[0][1] + " Distinct tail for the bad date row."),
        ("2019-09-09", rows[3][1].upper()),
        ("2023-05-05", rows[10][1]),
    ]


def demo_rows(n: int, seed: int) -> list[tuple[str, str]]:
    rows = planted_rows(n, random.Random(seed))
    return rows + noise_rows(rows)


class ZipfTail:
    """One sentence of Zipf-distributed pseudo-words per call."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        combos = [a + b + c for a, b, c in itertools.product(SYLLABLES, repeat=3)]
        self.words = rng.sample(sorted(set(combos)), PSEUDO_VOCAB)
        self.cum = list(itertools.accumulate(
            1.0 / r ** ZIPF_EXPONENT for r in range(1, PSEUDO_VOCAB + 1)))

    def __call__(self, rng: random.Random) -> str:
        k = rng.randint(*TAIL_WORDS)
        words = rng.choices(self.words, cum_weights=self.cum, k=k)
        return " ".join(words).capitalize() + "."


def wide_rows(n: int, seed: int) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    tail = ZipfTail(rng.getrandbits(64))
    return planted_rows(n, rng, tail=tail)


def dedup_key(text: str) -> str:
    """Duplicates are texts equal after case folding and whitespace collapse."""
    return " ".join(text.casefold().split())


@dataclass
class Corpus:
    """A generated workload: its run config and what the pipeline must find."""
    config: Path
    records: int        # raw records left after ingest dedup
    duplicates: int     # records ingest must drop as duplicates
    retained: int       # postings cleanse must keep


def _expected(sources: list[tuple[list[tuple[str, str]], int]]) -> tuple[int, int, int]:
    """(records, duplicates, retained) for sources read in order; the first
    ``valid`` rows of each source are valid postings, the rest noise."""
    seen: set[str] = set()
    records = duplicates = retained = 0
    for rows, valid in sources:
        for i, (_, text) in enumerate(rows):
            key = dedup_key(text)
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            records += 1
            retained += i < valid
    return records, duplicates, retained


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["date", "description"])
    writer.writerows(rows)
    return buf.getvalue()


def _xml_text(rows) -> str:
    items = "".join(f"<posting><date>{escape(d)}</date><description>{escape(t)}</description></posting>\n"
                    for d, t in rows)
    return f"<postings>\n{items}</postings>\n"


def _objects(rows) -> list[dict]:
    return [{"date": d, "description": t} for d, t in rows]


def _write_source(path: Path, fmt: str, rows) -> dict:
    if fmt == "csv":
        text = _csv_text(rows)
    elif fmt == "json":
        text = json.dumps({"postings": _objects(rows)})
    elif fmt == "ldjson":
        text = "".join(json.dumps(o) + "\n" for o in _objects(rows))
    elif fmt == "xml":
        text = _xml_text(rows)
    else:  # api: replay pages served by the package's replay transport
        objs = _objects(rows)
        text = json.dumps({"pages": [{"data": objs[i:i + 250]} for i in range(0, len(objs), 250)]})
    path.write_bytes(text.encode("utf-8"))
    return {"path_or_url": str(path), "format": fmt,
            "date_field": "date", "text_field": "description"}


def _write_config(out: Path, specs: list[dict], seed: int, overrides: dict) -> Path:
    (out / "sources.json").write_text(json.dumps(specs, indent=2), encoding="utf-8")
    config = {"sources": str(out / "sources.json"), "output_dir": str(out / "results"),
              "seed": seed, **DEMO_RUN, **overrides}
    path = out / "run.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


WIDE_FORMATS = ("csv", "json", "ldjson", "xml", "api")


def generate(workload: str, seed: int, out: Path) -> Corpus:
    """Write the workload's sources and run config under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "demo-2k":
        rows = demo_rows(2000, seed)
        spec = _write_source(out / "postings.csv", "csv", rows)
        sources = [(rows, 2000)]
        config = _write_config(out, [spec], seed, {})
    elif workload == "wide-10k":
        # five sources, one per format; each repeats the planted noise and
        # duplicates one row of the previous source exactly and in capitals
        rows = wide_rows(10_000, seed)
        sources, specs = [], []
        for s, fmt in enumerate(WIDE_FORMATS):
            own = rows[s * 2000:(s + 1) * 2000]
            chunk = own + noise_rows(own)
            if s:
                prev = rows[(s - 1) * 2000:s * 2000]
                chunk += [prev[5], (prev[7][0], prev[7][1].upper())]
            ext = "json" if fmt == "api" else fmt
            specs.append(_write_source(out / f"wide_{fmt}.{ext}", fmt, chunk))
            sources.append((chunk, 2000))
        config = _write_config(out, specs, seed, {})
    elif workload == "topics-3k":
        rows = wide_rows(3000, seed)
        rows += noise_rows(rows)
        spec = _write_source(out / "topics_postings.csv", "csv", rows)
        sources = [(rows, 3000)]
        config = _write_config(out, [spec], seed, {"lda": {"K": 6, "iterations": 5}})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    records, duplicates, retained = _expected(sources)
    return Corpus(config=config, records=records, duplicates=duplicates, retained=retained)
