"""Deterministic synthetic demo corpus.

Generates a small job-postings CSV with planted structure: AI/data skill
prevalence rising across 2018-2025 while routine-task prevalence falls,
sector triggers spread across the nine sectors, and augmentation language
gradually displacing automation language. A handful of noise rows (French,
too-short, bad dates, duplicates) exercise the cleanse and dedup paths.
Everything is driven by one seed, so two runs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

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


def _prevalence(year: int, start: float, end: float) -> float:
    return start + (end - start) * (year - YEARS[0]) / (YEARS[-1] - YEARS[0])


def generate_rows(n: int = 200, seed: int = 7) -> list[tuple[str, str]]:
    """(date, description) rows: n valid postings plus fixed noise rows."""
    rng = random.Random(seed)
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
            rng.shuffle(parts)
            rows.append((date, " ".join(parts)))
    # noise rows: non-English, too short, bad dates, plus planted duplicates
    rows.append(("2022-03-04", "Nous recherchons une personne motivée pour rejoindre notre équipe parisienne rapidement."))
    rows.append(("2021-06-10", "Buscamos una persona responsable para unirse a nuestro equipo de ventas en Madrid."))
    rows.append(("2020-01-15", "Short ad, apply now."))
    rows.append(("not-a-date", rows[0][1] + " Distinct tail for the bad date row."))
    rows.append(("2019-09-09", rows[3][1].upper()))  # duplicate of an earlier valid row
    rows.append(("2023-05-05", rows[10][1]))          # exact duplicate
    return rows


def write_demo_corpus(out_dir: str | Path, n: int = 200, seed: int = 7) -> Path:
    """Materialize the demo corpus and a ready-to-run config, whose paths are
    absolute; returns the run config path."""
    out = Path(out_dir).resolve()
    out.mkdir(parents=True, exist_ok=True)
    rows = generate_rows(n=n, seed=seed)
    with open(out / "postings.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "description"])
        writer.writerows(rows)

    manifest = [{
        "path_or_url": str(out / "postings.csv"),
        "format": "csv",
        "date_field": "date",
        "text_field": "description",
    }]
    (out / "sources.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")

    config = {
        "sources": str(out / "sources.json"),
        "output_dir": str(out / "results"),
        "seed": seed,
        "embedding": {"kind": "hashed", "dimension": 256},
        "lda": {"K": 6, "iterations": 150},
        "kmeans": {"K": 6},
        "density": {"k_reduced": 8},
        "forecast": {"horizon": 2, "smoothing_alpha": 0.5},
    }
    run_path = out / "run.json"
    run_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return run_path
