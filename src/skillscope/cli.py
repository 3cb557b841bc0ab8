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
import math
import os
import shutil
import sys
import tempfile
import time
from array import array
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, fields as dataclass_fields
from itertools import compress, pairwise
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

# One BLAS thread per process, set before numpy loads its BLAS: the forked
# --jobs workers are the only parallelism, and parallel's fork rule (no other
# thread running) holds. A value already set is left as it is.
for _threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_threads, "1")

import numpy as np

from . import __version__, parallel
from .arima import ArimaSpec
from .cleanse import REJECT_REASONS, CleanseConfig, CleanseReport, Posting, cleanse
from .config import REQUIRED, check_fields, check_utf8, conforms, read_json
from .embed import HashedProvider, provider_from_spec, spec_arguments
from .errors import ConfigError, DataError, MissingUpstreamError, SkillscopeError
from .framing import AnchorCentroids, frame_document
from .ingest import (
    ApiClientStats,
    Deduplicator,
    RawRecord,
    SourceCounts,
    dedup_key,
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
    NOISE,
    LdaConfig,
    build_dtm,
    cluster_terms,
    density_topics,
    kmeans_fit,
    lda_fit,
    scaled_min_cluster_size,
    top_terms,
)
from .trends import (
    RateSeries,
    check_alpha,
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
# holds the LDA defaults and checks the LDA bounds, check_alpha smoothing_alpha's
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
        check_alpha(self.forecast["smoothing_alpha"], "config 'forecast': smoothing_alpha")
        self.output_dir = path.parent / top["output_dir"] if top["output_dir"] else Path("out")
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


def read_csv(path: Path, columns: dict[str, Callable[[str], object]]) -> list[dict]:
    """Each data row as a dict keyed by the header's column names, with the
    cell of each of ``columns`` converted by its function. A header without
    one of ``columns``, a last row without its line end (a cut file), a row
    with more or fewer fields than the header, or a cell that does not
    convert raises DataError naming the file and the line."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except ValueError as e:
        raise DataError(f"cannot read artifact {path}: {e}") from e
    if not text.endswith("\n"):
        last = text.count("\n") + 1
        raise DataError(f"{path} line {last}: cut short, no line end")
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    rows = []
    try:
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValueError(f"no column {missing[0]!r}")
        for cells in reader:
            if len(cells) != len(header):
                raise ValueError(f"{len(cells)} fields, the header has {len(header)}")
            row = dict(zip(header, cells))
            for column, convert in columns.items():
                row[column] = convert(row[column])
            rows.append(row)
    except (ValueError, csv.Error) as e:
        raise DataError(f"{path} line {reader.line_num}: {e}") from e
    return rows


def finite(cell: str) -> float:
    """A ``read_csv`` converter: the number in a cell, which must be finite."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"{cell!r} is not a finite number")
    return value


def as_text(convert: Callable[[str], object]) -> Callable[[str], str]:
    """A ``read_csv`` converter that keeps a cell's text once ``convert`` takes it."""
    def check(cell: str) -> str:
        convert(cell)
        return cell
    return check


# what json.dumps(row, sort_keys=True) does, without making an encoder per row
_encode_row = json.JSONEncoder(sort_keys=True).encode


def ndjson_lines(rows: Iterable[dict]) -> Iterator[str]:
    """One sorted-key JSON object per line."""
    return (_encode_row(row) + "\n" for row in rows)


# each field of an ndjson artifact's rows and the JSON type its value must
# have exactly (true is no int); a field typed object may hold any value,
# which the artifact's reader checks
NDJSON_FIELDS = {
    "raw_records.ndjson": dict.fromkeys((f.name for f in dataclass_fields(RawRecord)), str),
    "postings.ndjson": {"id": str, "date": object, "year": object, "description": str},
    "skill_flags.ndjson": {"posting_id": str, **dict.fromkeys(SKILL_CATEGORIES, bool)},
}
TYPE_NAMES = {str: "a string", bool: "a bool"}


def parse_ndjson(path: Path, lines: Iterable[tuple[int, bytes]],
                 make: Callable[[dict], object] | None = None) -> list:
    """One value per line of the numbered ``lines`` of ``path``, or what
    ``make`` makes of it. A blank line or any other that does not parse, a
    row of an artifact of NDJSON_FIELDS that is not an object holding each
    of its fields with its type, or a value ``make`` rejects with ValueError
    raises DataError naming the file and the line: the pipeline writes no
    blank line, and its stages pair two files by line number."""
    fields = NDJSON_FIELDS.get(path.name)
    rows = []
    # line by line: the JSON is ASCII-escaped, so "\n" is its only line break;
    # each line is decoded on its own, so bad UTF-8 is caught on its line too
    for number, line in lines:
        try:
            if line.isspace():  # a line read from a file is never empty
                raise ValueError("a blank line")
            row = json.loads(line.decode("utf-8"))
            if fields:
                if not isinstance(row, dict):
                    raise ValueError("not a JSON object")
                missing = [f for f in fields if f not in row]
                if missing:
                    raise ValueError(f"missing field {missing[0]!r}")
                for field, kind in fields.items():
                    if kind is not object and type(row[field]) is not kind:
                        raise ValueError(f"{field} is {type(row[field]).__name__}, "
                                         f"not {TYPE_NAMES[kind]}")
            rows.append(make(row) if make else row)
        except ValueError as e:
            raise DataError(f"{path} line {number}: {e}") from e
    return rows


def line_starts(fh: BinaryIO) -> np.ndarray:
    """Where each line of the binary file ``fh`` starts, from one read in
    64 KiB blocks, and the file's size last: line k (from 1) is the bytes
    ``[starts[k - 1], starts[k])``, as reading ``fh`` by lines splits it."""
    blocks, size = [np.zeros(1, dtype=np.int64)], 0
    while block := fh.read(1 << 16):
        blocks.append(np.flatnonzero(np.frombuffer(block, dtype=np.uint8) == 10) + size + 1)
        size += len(block)
    starts = np.concatenate(blocks)
    return starts if starts[-1] == size else np.append(starts, size)  # a last line without its end


class NdjsonLines:
    """An ndjson file read by ranges of line numbers. This process keeps only
    where each line starts (``line_starts``, 8 bytes a line); a range is read
    with ``os.pread`` and parsed with ``parse_ndjson``'s checks and ``make``,
    so its line numbers and messages are those of the whole file."""

    def __init__(self, fh: BinaryIO, path: Path, make: Callable[[dict], object] | None = None):
        self.fh, self.path, self.make = fh, path, make
        self.starts = line_starts(fh)

    def __len__(self) -> int:
        return len(self.starts) - 1

    def parse(self, numbers: range) -> list:
        """The values of the lines ``numbers`` (from 1) that the file holds."""
        numbers = range(numbers.start, min(numbers.stop, len(self) + 1))
        if not numbers:
            return []
        bounds = self.starts[numbers.start - 1:numbers.stop].tolist()
        data = os.pread(self.fh.fileno(), bounds[-1] - bounds[0], bounds[0])
        lines = (data[a - bounds[0]:b - bounds[0]] for a, b in pairwise(bounds))
        return parse_ndjson(self.path, zip(numbers, lines), self.make)


@contextmanager
def part_files(target: Path) -> Iterator[Path]:
    """A temporary directory ``<target>.parts-<random>`` beside the artifact
    ``target``, for the part files its pieces write; removed on leaving the
    ``with`` block, whether it returned or raised."""
    parts = Path(tempfile.mkdtemp(prefix=f"{target.name}.parts-", dir=target.parent))
    try:
        yield parts
    finally:
        shutil.rmtree(parts, ignore_errors=True)


def write_part(part: Path, rows: Iterable[dict]) -> Path:
    """``rows`` as ndjson lines in the part file ``part``, one at a time."""
    with open(part, "w", encoding="utf-8") as fh:
        fh.writelines(ndjson_lines(rows))
    return part


def concatenated(paths: Iterable[Path]) -> Iterator[str]:
    """The text of each file of ``paths`` in turn, in blocks of at most 64 KiB."""
    for path in paths:
        with open(path, encoding="utf-8", newline="") as fh:
            while block := fh.read(1 << 16):
                yield block


def read_ndjson(path: Path, make: Callable[[dict], object] | None = None) -> list:
    """``parse_ndjson`` over every line of ``path``, read one at a time."""
    with open(path, "rb") as fh:
        return parse_ndjson(path, enumerate(fh, 1), make)


# the object whose entries are a JSON artifact's rows; any other JSON file is one row
JSON_ROWS = {"lda_topics.json": "topics", "kmeans_clusters.json": "clusters",
             "density_topics.json": "topics"}


def json_rows(path: Path) -> list | dict:
    """The rows of a topic model's JSON artifact, the list or object under
    its JSON_ROWS key; DataError naming the file if it holds none."""
    key = JSON_ROWS[path.name]
    doc = read_json(path, "artifact", DataError)
    rows = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(rows, (list, dict)):
        raise DataError(f"artifact {path}: not an object holding a list or object {key!r}")
    return rows


def count_rows(path: Path) -> int:
    """Records, not lines: CSV data rows, ndjson objects, and for JSON the
    topics or clusters of a topic model (else 1), however it is indented."""
    if path.suffix == ".json":
        return len(json_rows(path)) if path.name in JSON_ROWS else 1
    # bytes, not text: counting decodes nothing, so a line of bad UTF-8 is
    # left for the reader, which names it; a line read is never empty, so
    # isspace() is strip()'s test without its copy
    with open(path, "rb") as fh:
        lines = sum(not line.isspace() for line in fh)
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
        self.doc = {"stages": {}}
        if self.path.exists():
            self.doc = read_json(self.path, "run manifest", DataError)
            stages = self.doc.get("stages") if isinstance(self.doc, dict) else None
            if not isinstance(stages, dict) or not all(
                    isinstance(entry, dict) and isinstance(entry.get("outputs"), dict)
                    and all(isinstance(output, dict) and conforms(output.get("rows"), int)
                            for output in entry["outputs"].values())
                    for entry in stages.values()):
                raise DataError(f"run manifest {self.path}: not an object whose 'stages' "
                                "maps each stage to its 'outputs' and their 'rows'")
        self.doc.update(tool_version=__version__, config=cfg.raw)

    def record(self, stage: str, outputs: list[Path], wall_clock: float,
               counts: dict | None = None, jobs: int = 1, processes: int = 1) -> None:
        import resource  # here, so that loading the CLI imports no more

        def peak_mb(who) -> float:  # ru_maxrss is in KiB
            return round(resource.getrusage(who).ru_maxrss / 1024, 1)

        def own_peak_mb() -> float:
            # VmHWM, in KiB too: on Linux RUSAGE_SELF's ru_maxrss keeps the
            # peak of the process that started this one across exec
            try:
                with open("/proc/self/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            return round(int(line.split()[1]) / 1024, 1)
            except OSError:
                pass
            return peak_mb(resource.RUSAGE_SELF)  # no procfs: the launcher's peak counts too

        self.doc["stages"][stage] = {
            "wall_clock_s": round(wall_clock, 3),
            "jobs": jobs,
            "processes": processes,
            # high-water marks since this process started: its own, and that
            # of the largest worker it has waited for
            "peak_rss_mb": own_peak_mb(),
            "workers_peak_rss_mb": peak_mb(resource.RUSAGE_CHILDREN),
            "counts": counts or {},
            "outputs": {p.name: describe(p) for p in outputs},
        }
        write_json(self.path, self.doc)

    def check_rows(self, out: Path, names: Iterable[str]) -> None:
        """DataError if an artifact of ``names`` in ``out`` holds other than
        the rows the manifest recorded for it: a file cut at a line end
        still parses, and only its row count shows the cut."""
        recorded = {name: output["rows"] for entry in self.doc["stages"].values()
                    for name, output in entry["outputs"].items()}
        for name in names:
            if name in recorded and (rows := count_rows(out / name)) != recorded[name]:
                raise DataError(f"{out / name} has {rows} rows; "
                                f"the manifest recorded {recorded[name]}")


# --- shared loaders ---------------------------------------------------------

def posting_from_row(d: dict) -> Posting:
    """The Posting a postings.ndjson row, checked by NDJSON_FIELDS, holds;
    ValueError if its date is not ISO or its year not that date's year."""
    date, year = d["date"], d["year"]
    try:
        day = dt.date.fromisoformat(date)
    except (TypeError, ValueError):
        raise ValueError(f"date {date!r} is not an ISO date") from None
    if not isinstance(year, int) or year != day.year:
        raise ValueError(f"year {year!r} is not the year of date {date!r}")
    return Posting(id=d["id"], date=day, year=year, description=d["description"])


def record_from_row(d: dict) -> RawRecord:
    """The RawRecord a raw_records.ndjson row, checked by NDJSON_FIELDS, holds."""
    return RawRecord(*(d[field] for field in NDJSON_FIELDS["raw_records.ndjson"]))


def load_postings(out: Path) -> list[Posting]:
    return read_ndjson(out / "postings.ndjson", posting_from_row)


def interning() -> Callable:
    """A function that returns the first value it was given equal to the one
    it is given, so that equal values are held once, and a piece's result
    pickles each once."""
    held: dict = {}
    return lambda value: held.setdefault(value, value)


def flag_input(out: Path) -> tuple:
    """skill_flags.ndjson as an input of ``Workers.map_lines``: each row as
    its posting id, whether it has a sector, its sector and its per-mille
    flags, each distinct sector and per-mille tuple held once per process;
    ValueError if the sector is neither a string nor null."""
    once = interning()

    def flag_values(d: dict) -> tuple:
        sector = d.get("sector")  # a row without one is stale, which labels says
        if sector is not None and not isinstance(sector, str):
            raise ValueError(f"sector is {type(sector).__name__}, not a string or null")
        return d["posting_id"], "sector" in d, once(sector), once(tuple(per_mille(d)))

    return out / "skill_flags.ndjson", flag_values


def labels(ids: list, flag_rows: list) -> list[tuple[str | None, tuple[float, ...]]]:
    """The sector and per-mille flags of each posting id of ``ids``, from the
    ``flag_input`` rows read on the same lines; rows of other postings or
    without a sector are stale."""
    if [posting_id for posting_id, _, _, _ in flag_rows] != ids or not all(
            has_sector for _, has_sector, _, _ in flag_rows):
        raise DataError("skill_flags.ndjson does not label postings.ndjson; re-run extract")
    return [(sector, values) for _, _, sector, values in flag_rows]


def embedding_provider(cfg: RunConfig):
    spec = dict(cfg.embedding)
    if spec.get("kind", "hashed") == "hashed" and "seed" not in spec:
        spec["seed"] = derive_seed(cfg.seed, "embedding")
    return provider_from_spec(spec)


def embed_postings(provider, postings: list[Posting]) -> np.ndarray:
    """One row per posting, in postings order."""
    return provider.embed_batch([p.description for p in postings],
                                keys=[p.id for p in postings])


# the cells of skill_rates.csv that are read, and how
RATE_COLUMNS = {"year": int, **dict.fromkeys(SKILL_CATEGORIES, finite)}


def rate_series(path: Path, rows: list[dict]) -> dict[str, RateSeries]:
    """Each category's series in the rows ``read_csv`` read from
    skill_rates.csv at ``path``, with RATE_COLUMNS' cells converted or
    checked; DataError if there are none or a series breaks RateSeries's
    rules."""
    if not rows:
        raise DataError(f"{path}: no data rows")
    try:
        return {cat: RateSeries(label=(cat,), points=tuple(
                    (int(r["year"]), float(r[cat])) for r in rows))
                for cat in SKILL_CATEGORIES}
    except ConfigError as e:  # the rule is the series', the fault the file's
        raise DataError(f"{path}: {e}") from e


def rate_series_from_csv(out: Path) -> dict[str, RateSeries]:
    path = out / "skill_rates.csv"
    return rate_series(path, read_csv(path, RATE_COLUMNS))


# --- stages -----------------------------------------------------------------

class Workers:
    """A stage's ``--jobs`` budget, and the most processes it ran at once."""

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.processes = 1

    def map_chunks(self, fn, items, floor: int | None = None) -> list:
        """``parallel.map_chunks`` within this budget."""
        self.processes = max(self.processes, parallel.chunk_count(len(items), self.jobs, floor))
        return parallel.map_chunks(fn, items, self.jobs, floor)

    def map_lines(self, inputs: Sequence[tuple[Path, Callable[[dict], object]]],
                  fn: Callable[..., object], split: bool = True) -> list:
        """``fn(numbers, rows, ...)`` of each piece ``numbers`` of the line
        numbers of the first of the ndjson ``inputs``, in order; each input
        is ``(path, make)``, read as ``NdjsonLines``, and ``rows``
        holds the values of the lines ``numbers`` of each input in turn. The
        last piece reads every input to its end, so a line past the end of
        the first is read too. Unless ``split``, all lines are one piece."""
        with ExitStack() as stack:
            files = [NdjsonLines(stack.enter_context(open(path, "rb")), path, make)
                     for path, make in inputs]
            every = range(1, len(files[0]) + 1)

            def piece(numbers: range):
                last = numbers.stop == every.stop
                return fn(numbers, *(f.parse(range(numbers.start, max(numbers.stop, len(f) + 1)
                                                   if last else numbers.stop)) for f in files))

            return self.map_chunks(piece, every) if split else [piece(every)]

    def map_rows(self, inputs: Sequence[tuple[Path, Callable[[dict], object]]],
                 fn: Callable[..., tuple[Iterable[dict], object]], target: Path,
                 split: bool = True, then: Callable[[list], object] = lambda others: others):
        """``then`` of the list of ``fn``'s other results, one per piece of
        ``map_lines``, in order; ``fn``'s output rows go to the ndjson
        artifact ``target``. Each piece writes its rows to a part file
        (``part_files``), which this process streams, piece by piece, to
        ``target`` once ``then`` has returned, so an error in a piece or in
        ``then`` leaves ``target`` as it was."""
        with part_files(target) as parts:
            def piece(numbers: range, *rows):
                out_rows, other = fn(*rows)
                return write_part(parts / str(numbers.start), out_rows), other

            pieces = self.map_lines(inputs, piece, split)
            result = then([other for _, other in pieces])
            atomic_write(target, concatenated(part for part, _ in pieces))
            return result


def stage_ingest(cfg: RunConfig, out: Path, workers: Workers) -> dict:
    target = out / "raw_records.ndjson"
    with part_files(target) as parts:
        def collect(index: int) -> tuple:
            """Source ``index``'s records, written to its part file, and
            only their dedup keys and the source's counts sent back."""
            spec, counts, stats, keys = cfg.sources[index], SourceCounts(), ApiClientStats(), []

            def rows():
                for rec in read_source(spec, counts, stats, cfg.cleanse.date_order):
                    keys.append(dedup_key(rec.raw_text))
                    # the row dataclasses are flat, so vars() is asdict() without its deep copy
                    yield vars(rec)

            part = write_part(parts / str(index), rows())
            return part, keys, counts, asdict(stats) if spec.format == "api" else {}

        # each piece is one source
        results = [r for group in workers.map_chunks(lambda indices: list(map(collect, indices)),
                                                     range(len(cfg.sources)), floor=1)
                   for r in group]
        dedup = Deduplicator()

        def kept_lines() -> Iterator[str]:
            # duplicates go here, in source order, as the part files are copied
            for spec, (part, keys, _, _) in zip(cfg.sources, results):
                name = spec.name
                with open(part, encoding="utf-8", newline="") as fh:
                    yield from compress(fh, (dedup.first(key, name) for key in keys))

        atomic_write(target, kept_lines())

    report = {}
    for spec, (_, _, counts, api_stats) in zip(cfg.sources, results):
        counts.duplicates_removed = dedup.removed_by_source.get(spec.name, 0)
        report[spec.name] = {**asdict(counts), **api_stats}
    write_json(out / "ingest_report.json", report)
    return {"records": sum(len(keys) for _, keys, _, _ in results) - dedup.removed,
            "duplicates_removed": dedup.removed}


# A split stage's pieces each write their output rows to a part file and
# return only the numbers its tables need, which this process keeps.

def stage_cleanse(cfg: RunConfig, out: Path, workers: Workers) -> dict:
    def clean(records):
        postings, report = cleanse(records, cfg.cleanse)
        return ({"id": p.id, "date": p.date.isoformat(), "year": p.year,
                 "description": p.description} for p in postings), report

    report = CleanseReport()
    for part in workers.map_rows([(out / "raw_records.ndjson", record_from_row)], clean,
                                 out / "postings.ndjson"):
        report.add(part)
    write_json(out / "cleanse_report.json", report.as_dict())
    return {}


def stage_extract(cfg: RunConfig, out: Path, workers: Workers) -> dict:
    # built once, before the pieces fork
    skill_matcher, sector_matcher = CompiledMatcher(cfg.taxonomy), CompiledMatcher(cfg.sectors)
    once = interning()  # each year key and per-mille tuple

    def label(postings):
        tokens = [tokenize(p.description) for p in postings]  # once for both matchers
        flags = [detect_skills(p, skill_matcher, toks) for p, toks in zip(postings, tokens)]
        sectors = sector_totals(postings, sector_matcher, tokens)
        return (({"posting_id": p.id, **f, "sector": s}
                 for p, f, s in zip(postings, flags, sectors)),
                [(once((p.year,)), once(tuple(per_mille(f)))) for p, f in zip(postings, flags)])

    pieces = workers.map_rows([(out / "postings.ndjson", posting_from_row)], label,
                              out / "skill_flags.ndjson")
    keyed = [pair for pairs in pieces for pair in pairs]
    yearly = rate_table(keyed)
    write_csv(out / "skill_rates.csv", ["year", "postings"] + list(SKILL_CATEGORIES), yearly)
    return {}


def stage_framing(cfg: RunConfig, out: Path, workers: Workers) -> dict:
    provider = embedding_provider(cfg)
    centroids = AnchorCentroids.from_anchors(cfg.anchors, provider)

    once = interning()  # each (year, sector) key

    def frame(postings, flag_rows):
        sectors = labels([p.id for p in postings], flag_rows)  # before any posting is framed
        results = [frame_document(v, centroids, posting_id=p.id)
                   for p, v in zip(postings, embed_postings(provider, postings))]
        # a posting's four values as 32 bytes, not four float objects
        return map(vars, results), (
            [once((p.year, sector)) for p, (sector, _) in zip(postings, sectors)],
            array("d", [x for r in results
                        for x in (r.sim_ai, r.sim_augment, r.sim_automate, r.framing_index)]))

    def joined(pieces):  # checked before framing.ndjson is written
        keys, values = [], array("d")
        for part_keys, part_values in pieces:
            keys += part_keys
            values += part_values
        if not keys:
            raise DataError("no postings to frame")
        return keys, values

    # file lookups are cheap, and an http provider has its own concurrency
    keys, values = workers.map_rows(
        [(out / "postings.ndjson", posting_from_row), flag_input(out)], frame,
        out / "framing.ndjson", split=isinstance(provider, HashedProvider), then=joined)

    def framed():  # each posting's year, sector and values, made as a table reads them
        for i, (year, sector) in enumerate(keys):
            yield year, sector, values[4 * i:4 * i + 4]

    columns = ["n", "sim_ai", "sim_augment", "sim_automate", "fi"]
    by_year = rate_table(((year,), v) for year, _, v in framed())
    write_csv(out / "framing_by_year.csv", ["year", *columns], by_year)
    by_sector = rate_table(((year, sector), v) for year, sector, v in framed()
                           if sector is not None)
    write_csv(out / "framing_by_sector.csv", ["year", "sector", *columns], by_sector)
    return {}


def topic_entries(labels: np.ndarray, terms: dict[int, list], n_topics: int = 0) -> dict:
    """Each topic's top (term, weight) pairs and size, the postings it
    labels, by topic id: every id below ``n_topics``, and every other id
    that labels a posting (NOISE labels none)."""
    sizes = np.bincount(labels[labels != NOISE], minlength=n_topics).tolist()
    return {str(t): {"top_terms": [list(tw) for tw in terms.get(t, [])], "size": size}
            for t, size in enumerate(sizes) if size or t < n_topics}


def topic_over_time(labels: Sequence[int], years: Sequence[int]) -> list[list]:
    """topic_over_time.csv's rows: for each year with a non-noise posting and
    each topic that labels a posting, [year, topic id, count, weight], where
    count is the topic's postings that year and weight their share of the
    year's non-noise postings."""
    if len(labels) != len(years):
        raise ValueError("one label and one year per posting required")
    pairs = [(year, topic) for topic, year in zip(labels, years) if topic != NOISE]
    counts, totals = Counter(pairs), Counter(year for year, _ in pairs)
    topics = sorted({topic for _, topic in pairs})
    return [[year, topic, counts[year, topic], counts[year, topic] / totals[year]]
            for year in sorted(totals) for topic in topics]


def timed(fit: Callable, *args, **kwargs) -> tuple:
    """fit's result and the seconds it took, in the process that ran it."""
    started = time.monotonic()
    result = fit(*args, **kwargs)
    return result, round(time.monotonic() - started, 3)


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
        emb = embed_postings(provider, postings)
        km, km_s = timed(kmeans_fit, emb, cfg.kmeans["K"],
                         seed=derive_seed(cfg.seed, "topics.kmeans"))
        dm, dm_s = timed(density_topics, emb, min_cluster_size=mcs, k_reduced=k_reduced,
                         seed=derive_seed(cfg.seed, "topics.density"))
        return (km, dm, cluster_terms(km.assignments, dtm), cluster_terms(dm.labels, dtm),
                {"kmeans_fit": km_s, "density_topics": dm_s})

    def lda():  # only what the artifact needs comes back from a worker
        model, lda_s = timed(lda_fit, dtm, lda_cfg)
        return model.phi, model.theta.argmax(axis=1), model.log_likelihood_trace, lda_s

    # two pieces of one branch each, so LDA fits in a worker meanwhile, once
    # the postings are enough to split; else one piece, both branches here
    side_by_side = parallel.chunk_count(len(postings), workers.jobs) > 1
    (km, dm, km_terms, dm_terms, cluster_s), (phi, lda_labels, trace, lda_s) = [
        result for part in workers.map_chunks(lambda branches: [run() for run in branches],
                                              [clusters, lda], floor=1 if side_by_side else 2)
        for result in part]

    # written only once all three models are fitted, so a failed run leaves
    # no topic file newer than the others
    lda_terms = {k: top_terms(row, dtm.vocab) for k, row in enumerate(phi)}
    write_json(out / "lda_topics.json", {
        "K": lda_cfg.K, "iterations": lda_cfg.iterations,
        "log_likelihood_trace": trace,
        "topics": topic_entries(lda_labels, lda_terms, lda_cfg.K)})
    write_json(out / "kmeans_clusters.json", {
        "K": cfg.kmeans["K"], "wcss": km.wcss,
        "clusters": topic_entries(km.assignments, km_terms)})
    density = topic_entries(dm.labels, dm_terms)
    write_json(out / "density_topics.json", {
        "min_cluster_size": mcs, "all_noise": not density,
        "noise_count": int((dm.labels == NOISE).sum()), "topics": density})
    write_csv(out / "topic_over_time.csv", ["year", "topic_id", "count", "weight"],
              topic_over_time(dm.labels.tolist(), years))
    return {"vocab": dtm.n_terms, "fit_s": {"lda_fit": lda_s, **cluster_s},
            "kmeans": {"iterations_run": km.iterations_run, "wcss_trace": km.wcss_trace},
            "density": {"eps": dm.eps}}


def stage_forecast(cfg: RunConfig, out: Path, workers: Workers) -> dict:
    series = rate_series_from_csv(out)
    horizon = cfg.forecast["horizon"]
    # (name, ARIMA order, smoothing alpha) of each spec
    specs = [("smoothed_arima(1,1,1)", ArimaSpec(1, 1, 1), cfg.forecast["smoothing_alpha"]),
             ("arima(2,0,2)", ArimaSpec(2, 0, 2), None)]

    def fit(group):
        rows, diagnostics = [], []
        for cat, (spec_name, spec, alpha) in group:
            s = series[cat]
            fc = forecast_series(s, spec, horizon, alpha)
            for year, rate in s.points:
                rows.append([cat, spec_name, year, float(rate), float(rate), float(rate), 0])
            rows += ([cat, spec_name, *step, 1] for step in fc.forecasts)
            diagnostics.append({"category": cat, "spec": spec_name,
                                "converged": fc.model.converged,
                                "stationary": fc.model.stationary,
                                "short_series": fc.short_series,
                                "iterations": fc.model.iterations})
        return rows, diagnostics

    # one fit costs far more than handing out a piece, so a piece is one fit
    fits = [(cat, spec) for cat in SKILL_CATEGORIES for spec in specs]
    try:
        pieces = workers.map_chunks(fit, fits, floor=1)
    except DataError as e:  # a series the file holds cannot be fitted
        raise DataError(f"{out / 'skill_rates.csv'}: {e}") from e
    write_csv(out / "forecast.csv",
              ["label", "spec", "year", "value", "lower", "upper", "is_forecast"],
              [row for rows, _ in pieces for row in rows])
    return {"fits": [entry for _, diagnostics in pieces for entry in diagnostics]}


def stage_correlate(cfg: RunConfig, out: Path, workers: Workers) -> dict:
    series = rate_series_from_csv(out)
    try:
        matrix = pearson_matrix(series)
    except ConfigError as e:
        raise DataError(f"{out / 'skill_rates.csv'}: {e}") from e
    write_csv(out / "correlation.csv", ["category", *SKILL_CATEGORIES],
              [[label, *("undefined" if np.isnan(v) else float(v) for v in row)]
               for label, row in zip(SKILL_CATEGORIES, matrix)])
    return {}


def stage_sectors(cfg: RunConfig, out: Path, workers: Workers) -> dict:
    def label(numbers, postings, flag_rows):
        return [(p.year, flags)
                for p, flags in zip(postings, labels([p.id for p in postings], flag_rows))]

    labelled = [pair for piece in workers.map_lines(
        [(out / "postings.ndjson", posting_from_row), flag_input(out)], label)
        for pair in piece]
    rows = sector_rates((year for year, _ in labelled), (flags for _, flags in labelled))
    write_csv(out / "sector_rates.csv",
              ["sector", "year", "postings"] + list(SKILL_CATEGORIES), rows)
    return {}


REPORT_TABLES = (
    "skill_rates.csv", "framing_by_year.csv", "framing_by_sector.csv",
    "topic_over_time.csv", "forecast.csv", "correlation.csv", "sector_rates.csv",
    "lda_topics.json", "kmeans_clusters.json", "density_topics.json",
)


def stage_report(cfg: RunConfig, out: Path, workers: Workers) -> dict:
    counts_path = out / "cleanse_report.json"
    cleanse_report = check_fields(read_json(counts_path, "artifact", DataError), {
        "input": (int, REQUIRED, 0), "retained": (int, REQUIRED, 0),
        "rejected": (dict, REQUIRED, None)}, f"artifact {counts_path}", DataError)
    check_fields(cleanse_report["rejected"], dict.fromkeys(REJECT_REASONS, (int, REQUIRED, 0)),
                 f"artifact {counts_path}: rejected", DataError)
    # the year rows as text, as the table holds them, once each cell converts
    # and the series keep forecast's and correlate's rules
    rate_rows = read_csv(out / "skill_rates.csv", {
        column: as_text(convert) for column, convert in {"postings": int, **RATE_COLUMNS}.items()})
    rate_series(out / "skill_rates.csv", rate_rows)
    rates_by_year = {r["year"]: r for r in rate_rows}
    mean_fi = {r["year"]: r["fi"] for r in read_csv(out / "framing_by_year.csv",
                                                    {"year": str, "fi": finite})}
    density = json_rows(out / "density_topics.json")
    if not isinstance(density, dict) or not all(
            isinstance(topic, dict) and conforms(topic.get("size"), int)
            for topic in density.values()):
        raise DataError(f"artifact {out / 'density_topics.json'}: "
                        "a topic is not an object with an int 'size'")
    # each row's cells off the diagonal, which is the row's own category column
    correlations = read_csv(out / "correlation.csv", {"category": str, **dict.fromkeys(
        SKILL_CATEGORIES, lambda v: None if v == "undefined" else finite(v))})
    off_diag = [v for r in correlations for col, v in r.items()
                if col not in ("category", r["category"]) and v is not None]
    endpoints: dict[str, dict[str, float]] = {}
    for r in read_csv(out / "forecast.csv",
                      {"label": str, "spec": str, "value": finite, "is_forecast": int}):
        if r["is_forecast"] == 1:
            endpoints.setdefault(r["label"], {})[r["spec"]] = r["value"]

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
            "density_topic_sizes": {k: v["size"] for k, v in density.items()},
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
    return {}


@dataclass(frozen=True)
class Stage:
    # (cfg, output dir, workers) -> counts: only numbers that no artifact holds
    run: Callable[[RunConfig, Path, Workers], dict]
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
                    REPORT_TABLES + ("cleanse_report.json",),
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
    manifest.check_rows(out, stage.inputs)
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
