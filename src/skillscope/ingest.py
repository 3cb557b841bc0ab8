"""Multi-format ingestion: CSV/XML/JSON/LDJSON files plus a paginated REST API.

Each format only yields its items in source order: CSV rows, XML elements
that have the text child, the objects of a JSON array, the non-blank lines of
LDJSON, the items of each API page in turn. ``read_source`` applies one rule
to all five: an item that does not parse, is not an object, or whose text
field is missing or not a string (null, an object, an array, a number or a
bool) is skipped, as is an API item dated outside ``api_date_range``; one
whose text is blank is dropped; the rest become RawRecords. So for every
source emitted + skipped + dropped_empty equals the number of items. An API
that keeps failing ends the run with EndpointUnreachableError.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import io
import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from . import net
from .cleanse import parse_date
from .config import check_fields, from_json, read_json
from .errors import (
    ConfigError,
    EndpointUnreachableError,
    FileUnreadableError,
    FormatMismatchError,
)

SOURCE_FORMATS = ("csv", "xml", "json", "ldjson", "api")

_DATE_BOUNDS = (dt.date(2000, 1, 1), dt.date(2100, 1, 1))


@dataclass(frozen=True)
class RawRecord:
    source_id: str
    raw_date: str
    raw_text: str
    source_format: str


@dataclass
class SourceSpec:
    path_or_url: str
    format: str
    date_field: str
    text_field: str
    api_page_size: int | None = None
    api_date_range: tuple[str, str] | None = None
    # generic API plumbing; defaults cover the common REST shape
    api_page_param: str = "page"
    api_items_field: str = "data"
    api_token: str | None = None

    def __post_init__(self):
        if self.format not in SOURCE_FORMATS:
            raise ConfigError(f"unknown source format {self.format!r}")
        if self.date_field == self.text_field:
            raise ConfigError("date_field and text_field must differ")
        if self.api_page_size is not None and self.api_page_size <= 0:
            raise ConfigError("api_page_size must be positive")
        if self.api_date_range is not None:
            try:
                start, end = map(dt.date.fromisoformat, self.api_date_range)
                if [start.isoformat(), end.isoformat()] != list(self.api_date_range):
                    raise ValueError  # another ISO form, which only newer Pythons read
            except ValueError:
                raise ConfigError(f"api_date_range {self.api_date_range} must be two "
                                  "ISO dates (YYYY-MM-DD)") from None
            if not (_DATE_BOUNDS[0] <= start <= end <= _DATE_BOUNDS[1]):
                raise ConfigError(f"api_date_range {self.api_date_range} out of order/bounds")

    @property
    def name(self) -> str:
        return Path(self.path_or_url).stem or "source"

    @classmethod
    def from_dict(cls, d: dict) -> "SourceSpec":
        spec = from_json(cls, d, "source manifest entry")
        stray = sorted(key for key in d if key.startswith("api_"))
        if stray and spec.format != "api":
            raise ConfigError(f"source {spec.path_or_url}: {stray} apply only to "
                              f"format 'api', not {spec.format!r}")
        return spec


@dataclass
class SourceCounts:
    emitted: int = 0
    skipped: int = 0
    dropped_empty: int = 0
    duplicates_removed: int = 0


def load_manifest(path: str | Path) -> list[SourceSpec]:
    """Read a source manifest (JSON array of SourceSpec objects). A file
    ``path_or_url`` is taken relative to the manifest's directory; an
    ``http://`` or ``https://`` URL is kept as it is."""
    raw = read_json(path, "source manifest")
    if not isinstance(raw, list):
        raise ConfigError(f"source manifest {path} must be a JSON array")
    specs = [SourceSpec.from_dict(d) for d in raw]
    by_name: dict[str, str] = {}
    for spec in specs:
        if not spec.path_or_url.startswith(("http://", "https://")):
            spec.path_or_url = str(Path(path).parent / spec.path_or_url)
        # the name prefixes posting ids and keys the ingest report, so it must be unique
        if spec.name in by_name:
            raise ConfigError(f"sources {by_name[spec.name]} and {spec.path_or_url} "
                              f"share the name {spec.name!r}; rename one file")
        by_name[spec.name] = spec.path_or_url
    return specs


def _read_text(path: str | Path) -> str:
    # UTF-8 with replacement keeps maximal text from mixed-encoding dumps
    try:
        return Path(path).read_bytes().decode("utf-8", errors="replace")
    except OSError as e:
        raise FileUnreadableError(f"cannot read {path}: {e}") from e


def read_source(
    spec: SourceSpec,
    counts: SourceCounts | None = None,
    stats: ApiClientStats | None = None,
    date_order: str = "DMY",
    transport: Transport | None = None,
) -> Iterator[RawRecord]:
    """RawRecords of one source of any format, in source order.

    The format's reader yields items; the n-th item (from 0) becomes the
    record ``f"{spec.name}:{n}"``. An item that is not an object or whose
    text field is missing or not a string is skipped; with
    ``api_date_range``, so is one whose date parses as ``cleanse`` parses it
    (``date_order`` breaks NN/NN/YYYY ties) outside the range, while one
    whose date does not parse is kept, for ``cleanse`` to count; an item
    whose text is blank is dropped.
    """
    counts = counts or SourceCounts()
    if spec.format == "api":
        items = _api_items(spec, transport, stats or ApiClientStats())
    else:
        items = _FILE_READERS[spec.format](_read_text(spec.path_or_url), spec)
    date_range = spec.api_date_range and tuple(map(dt.date.fromisoformat, spec.api_date_range))
    name = spec.name  # a property that builds a Path each time it is read
    for ordinal, item in enumerate(items):
        text = item.get(spec.text_field) if isinstance(item, dict) else None
        if not isinstance(text, str):
            counts.skipped += 1
            continue
        raw_date = str(item.get(spec.date_field) or "")
        day = date_range and parse_date(raw_date, date_order)
        if day and not (date_range[0] <= day <= date_range[1]):
            counts.skipped += 1
            continue
        if not text.strip():
            counts.dropped_empty += 1
            continue
        counts.emitted += 1
        yield RawRecord(f"{name}:{ordinal}", raw_date, text, spec.format)


# Each file reader yields its items in file order, None for one that does not parse.

def _iter_csv(text: str, spec: SourceSpec):
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise FormatMismatchError(f"{spec.path_or_url}: empty CSV, header required")
    if spec.text_field not in reader.fieldnames or spec.date_field not in reader.fieldnames:
        raise FormatMismatchError(
            f"{spec.path_or_url}: header lacks {spec.date_field!r}/{spec.text_field!r}"
        )
    while True:
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error:
            yield None


def _iter_xml(text: str, spec: SourceSpec):
    try:
        root = ET.fromstring(text)
    except ET.ParseError as e:
        raise FormatMismatchError(f"{spec.path_or_url}: not well-formed XML: {e}") from e
    for elem in root.iter():
        if elem.find(spec.text_field) is not None:
            yield {field: elem.findtext(field) or ""
                   for field in (spec.text_field, spec.date_field)}


def _iter_json(text: str, spec: SourceSpec):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatMismatchError(f"{spec.path_or_url}: not valid JSON: {e}") from e
    if isinstance(doc, list):
        return doc
    if isinstance(doc, dict):
        # auto-detect an object wrapping a single array field
        arrays = [v for v in doc.values() if isinstance(v, list)]
        if len(arrays) != 1:
            raise FormatMismatchError(
                f"{spec.path_or_url}: expected a JSON array or an object with one array field"
            )
        return arrays[0]
    raise FormatMismatchError(f"{spec.path_or_url}: top-level JSON must be array or object")


def _iter_ldjson(text: str, spec: SourceSpec):
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError:
            yield None


_FILE_READERS = {"csv": _iter_csv, "xml": _iter_xml, "json": _iter_json, "ldjson": _iter_ldjson}


# --- API client -------------------------------------------------------------

# transport(url, params, headers) -> (status_code, parsed_json_or_None)
Transport = Callable[[str, dict, dict], tuple[int, object]]


def http_transport(url: str, params: dict, headers: dict) -> tuple[int, object]:
    return net.send_json("GET", url, 30, params=params, headers=headers)


class ReplayTransport:
    """Deterministic transport replaying a recorded call sequence.

    Fixture shape: {"calls": [{"status": 200, "body": {...}}, ...]} consumed
    in call order, or {"pages": [{"data": [...]}, ...]} addressed by the page
    query parameter (always status 200). Past both it answers a page with an
    empty ``items_field`` list, which ends the paging.
    """

    # the keys of a replay file: (type, default, lowest value)
    FIELDS = {"calls": (list[dict], [], None), "pages": (list, [], None)}

    def __init__(self, fixture: dict, items_field: str = "data"):
        self.calls = list(fixture.get("calls", []))
        self.pages = list(fixture.get("pages", []))
        self.items_field = items_field
        self.call_count = 0

    @classmethod
    def from_file(cls, path: str | Path, items_field: str = "data") -> "ReplayTransport":
        fixture = read_json(path, "API replay file", FormatMismatchError)
        return cls(check_fields(fixture, cls.FIELDS, f"API replay file {path}",
                                FormatMismatchError), items_field)

    def __call__(self, url: str, params: dict, headers: dict) -> tuple[int, object]:
        self.call_count += 1
        if self.calls:
            entry = self.calls.pop(0)
            return entry.get("status", 200), entry.get("body")
        page = int(params.get("page", params.get(next(iter(params), "page"), 1)))
        idx = page - 1
        if 0 <= idx < len(self.pages):
            return 200, self.pages[idx]
        return 200, {self.items_field: []}


@dataclass
class ApiClientStats:
    retries: int = 0
    pages_fetched: int = 0
    pages_skipped: int = 0


def _api_items(spec, transport, stats):
    """The items of each page in turn, until a page has none or fewer than
    ``api_page_size``.

    Each page is requested as ``net.call`` retries; a page that still fails
    is fatal. A page with another non-200 status, or whose body is not a
    JSON object with a list under ``api_items_field``, is skipped and
    counted, and ``net.ATTEMPTS`` such pages in a row are fatal.
    """
    if transport is None:
        # local replay fixtures keep test/demo runs network-free
        if Path(spec.path_or_url).exists():
            transport = ReplayTransport.from_file(spec.path_or_url, spec.api_items_field)
        else:
            transport = http_transport
    headers = {}
    if spec.api_token:
        headers["Authorization"] = f"Bearer {spec.api_token}"

    page = 1
    bad_pages = 0
    while True:
        params: dict = {spec.api_page_param: page}
        if spec.api_page_size:
            params["limit"] = spec.api_page_size
        if spec.api_date_range:
            params["date_from"], params["date_to"] = spec.api_date_range

        (status, body), tries = net.call(
            lambda: transport(spec.path_or_url, params, headers),
            lambda reason: EndpointUnreachableError(
                f"{spec.path_or_url} page {page} failed after {net.ATTEMPTS} attempts: "
                f"{reason}"))
        stats.retries += tries - 1
        items = body.get(spec.api_items_field) if isinstance(body, dict) else None
        if status != 200 or not isinstance(items, list):
            stats.pages_skipped += 1
            bad_pages += 1
            if bad_pages == net.ATTEMPTS:
                raise EndpointUnreachableError(
                    f"{spec.path_or_url} page {page}: {bad_pages} unusable pages in a row, "
                    f"the last HTTP {status}"
                    + (f" without a {spec.api_items_field!r} list" if status == 200 else ""))
            page += 1
            continue
        bad_pages = 0
        if not items:
            return
        stats.pages_fetched += 1
        yield from items
        if spec.api_page_size and len(items) < spec.api_page_size:
            return
        page += 1


# --- deduplication ----------------------------------------------------------

def dedup_key(text: str) -> str:
    """128-bit content hash of the case-folded, whitespace-collapsed text."""
    normalized = " ".join(text.casefold().split())
    return hashlib.blake2b(normalized.encode("utf-8"), digest_size=16).hexdigest()


class Deduplicator:
    """Keeps the first record per normalized-text hash, in stream order."""

    def __init__(self):
        self._seen: set[str] = set()
        self.removed = 0
        self.removed_by_source: dict[str, int] = {}

    def filter(self, records: Iterable[RawRecord]) -> Iterator[RawRecord]:
        for rec in records:
            key = dedup_key(rec.raw_text)
            if key in self._seen:
                self.removed += 1
                src = rec.source_id.rsplit(":", 1)[0]  # a name may hold ":"
                self.removed_by_source[src] = self.removed_by_source.get(src, 0) + 1
                continue
            self._seen.add(key)
            yield rec
