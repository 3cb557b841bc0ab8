import csv
import errno
import io
import itertools
import json
import re
from unittest import mock
from xml.sax.saxutils import escape

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from skillscope import ingest
from skillscope.cli import EXIT_DATA, main
from skillscope.errors import ConfigError, DataError
from skillscope.ingest import (
    ApiClientStats,
    Deduplicator,
    RawRecord,
    ReplayTransport,
    SourceCounts,
    SourceSpec,
    _iter_csv,
    dedup_key,
    load_manifest,
    read_source,
)

from .helpers import assert_no_children, write_three_sources


def spec_for(path, fmt="csv", **kw):
    return SourceSpec(path_or_url=str(path), format=fmt,
                      date_field="date", text_field="description", **kw)


class TestParseFile:
    def test_csv_rows_in_file_order(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,description\n2022-01-01,first\n2022-01-02,second\n2022-01-03,third\n")
        records = list(read_source(spec_for(p)))
        assert [r.raw_text for r in records] == ["first", "second", "third"]
        assert records[0].source_id == "a:0"
        assert records[0].source_format == "csv"

    def test_csv_missing_column_is_format_mismatch(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("when,text\n2022-01-01,hello\n")
        with pytest.raises(DataError, match="header lacks 'date'/'description'"):
            list(read_source(spec_for(p)))

    def test_ldjson_bad_line_skipped_and_counted(self, tmp_path):
        p = tmp_path / "a.ldjson"
        lines = [json.dumps({"date": "2022-01-01", "description": f"text {i}"}) for i in range(5)]
        lines[1] = "{not json"
        p.write_text("\n".join(lines) + "\n")
        counts = SourceCounts()
        records = list(read_source(spec_for(p, "ldjson"), counts=counts))
        assert len(records) == 4
        assert counts.skipped == 1
        assert counts.emitted == 4

    def test_xml_empty_descriptions_dropped(self, tmp_path):
        # 10 job elements, 2 with empty bodies -> 8 records (hand count)
        jobs = []
        for i in range(10):
            body = "" if i in (3, 7) else f"text {i}"
            jobs.append(f"<job><date>2022-01-0{i % 9 + 1}</date><description>{body}</description></job>")
        p = tmp_path / "a.xml"
        p.write_text("<jobs>" + "".join(jobs) + "</jobs>")
        counts = SourceCounts()
        records = list(read_source(spec_for(p, "xml"), counts=counts))
        assert len(records) == 8
        assert counts.dropped_empty == 2

    def test_json_array_and_wrapped_object(self, tmp_path):
        items = [{"date": "2022-01-01", "description": "a"},
                 {"date": "2022-01-02", "description": "b"}]
        p1 = tmp_path / "arr.json"
        p1.write_text(json.dumps(items))
        p2 = tmp_path / "obj.json"
        p2.write_text(json.dumps({"meta": 1, "rows": items}))
        assert [r.raw_text for r in read_source(spec_for(p1, "json"))] == ["a", "b"]
        assert [r.raw_text for r in read_source(spec_for(p2, "json"))] == ["a", "b"]

    def test_json_garbage_is_format_mismatch(self, tmp_path):
        p = tmp_path / "a.json"
        p.write_text("not json at all")
        with pytest.raises(DataError, match="a.json: not valid JSON"):
            list(read_source(spec_for(p, "json")))

    @settings(max_examples=300, deadline=None)
    @given(data=st.lists(st.sampled_from([b"a", b"b", b" ", b",", b'"', b"\n", b"\r", b"\r\n",
                                          b"\xc3\xa9", b"\xe2\x82\xac", b"\xc3", b"\xff"]),
                         max_size=40).map(b"".join),
           chunk=st.integers(1, 9))
    def test_csv_read_a_row_at_a_time_equals_the_whole_text_read(self, data, chunk):
        # the rows, or the error, of the text decoded whole, as it was once
        # read, whatever bytes a chunk of the stream ends on
        def rows(fh):
            try:
                return list(_iter_csv(fh, spec_for("a.csv")))
            except DataError as e:
                return str(e)

        data = b"date,description\n" + data
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="replace",
                                  newline="\n")
        stream._CHUNK_SIZE = chunk
        assert rows(stream) == rows(io.StringIO(data.decode("utf-8", errors="replace")))

    def test_missing_file_unreadable(self, tmp_path):
        with pytest.raises(DataError, match="cannot read .*nope.csv"):
            list(read_source(spec_for(tmp_path / "nope.csv")))

    def test_ldjson_lines_end_at_newline_only(self, tmp_path):
        # JSON allows U+0085, U+2028 and U+2029 raw inside a string, where
        # str.splitlines would cut the line
        texts = ["plain text", "line\u2028and\u2029paragraph", "next\u0085line"]
        lines = [json.dumps({"date": "2022-01-01", "description": t}, ensure_ascii=False)
                 for t in texts]
        p = tmp_path / "a.ldjson"
        p.write_text("\n".join([lines[0], "", "{not json", lines[1], "  ", lines[2]]) + "\n",
                     encoding="utf-8")
        counts = SourceCounts()
        records = list(read_source(spec_for(p, "ldjson"), counts=counts))
        assert [(r.source_id, r.raw_text) for r in records] == [
            ("a:0", texts[0]), ("a:2", texts[1]), ("a:3", texts[2])]
        assert (counts.emitted, counts.skipped, counts.dropped_empty) == (3, 1, 0)

    def test_conservation_emitted_skipped_empty(self, tmp_path):
        p = tmp_path / "a.ldjson"
        rows = [json.dumps({"date": "2022-01-01", "description": "ok"}),
                "garbage",
                json.dumps({"date": "2022-01-01", "description": "   "}),
                json.dumps({"date": "2022-01-01"}),
                json.dumps({"date": "2022-01-01", "description": "fine"})]
        p.write_text("\n".join(rows))
        counts = SourceCounts()
        records = list(read_source(spec_for(p, "ldjson"), counts=counts))
        assert counts.emitted == len(records) == 2
        assert counts.emitted + counts.skipped + counts.dropped_empty == 5

    @pytest.mark.parametrize("fmt", ["json", "ldjson", "api"])
    def test_null_text_is_skipped(self, tmp_path, fmt):
        items = [{"date": "2022-01-01", "description": None},
                 {"date": "2022-01-02", "description": "kept"}]
        p = tmp_path / f"a.{fmt}"
        p.write_text({"json": json.dumps(items),
                      "ldjson": "\n".join(map(json.dumps, items)),
                      "api": json.dumps({"pages": [{"data": items}]})}[fmt])
        counts = SourceCounts()
        records = list(read_source(spec_for(p, fmt), counts=counts))
        assert [(r.source_id, r.raw_text) for r in records] == [("a:1", "kept")]
        assert (counts.emitted, counts.skipped, counts.dropped_empty) == (1, 1, 0)

    def test_non_string_text_is_skipped(self, tmp_path):
        texts = [{"a": 1}, ["a", "list"], 5, 2.5, True, False, None, "kept", "  "]
        p = tmp_path / "a.json"
        p.write_text(json.dumps([{"date": "2022-01-01", "description": t} for t in texts]))
        counts = SourceCounts()
        records = list(read_source(spec_for(p, "json"), counts=counts))
        assert [(r.source_id, r.raw_text) for r in records] == [("a:7", "kept")]
        assert (counts.emitted, counts.skipped, counts.dropped_empty) == (1, 7, 1)
        assert counts.emitted + counts.skipped + counts.dropped_empty == len(texts)


class TestSourceSpec:
    def test_unknown_manifest_key_rejected(self):
        with pytest.raises(ConfigError):
            SourceSpec.from_dict({"path_or_url": "x", "format": "csv",
                                  "date_field": "d", "text_field": "t", "bogus": 1})

    @pytest.mark.parametrize("change", [{"api_page_size": "x"}, {"api_page_size": 2.5},
                                        {"api_date_range": ["2020-01-01"]},
                                        {"text_field": None},
                                        {"api_date_range": ["2022-1-1", "2022-12-31"]},
                                        {"api_date_range": ["2022-01-01", "31/12/2022"]},
                                        {"api_date_range": ["20220101", "2022-12-31"]}])
    def test_wrong_type_rejected(self, change):
        with pytest.raises(ConfigError):
            SourceSpec.from_dict({"path_or_url": "x", "format": "api", "date_field": "d",
                                  "text_field": "t", **change})

    @pytest.mark.parametrize("change", [{"api_page_size": 50},
                                        {"api_date_range": ["2020-01-01", "2020-12-31"]},
                                        {"api_page_param": "page"},
                                        {"api_items_field": "items"},
                                        {"api_token": "secret"}])
    def test_api_key_on_file_source_rejected(self, change):
        (key,) = change
        spec = {"path_or_url": "x", "date_field": "d", "text_field": "t", **change}
        assert SourceSpec.from_dict({**spec, "format": "api"}).format == "api"
        with pytest.raises(ConfigError, match=f"{key}.*apply only to format 'api'"):
            SourceSpec.from_dict({**spec, "format": "csv"})

    def test_missing_required_key_rejected(self):
        with pytest.raises(ConfigError, match="text_field"):
            SourceSpec.from_dict({"path_or_url": "x", "format": "csv", "date_field": "d"})

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            SourceSpec("x", "parquet", "d", "t")

    def test_manifest_roundtrip(self, tmp_path):
        m = tmp_path / "sources.json"
        fields = {"date_field": "date", "text_field": "description"}
        m.write_text(json.dumps([{"path_or_url": "a.csv", "format": "csv", **fields},
                                 {"path_or_url": "https://api.example/jobs", "format": "api",
                                  **fields}]))
        specs = load_manifest(m)
        assert [s.format for s in specs] == ["csv", "api"]
        # a file is found beside the manifest; a URL is kept as it is
        assert [s.path_or_url for s in specs] == [str(tmp_path / "a.csv"),
                                                  "https://api.example/jobs"]

    @pytest.mark.parametrize("data", [None, b"[{", b"\xff", b"{}"])
    def test_unreadable_manifest_is_a_config_error(self, tmp_path, data):
        m = tmp_path / "sources.json"
        if data is None:
            m.mkdir()
        else:
            m.write_bytes(data)
        with pytest.raises(ConfigError, match=re.escape(str(m))):
            load_manifest(m)


def _page(items):
    return {"data": [{"date": d, "description": t} for d, t in items]}


def _items(n, start=0, year="2022"):
    return [(f"{year}-01-01", f"posting number {start + i}") for i in range(n)]


class TestFetchApi:
    def api_spec(self, **kw):
        return SourceSpec(path_or_url="https://api.example/jobs", format="api",
                          date_field="date", text_field="description", **kw)

    def test_three_pages_of_fifty(self):
        transport = ReplayTransport({"pages": [_page(_items(50, i * 50)) for i in range(3)]
                                     + [{"data": []}]})
        records = list(read_source(self.api_spec(), transport=transport))
        assert len(records) == 150
        assert records[0].raw_text == "posting number 0"
        assert records[-1].raw_text == "posting number 149"

    def test_retry_on_500_then_success(self):
        pages = [_page(_items(50, i * 50)) for i in range(3)] + [{"data": []}]
        calls = [{"status": 200, "body": pages[0]},
                 {"status": 500}, {"status": 500}, {"status": 200, "body": pages[1]},
                 {"status": 200, "body": pages[2]},
                 {"status": 200, "body": pages[3]}]
        stats = ApiClientStats()
        records = list(read_source(self.api_spec(), transport=ReplayTransport({"calls": calls}),
                                 stats=stats))
        assert len(records) == 150
        assert stats.retries == 2

    def test_endpoint_unreachable_after_three_failures(self):
        transport = ReplayTransport({"calls": [{"status": 503}] * 3})
        with pytest.raises(DataError, match="page 1 failed after 3 attempts: HTTP 503"):
            list(read_source(self.api_spec(), transport=transport))

    def test_date_range_excluding_everything(self):
        transport = ReplayTransport({"pages": [_page(_items(10, year="2010")), {"data": []}]})
        records = list(read_source(self.api_spec(api_date_range=("2022-01-01", "2022-12-31")),
                                 transport=transport))
        assert records == []

    @pytest.mark.parametrize("date_order, slash", [("DMY", "05/03"), ("MDY", "03/05")])
    def test_date_range_compares_dates_as_cleanse_parses_them(self, date_order, slash):
        dated = {year: [f"{year}-03-05", f"{slash}/{year}", f"March 5, {year}"]
                 for year in (2021, 2022)}
        items = [(d, f"posting {d}") for year in (2021, 2022) for d in dated[year]]
        items.append(("not a date", "posting with a date cleanse rejects"))
        transport = ReplayTransport({"pages": [_page(items), {"data": []}]})
        counts = SourceCounts()
        records = list(read_source(self.api_spec(api_date_range=("2022-01-01", "2022-12-31")),
                                 transport=transport, counts=counts, date_order=date_order))
        assert [r.raw_date for r in records] == dated[2022] + ["not a date"]
        assert counts.skipped == 3

    def test_malformed_page_skipped(self):
        calls = [{"status": 200, "body": _page(_items(5))},
                 {"status": 200, "body": None},  # unparseable body
                 {"status": 200, "body": _page(_items(5, 5))},
                 {"status": 200, "body": {"data": []}}]
        stats = ApiClientStats()
        records = list(read_source(self.api_spec(), transport=ReplayTransport({"calls": calls}),
                                 stats=stats))
        assert len(records) == 10
        assert stats.pages_skipped == 1

    @pytest.mark.parametrize("body", [{"error": "busy"}, [{"date": "2022-01-01"}],
                                      {"data": None}, {"data": {"a": 1}}])
    def test_page_without_item_list_skipped(self, body):
        pages = [_page(_items(5)), body, _page(_items(5, 5)), {"data": []}]
        transport = ReplayTransport({"pages": pages})
        stats = ApiClientStats()
        records = list(read_source(self.api_spec(), transport=transport, stats=stats))
        assert [r.raw_text for r in records] == [t for _, t in _items(10)]
        assert (stats.pages_fetched, stats.pages_skipped) == (2, 1)
        assert transport.call_count == 4

    def test_replay_ends_with_an_empty_list_under_the_items_field(self, tmp_path):
        p = tmp_path / "jobs.json"
        p.write_text(json.dumps({"pages": [{"items": _page(_items(3))["data"]}]}))
        stats = ApiClientStats()
        records = list(read_source(spec_for(p, "api", api_items_field="items"), stats=stats))
        assert [r.raw_text for r in records] == [t for _, t in _items(3)]
        assert (stats.pages_fetched, stats.pages_skipped) == (1, 0)

    @pytest.mark.parametrize("status, body", [(404, None), (200, None), (200, "not json"),
                                              (200, {"error": "busy"}), (200, [])])
    def test_pages_that_keep_failing_end_the_run(self, status, body):
        pages = []

        def transport(url, params, headers):
            pages.append(params["page"])
            assert len(pages) <= 50, "still paging"
            return (200, _page(_items(5))) if params["page"] == 1 else (status, body)

        stats = ApiClientStats()
        with pytest.raises(DataError, match=f"page 4: .*HTTP {status}"):
            list(read_source(self.api_spec(), transport=transport, stats=stats))
        assert pages == [1, 2, 3, 4]  # net.ATTEMPTS calls after the first failure
        assert stats.pages_skipped == 3

    def test_page_size_is_sent_as_limit_and_a_short_page_ends_the_paging(self):
        sent = []

        def transport(url, params, headers):
            sent.append(dict(params))
            page = params["page"]
            return 200, _page(_items(3 if page == 1 else 2, 3 * (page - 1)))

        records = list(read_source(self.api_spec(api_page_size=3), transport=transport))
        assert [r.raw_text for r in records] == [t for _, t in _items(5)]
        assert sent == [{"page": 1, "limit": 3}, {"page": 2, "limit": 3}]

    def test_token_is_sent_as_a_bearer_header(self):
        sent = []

        def transport(url, params, headers):
            sent.append(dict(headers))
            return 200, {"data": []}

        assert list(read_source(self.api_spec(api_token="s3cret"), transport=transport)) == []
        assert sent == [{"Authorization": "Bearer s3cret"}]

    @pytest.mark.parametrize("error", [requests.ConnectionError("reset by peer"),
                                       OSError("broken pipe")])
    def test_transport_exception_is_retried(self, error):
        pages = []

        def transport(url, params, headers):
            pages.append(params["page"])
            if len(pages) == 1:
                raise error
            return 200, _page(_items(2)) if params["page"] == 1 else {"data": []}

        stats = ApiClientStats()
        records = list(read_source(self.api_spec(), transport=transport, stats=stats))
        assert [r.raw_text for r in records] == [t for _, t in _items(2)]
        assert pages == [1, 1, 2] and stats.retries == 1

    def test_replay_is_deterministic(self):
        fixture = {"pages": [_page(_items(7)), {"data": []}]}
        a = list(read_source(self.api_spec(), transport=ReplayTransport(fixture)))
        b = list(read_source(self.api_spec(), transport=ReplayTransport(fixture)))
        assert a == b


def rec(text, n):
    return RawRecord(source_id=f"s:{n}", raw_date="2022-01-01",
                     raw_text=text, source_format="csv")


def kept(records, dedup=None):
    """The records ``dedup.first`` keeps, in order, each charged to the
    source named in its id (a source name may hold ":")."""
    dedup = dedup or Deduplicator()
    return [r for r in records
            if dedup.first(dedup_key(r.raw_text), r.source_id.rsplit(":", 1)[0])]


class TestDeduplicate:
    def test_casing_and_spacing_variant_removed_first_kept(self):
        records = [rec("Data  Entry Role", 0), rec("data entry role", 1)]
        out = kept(records)
        assert len(out) == 1 and out[0].source_id == "s:0"

    def test_distinct_texts_all_survive(self):
        records = [rec(f"unique text {i}", i) for i in range(100)]
        assert len(kept(records)) == 100

    def test_five_planted_pairs_leave_fifteen(self):
        texts = [f"base text variant {i}" for i in range(15)]
        stream = list(texts)
        for i in range(5):  # plant a duplicate of the first five
            stream.append(texts[i].upper())
        records = [rec(t, i) for i, t in enumerate(stream)]
        survivors = kept(records)
        # oracle: brute-force pairwise comparison of normalized texts
        expected = []
        for r in records:
            norm = " ".join(r.raw_text.casefold().split())
            if not any(" ".join(s.raw_text.casefold().split()) == norm for s in expected):
                expected.append(r)
        assert survivors == expected
        assert len(survivors) == 15

    def test_removed_counts_by_source(self):
        d = Deduplicator()
        records = [rec("same text here", 0),
                   RawRecord("other:0", "2022-01-01", "same  TEXT here", "csv")]
        out = kept(records, d)
        assert len(out) == 1
        assert d.removed_by_source == {"other": 1}

    def test_keys_charged_to_the_source_given(self):
        d = Deduplicator()
        keys = [dedup_key(t) for t in ("one text", "One  text", "two", "one text")]
        assert [d.first(key, "a") for key in keys[:3]] == [True, False, True]
        assert d.first(keys[3], "b:c") is False
        assert (d.removed, d.removed_by_source) == (2, {"a": 1, "b:c": 1})

    @given(st.lists(st.text(min_size=1, max_size=30), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_dedup_is_idempotent_and_matches_key_count(self, texts):
        records = [rec(t, i) for i, t in enumerate(texts)]
        once = kept(records)
        twice = kept(once)
        assert once == twice
        assert len(once) == len({dedup_key(t) for t in texts})


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_read_error_partway_through_a_source_is_exit_4(tmp_path, capsys, jobs):
    run = write_three_sources(tmp_path)
    read_csv = ingest._FILE_READERS["csv"]

    def failing(fh, spec):  # one row, then the disk fails
        yield from itertools.islice(read_csv(fh, spec), 1)
        raise OSError(errno.EIO, "Input/output error")

    with mock.patch.dict(ingest._FILE_READERS, csv=failing):
        assert main(["ingest", "--config", str(run), "--jobs", jobs]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"cannot read {tmp_path / 'postings.csv'}: [Errno 5] Input/output error" in err
    assert list((tmp_path / "results").glob("raw_records.ndjson*")) == []  # nor its parts
    assert_no_children()


_xml_safe_text = st.text(st.characters(codec="utf-8", exclude_categories=("Cc", "Cs", "Cn"))
                         | st.sampled_from(" \t\n"), max_size=12)


@given(rows=st.lists(st.tuples(st.sampled_from(["2022-01-05", "", "05/03/2021"]),
                               _xml_safe_text | st.sampled_from(["", " ", "\n\t"])),
                     max_size=12),
       page_size=st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_every_format_reads_the_same_rows(tmp_path_factory, rows, page_size):
    tmp = tmp_path_factory.mktemp("formats")
    objects = [{"date": d, "description": t} for d, t in rows]
    with open(tmp / "rows.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "description"])
        writer.writerows(rows)
    (tmp / "rows.xml").write_text("<jobs>" + "".join(
        f"<job><date>{escape(d)}</date><description>{escape(t)}</description></job>"
        for d, t in rows) + "</jobs>", encoding="utf-8")
    (tmp / "rows.json").write_text(json.dumps(objects), encoding="utf-8")
    (tmp / "wrapped.json").write_text(json.dumps({"meta": 1, "rows": objects}),
                                      encoding="utf-8")
    (tmp / "rows.ldjson").write_text("".join(json.dumps(o) + "\n" for o in objects),
                                     encoding="utf-8")
    pages = [{"data": objects[i:i + page_size]} for i in range(0, len(objects), page_size)]
    (tmp / "api.json").write_text(json.dumps({"pages": pages + [{"data": []}]}),
                                  encoding="utf-8")

    results = []
    for name, fmt in [("rows.csv", "csv"), ("rows.xml", "xml"), ("rows.json", "json"),
                      ("wrapped.json", "json"), ("rows.ldjson", "ldjson"),
                      ("api.json", "api")]:
        counts = SourceCounts()
        records = list(read_source(spec_for(tmp / name, fmt), counts=counts))
        results.append(([(r.raw_date, r.raw_text, int(r.source_id.rsplit(":", 1)[1]))
                         for r in records], counts))
    expected = [(d, t, n) for n, (d, t) in enumerate(rows) if t.strip()]
    for got, counts in results:
        assert got == expected
        assert counts == results[0][1]
        assert counts.emitted + counts.skipped + counts.dropped_empty == len(rows)
