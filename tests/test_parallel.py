"""``parallel.map_chunks``, and the stages that run their work as its pieces:
order, warnings, byte identity across ``--jobs``, and every way a worker can
fail."""

import json
import os
import shutil
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillscope import cli, parallel
from skillscope.cli import EXIT_CONFIG, EXIT_DATA, EXIT_INTERNAL, EXIT_OK, main
from skillscope.embed import HashedProvider
from skillscope.errors import DataError, MissingUpstreamError, PatternCompileError
from skillscope.fixtures import write_demo_corpus
from skillscope.parallel import WorkerError, map_chunks
from skillscope.taxonomy import load_anchors
from skillscope.topics import lda_fit

from .helpers import assert_no_children, write_three_sources

SPLIT_STAGES = ("cleanse", "extract", "framing")
MODEL_STAGES = ("topics", "forecast")


def in_worker(parent_pid: int) -> bool:
    return os.getpid() != parent_pid


def slowed(fn, here: bool, seconds: float = 0.02):
    """``fn`` that first sleeps ``seconds`` on each piece in this process
    (``here``) or in a worker (not ``here``)."""
    parent = os.getpid()

    def call(piece):
        if in_worker(parent) != here:
            time.sleep(seconds)
        return fn(piece)
    return call


def tripled(piece):
    return os.getpid(), [x * 3 for x in piece]


class TestMapChunks:
    @given(st.lists(st.integers(), max_size=50), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_equals_the_serial_result_in_order(self, items, jobs):
        parent = os.getpid()
        with mock.patch.object(parallel, "MIN_CHUNK", 1):
            results = map_chunks(tripled, items, jobs)
        assert [y for _, part in results for y in part] == [x * 3 for x in items]
        processes = max(1, min(jobs, len(items)))
        # pieces of one item, the floor, at every process count; no items are one piece
        assert len(results) == max(1, len(items))
        assert results[0][0] == parent  # the first piece runs here
        # each process takes at least its first piece
        assert len({pid for pid, _ in results}) == processes
        assert_no_children()

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_a_slow_worker_leaves_more_pieces_to_this_process(self, jobs):
        parent = os.getpid()
        items = list(range(40))
        results = map_chunks(slowed(tripled, here=False), items, jobs, floor=1)
        assert [y for _, part in results for y in part] == [x * 3 for x in items]
        pids = [pid for pid, _ in results]
        assert len(set(pids)) == jobs
        here = pids.count(parent)
        assert all(here > pids.count(pid) for pid in set(pids) - {parent})
        assert_no_children()

    @pytest.mark.parametrize("slow_here", [True, False])
    def test_the_first_failing_piece_s_error_is_raised(self, slow_here):
        def fn(piece):
            if piece[0] == 2:
                time.sleep(0.2)  # piece 5 fails first in time
                warnings.warn("before piece 2's error")
                raise DataError("piece 2 failed")
            if piece[0] == 5:
                raise KeyError("piece 5 failed")
            return piece

        for jobs in (1, 2, 3):
            # the warning a piece raised before its error is shown too
            with pytest.warns(UserWarning, match="before piece 2's error"), \
                    pytest.raises(DataError, match="piece 2 failed"):
                map_chunks(slowed(fn, slow_here), range(8), jobs, floor=1)
            assert_no_children()

    @pytest.mark.parametrize("action", ["always", "default", "once", "ignore", "error"])
    def test_warnings_are_shown_in_piece_order(self, action):
        def fn(piece):
            warnings.warn(f"piece {piece[0]}")
            warnings.warn("every piece")
            return piece

        def shown(run) -> list[tuple]:
            """The warnings ``run()`` shows under filter ``action``, as
            (category, message, file, line), or the one raised as an error."""
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                try:
                    run()
                except UserWarning as error:
                    return [(type(error), str(error), None, None)]
            return [(w.category, str(w.message), w.filename, w.lineno) for w in caught]

        serial = shown(lambda: [fn([x]) for x in range(12)])
        for jobs in (1, 2, 3):
            assert shown(lambda: map_chunks(slowed(fn, here=False), range(12), jobs,
                                            floor=1)) == serial
            assert_no_children()
        messages = [m for _, m, _, _ in serial]
        assert len(messages) == {"always": 24, "default": 13, "once": 13, "ignore": 0,
                                 "error": 1}[action]
        assert messages[:3] == ["piece 0", "every piece", "piece 1"][:len(messages)]
        # each where warnings.warn was called, as in one process
        assert action == "error" or {(c, f) for c, _, f, _ in serial} <= {(UserWarning, __file__)}

    @pytest.mark.parametrize("items, jobs", [(10, 1), (10, 3), (3, 5), (1000, 4)])
    def test_processes_are_at_most_jobs(self, items, jobs):
        pids = {pid for pid, _ in map_chunks(tripled, range(items), jobs, floor=1)}
        assert len(pids) == max(1, parallel.chunk_count(items, jobs, floor=1)) <= jobs
        assert_no_children()

    def test_a_worker_killed_mid_queue_fails_with_its_exit_code(self):
        parent = os.getpid()
        taken = []

        def fn(piece):
            if in_worker(parent):
                taken.append(piece)  # in the worker's own memory
                if len(taken) == 2:
                    os.kill(os.getpid(), signal.SIGKILL)
            else:
                time.sleep(0.05)  # the worker takes a second piece meanwhile
            return piece

        with pytest.raises(WorkerError, match=f"exited with code {-signal.SIGKILL} "):
            map_chunks(fn, range(20), 2, floor=1)
        assert_no_children()

    def test_below_the_floor_runs_here(self):
        parent = os.getpid()
        items = list(range(2 * parallel.MIN_CHUNK - 1))
        whole, rest = divmod(len(items), parallel.PIECE)
        assert map_chunks(lambda chunk: (os.getpid(), len(chunk)), items, 4) == [
            (parent, parallel.PIECE)] * whole + [(parent, rest)]

    def test_at_the_floor_splits(self):
        items = list(range(2 * parallel.MIN_CHUNK))
        assert map_chunks(len, items, 4) == [parallel.PIECE] * (len(items) // parallel.PIECE)

    def test_a_floor_given_replaces_the_default(self):
        # pieces of the floor's size, at most PIECE, however many processes
        assert map_chunks(len, range(5), 4, floor=1) == [1] * 5
        assert map_chunks(len, range(5), 4, floor=2) == [2, 2, 1]
        assert map_chunks(len, range(5), 4, floor=3) == [3, 2]
        assert map_chunks(len, range(300), 2, floor=150) == [125, 125, 50]

    def test_the_queue_holds_at_most_its_pipe_s_pieces(self):
        # 1-item pieces would be 5,000 indices, more than a pipe is sure to hold
        results = map_chunks(len, range(5000), 2, floor=1)
        assert sum(results) == 5000
        assert len(results) <= parallel._QUEUE_PIECES + 2
        assert_no_children()

    @pytest.mark.parametrize("error", [
        MissingUpstreamError("postings.ndjson"),
        PatternCompileError("data (", "missing ), unterminated subpattern"),
        DataError("no postings to frame"),
        KeyError("sector"),
    ], ids=type)
    def test_a_worker_error_is_raised_here_with_its_class_and_message(self, error):
        parent = os.getpid()

        def fn(chunk):
            if in_worker(parent):
                raise error
            return chunk

        with mock.patch.object(parallel, "MIN_CHUNK", 1), \
                pytest.raises(type(error)) as caught:
            map_chunks(fn, [1, 2, 3], 3)
        assert type(caught.value) is type(error)
        assert str(caught.value) == str(error)
        assert vars(caught.value) == vars(error)  # artifact, phrase
        assert_no_children()

    @pytest.mark.parametrize("die, code", [
        (lambda: os._exit(7), 7),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
    ], ids=["exit", "killed"])
    def test_a_worker_that_dies_fails_with_its_exit_code(self, die, code):
        parent = os.getpid()

        def fn(chunk):
            if in_worker(parent):
                die()
            return chunk

        started = time.monotonic()
        with mock.patch.object(parallel, "MIN_CHUNK", 1), \
                pytest.raises(WorkerError, match=f"exited with code {code} "):
            map_chunks(fn, [1, 2], 2)
        assert time.monotonic() - started < 30
        assert_no_children()

    def test_a_result_that_cannot_be_pickled_fails_with_exit_code_1(self, capfd):
        parent = os.getpid()
        with mock.patch.object(parallel, "MIN_CHUNK", 1), \
                pytest.raises(WorkerError, match="exited with code 1 "):
            map_chunks(lambda chunk: (lambda: chunk) if in_worker(parent) else chunk,
                       [1, 2], 2)
        assert "pickle" in capfd.readouterr().err
        assert_no_children()

    def test_output_buffered_before_the_fork_is_written_once(self, tmp_path, monkeypatch):
        with open(tmp_path / "stdout", "w", encoding="utf-8") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            print("buffered", end="")
            with mock.patch.object(parallel, "MIN_CHUNK", 1):
                map_chunks(len, [1, 2, 3], 3)
        assert (tmp_path / "stdout").read_text() == "buffered"

    def test_an_error_in_this_process_stops_every_worker(self):
        parent = os.getpid()

        def fn(chunk):
            if in_worker(parent):
                time.sleep(60)
                return chunk
            raise DataError("first chunk failed")

        started = time.monotonic()
        with mock.patch.object(parallel, "MIN_CHUNK", 1), \
                pytest.raises(DataError, match="first chunk failed"):
            map_chunks(fn, [1, 2, 3], 3)
        assert time.monotonic() - started < 30
        assert_no_children()


# --- the stages ---------------------------------------------------------------

@pytest.mark.parametrize("command, jobs, forks", [
    # cleanse, extract, framing, topics and forecast fork one worker each
    (lambda tmp_path: ["all", "--config", str(write_demo_corpus(tmp_path, 2000, seed=7))],
     2, 5),
    # the second and third sources are read by a worker each
    (lambda tmp_path: ["ingest", "--config", str(write_three_sources(tmp_path))], 3, 2),
], ids=["all-2000", "ingest-three-sources"])
def test_no_other_thread_runs_when_a_worker_is_forked(tmp_path, monkeypatch, command, jobs,
                                                      forks):
    fork, threads = os.fork, []

    def checked_fork():
        threads.append(threading.active_count())
        assert threads[-1] == 1, threading.enumerate()
        return fork()

    monkeypatch.setattr(os, "fork", checked_fork)
    assert main(command(tmp_path) + ["--jobs", str(jobs)]) == EXIT_OK
    assert threads == [1] * forks
    assert_no_children()


def run_split_stages(config, raw_records, out, jobs: int,
                     stages=SPLIT_STAGES) -> dict[str, bytes]:
    """``stages`` from ``raw_records`` into ``out`` with ``jobs``; every
    artifact but the manifest, by name."""
    out.mkdir(parents=True)
    shutil.copyfile(raw_records, out / "raw_records.ndjson")
    written = {"raw_records.ndjson", "run_manifest.json"}
    for stage in stages:
        assert main([stage, "--config", str(config), "--out", str(out),
                     "--jobs", str(jobs)]) == EXIT_OK
        written.update(cli.PIPELINE[stage].outputs)
        assert set(os.listdir(out)) == written  # no part file or directory is left
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "run_manifest.json"}


def ingested(tmp_path, n: int):
    config = write_demo_corpus(tmp_path / "corpus", n, seed=7)
    assert main(["ingest", "--config", str(config),
                 "--out", str(tmp_path / "ingest")]) == EXIT_OK
    return config, tmp_path / "ingest" / "raw_records.ndjson"


def stage_processes(out) -> dict[str, tuple[int, int]]:
    stages = json.loads((out / "run_manifest.json").read_text())["stages"]
    return {name: (entry["jobs"], entry["processes"]) for name, entry in stages.items()}


class TestSplitStages:
    def test_2000_postings_are_byte_identical_for_jobs_1_2_3(self, tmp_path):
        config, raw = ingested(tmp_path, 2000)
        runs = {jobs: run_split_stages(config, raw, tmp_path / f"jobs{jobs}", jobs,
                                       SPLIT_STAGES + MODEL_STAGES)
                for jobs in (1, 2, 3)}
        assert len(runs[1]) == 13  # raw_records.ndjson and twelve outputs
        assert runs[1] == runs[2] == runs[3]
        for jobs in (1, 2, 3):
            # topics fits LDA beside the embedding models; forecast has 10 fits
            assert stage_processes(tmp_path / f"jobs{jobs}") == {
                **{stage: (jobs, jobs) for stage in SPLIT_STAGES},
                "topics": (jobs, min(jobs, 2)), "forecast": (jobs, min(jobs, 10))}
        # each fit's diagnostics come back from the process that ran it, in order
        fits = [json.loads((tmp_path / f"jobs{jobs}" / "run_manifest.json").read_text()
                           )["stages"]["forecast"]["counts"]["fits"] for jobs in (1, 2, 3)]
        assert len(fits[0]) == 10 and fits[0] == fits[1] == fits[2]
        assert_no_children()

    def test_topics_forks_only_for_two_chunks_of_postings(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("topics forked below two chunks of postings")

        config, raw = ingested(tmp_path, 200)
        out = tmp_path / "out"
        run_split_stages(config, raw, out, 1, ("cleanse",))
        n = len(cli.load_postings(out))
        topics = ["topics", "--config", str(config), "--out", str(out), "--jobs", "3"]
        with monkeypatch.context() as patched:
            patched.setattr(os, "fork", no_fork)
            assert main(topics) == EXIT_OK  # about 200 postings, below 2 × MIN_CHUNK
            assert stage_processes(out)["topics"] == (3, 1)
            patched.setattr(parallel, "MIN_CHUNK", n // 2 + 1)
            assert main(topics) == EXIT_OK
            assert stage_processes(out)["topics"] == (3, 1)
        monkeypatch.setattr(parallel, "MIN_CHUNK", n // 2)
        assert main(topics) == EXIT_OK
        assert stage_processes(out)["topics"] == (3, 2)
        assert_no_children()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_topics_records_each_fit_time_from_the_process_that_ran_it(
            self, tmp_path, monkeypatch, jobs):
        config, raw = ingested(tmp_path, 200)
        out = tmp_path / "out"
        run_split_stages(config, raw, out, 1, ("cleanse",))
        monkeypatch.setattr(parallel, "MIN_CHUNK", len(cli.load_postings(out)) // 2)
        fit = cli.lda_fit

        def slow_fit(*args):  # runs in the worker at --jobs 2
            time.sleep(0.3)
            return fit(*args)

        monkeypatch.setattr(cli, "lda_fit", slow_fit)
        assert main(["topics", "--config", str(config), "--out", str(out),
                     "--jobs", str(jobs)]) == EXIT_OK
        assert stage_processes(out)["topics"] == (jobs, jobs)
        stage = json.loads((out / "run_manifest.json").read_text())["stages"]["topics"]
        fit_s = stage["counts"]["fit_s"]
        assert set(fit_s) == {"lda_fit", "kmeans_fit", "density_topics"}
        assert fit_s["lda_fit"] >= 0.3
        assert fit_s["lda_fit"] + fit_s["kmeans_fit"] + fit_s["density_topics"] \
            <= stage["wall_clock_s"] * jobs
        assert_no_children()

    @pytest.mark.parametrize("fails, code, message", [
        ("lda_fit", EXIT_CONFIG, "config error: empty document-term matrix\n"),
        ("kmeans_fit", EXIT_DATA, "data error: k-means failed here\n"),
    ])
    def test_an_error_in_either_branch_exits_as_at_jobs_1(self, tmp_path, monkeypatch,
                                                          capsys, fails, code, message):
        def failing(*args, **kwargs):
            (tmp_path / "pid").write_text(str(os.getpid()))
            if fails == "kmeans_fit":
                raise DataError("k-means failed here")
            dtm, cfg = args
            return lda_fit(replace(dtm, vocab=[], doc_indices=[], doc_counts=[]), cfg)

        monkeypatch.setattr(parallel, "MIN_CHUNK", 1)
        config, raw = ingested(tmp_path, 200)
        out = tmp_path / "out"
        run_split_stages(config, raw, out, 1, ("cleanse",))
        monkeypatch.setattr(cli, fails, failing)
        errors, pids = {}, {}
        for jobs in (1, 2):
            assert main(["topics", "--config", str(config), "--out", str(out),
                         "--jobs", str(jobs)]) == code
            errors[jobs] = capsys.readouterr().err
            pids[jobs] = int((tmp_path / "pid").read_text())
            # the LDA worker is gone too when the branch here fails
            assert_no_children()
        assert errors[1] == errors[2] == message
        # LDA fits in the worker at --jobs 2; k-means here at either
        assert pids[1] == os.getpid()
        assert (pids[2] != os.getpid()) == (fails == "lda_fit")
        assert not any((out / name).exists() for name in cli.PIPELINE["topics"].outputs)

    @pytest.mark.parametrize("action", ["always", "default"])
    def test_forecast_shows_the_same_warnings_for_jobs_1_2_3(self, tmp_path, action):
        config, raw = ingested(tmp_path, 200)
        out = tmp_path / "out"
        run_split_stages(config, raw, out, 1, ("cleanse", "extract"))
        shown = {}
        for jobs in (1, 2, 3):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                assert main(["forecast", "--config", str(config), "--out", str(out),
                             "--jobs", str(jobs)]) == EXIT_OK
            shown[jobs] = [(w.category, str(w.message), w.filename, w.lineno)
                           for w in caught]
        assert shown[1] == shown[2] == shown[3]
        # the not-converged, non-stationary and short-series warnings, also
        # those of the last category's fits, which a worker makes
        for text in ("did not converge", "not stationary", "('Leadership',) has only"):
            assert any(text in message for _, message, _, _ in shown[1])
        assert stage_processes(out)["forecast"] == (3, 3)
        assert_no_children()

    def test_uneven_chunks_and_more_jobs_than_postings(self, tmp_path, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_CHUNK", 1)
        config, raw = ingested(tmp_path, 200)
        serial = run_split_stages(config, raw, tmp_path / "jobs1", 1)
        # 200-odd records and postings, a line a piece, in three processes
        assert run_split_stages(config, raw, tmp_path / "jobs3", 3) == serial
        assert stage_processes(tmp_path / "jobs3") == {s: (3, 3) for s in SPLIT_STAGES}

        few = tmp_path / "few_records.ndjson"
        few.write_text("".join(raw.read_text().splitlines(keepends=True)[:3]))
        serial = run_split_stages(config, few, tmp_path / "few1", 1)
        assert run_split_stages(config, few, tmp_path / "few5", 5) == serial
        n = len((tmp_path / "few5" / "postings.ndjson").read_text().splitlines())
        assert stage_processes(tmp_path / "few5") == {
            "cleanse": (5, 3), "extract": (5, n), "framing": (5, n)}
        assert_no_children()

    @pytest.mark.parametrize("stage, name", [("cleanse", "raw_records.ndjson"),
                                             ("extract", "postings.ndjson")])
    def test_a_bad_line_in_the_last_piece_exits_4_as_at_jobs_1(
            self, tmp_path, monkeypatch, capsys, stage, name):
        monkeypatch.setattr(parallel, "MIN_CHUNK", 20)  # pieces of 20 lines
        config, raw = ingested(tmp_path, 200)
        out = tmp_path / "out"
        run_split_stages(config, raw, out, 1, ("cleanse",))
        lines = (out / name).read_bytes().splitlines(keepends=True)
        assert len(lines) > 5 * 20
        lines[-1] = lines[-1][:40] + b"\n"  # cut inside the record
        (out / name).write_bytes(b"".join(lines))
        listing = sorted(os.listdir(out))
        errors = {}
        for jobs in (1, 2, 3):
            assert main([stage, "--config", str(config), "--out", str(out),
                         "--jobs", str(jobs)]) == EXIT_DATA
            errors[jobs] = capsys.readouterr().err
            assert sorted(os.listdir(out)) == listing  # no part file or directory is left
            assert_no_children()
        assert f"{out / name} line {len(lines)}: " in errors[1]
        assert errors[1] == errors[2] == errors[3]

    def test_a_stage_holds_one_piece_not_its_input_or_output(self, tmp_path):
        def peaks(n: int) -> dict[str, tuple[int, int]]:
            """Each stage's tracemalloc peak at --jobs 1 over n postings, and
            the size of the ndjson file it reads."""
            config, raw = ingested(tmp_path / str(n), n)
            out = tmp_path / str(n) / "out"
            run_split_stages(config, raw, out, 1, ())
            found = {}
            for stage in ("cleanse", "extract", "framing", "sectors"):
                tracemalloc.start()
                try:
                    assert main([stage, "--config", str(config), "--out", str(out)]) == EXIT_OK
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                found[stage] = peak, (out / cli.PIPELINE[stage].inputs[0]).stat().st_size
            return found

        # the small run also loads what a first run loads once, such as the
        # language profiles; the large corpus is about 2 MB of ndjson
        small, large = peaks(250), peaks(3000)
        # holding the lines read or the text written grows a stage's peak by
        # more than its input's size; one piece, and the few numbers a
        # posting adds to the stage's tables, by well under it
        grown = {stage: round((large[stage][0] - small[stage][0]) / large[stage][1], 2)
                 for stage in large}
        assert all(ratio < 1 for ratio in grown.values()), grown

    def test_an_empty_source_runs_each_stage_as_one_empty_piece(self, tmp_path, capsys):
        config = write_demo_corpus(tmp_path, 60)
        source = tmp_path / "postings.csv"
        source.write_text(source.read_text().splitlines(keepends=True)[0])  # the header
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            for stage in ("ingest", "cleanse", "extract"):
                assert main([stage, "--config", str(config), "--out", str(out),
                             "--jobs", jobs]) == EXIT_OK
            assert main(["framing", "--config", str(config), "--out", str(out),
                         "--jobs", jobs]) == EXIT_DATA
            assert capsys.readouterr().err == "data error: no postings to frame\n"
            assert (out / "postings.ndjson").read_bytes() == b""
            assert json.loads((out / "cleanse_report.json").read_text())["input"] == 0
            assert stage_processes(out) == {
                stage: (int(jobs), 1) for stage in ("ingest", "cleanse", "extract")}
            assert_no_children()

    def test_jobs_1_never_forks(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("forked under --jobs 1")

        monkeypatch.setattr(parallel, "MIN_CHUNK", 1)
        monkeypatch.setattr(os, "fork", no_fork)
        config, raw = ingested(tmp_path, 200)
        run_split_stages(config, raw, tmp_path / "out", 1)
        assert stage_processes(tmp_path / "out") == {s: (1, 1) for s in SPLIT_STAGES}

    def test_a_file_provider_frames_in_one_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_CHUNK", 1)
        config, raw = ingested(tmp_path, 200)
        out = tmp_path / "out"
        run_split_stages(config, raw, out, 1)
        # a vector for each posting id and each anchor phrase
        anchors = load_anchors()
        keys = [p.id for p in cli.load_postings(out)] + [
            *anchors.ai_anchors, *anchors.augment_anchors, *anchors.automate_anchors]
        hashed = HashedProvider(16)
        vectors = tmp_path / "vectors.csv"
        vectors.write_text("id,16\n" + "".join(
            f"{key},{','.join(map(repr, hashed.embed(key).tolist()))}\n" for key in keys))
        run = json.loads(config.read_text())
        run["embedding"] = {"kind": "file", "path": str(vectors)}
        config.write_text(json.dumps(run))
        assert main(["framing", "--config", str(config), "--out", str(out),
                     "--jobs", "2"]) == EXIT_OK
        assert stage_processes(out)["framing"] == (2, 1)

    def test_a_data_error_in_a_worker_exits_4(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()
        cleanse = cli.cleanse

        def failing(records, cfg):
            if in_worker(parent):
                raise DataError("bad record in a worker's chunk")
            return cleanse(records, cfg)

        monkeypatch.setattr(parallel, "MIN_CHUNK", 1)
        monkeypatch.setattr(cli, "cleanse", failing)
        config, raw = ingested(tmp_path, 200)
        out = tmp_path / "out"
        out.mkdir()
        shutil.copyfile(raw, out / "raw_records.ndjson")
        assert main(["cleanse", "--config", str(config), "--out", str(out),
                     "--jobs", "2"]) == EXIT_DATA
        assert "bad record in a worker's chunk" in capsys.readouterr().err
        assert not (out / "postings.ndjson").exists()
        assert_no_children()

    @pytest.mark.parametrize("killed", [False, True], ids=["exits", "killed-mid-queue"])
    def test_a_worker_that_dies_exits_5(self, tmp_path, monkeypatch, capsys, killed):
        parent = os.getpid()
        frame_document = cli.frame_document
        framed = []

        def dying(*args, **kwargs):
            if in_worker(parent):
                framed.append(args)  # a piece is one posting
                if not killed:
                    os._exit(3)
                if len(framed) == 2:
                    os.kill(os.getpid(), signal.SIGKILL)
            return frame_document(*args, **kwargs)

        monkeypatch.setattr(parallel, "MIN_CHUNK", 1)
        config, raw = ingested(tmp_path, 200)
        out = tmp_path / "out"
        run_split_stages(config, raw, out, 1)
        listing = sorted(os.listdir(out))
        monkeypatch.setattr(cli, "frame_document", dying)
        assert main(["framing", "--config", str(config), "--out", str(out),
                     "--jobs", "2"]) == EXIT_INTERNAL
        code = -signal.SIGKILL if killed else 3
        assert f"exited with code {code}" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == listing  # no part file or directory is left
        assert_no_children()
