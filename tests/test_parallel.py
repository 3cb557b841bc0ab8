"""``parallel.call_all`` and ``map_chunks``, and the stages that split their
work over them: order, warnings, byte identity across ``--jobs``, and every
way a worker can fail."""

import json
import os
import shutil
import signal
import sys
import time
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
from skillscope.parallel import WorkerError, call_all, map_chunks
from skillscope.taxonomy import load_anchors
from skillscope.topics import lda_fit

SPLIT_STAGES = ("cleanse", "extract", "framing")
MODEL_STAGES = ("topics", "forecast")


def in_worker(parent_pid: int) -> bool:
    return os.getpid() != parent_pid


def assert_no_children() -> None:
    """Every worker has been waited for: none is running, and none is left
    for waitpid to reap."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def warned(calls, action: str) -> list[tuple]:
    """The warnings ``call_all(calls)`` shows under filter ``action``, as
    (category, message, file, line)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        call_all(calls)
    return [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def warn_and_return(text: str):
    def call():
        warnings.warn(text)
        return text
    return call


class TestCallAll:
    def test_each_call_runs_once_the_first_here_and_results_keep_call_order(self):
        parent = os.getpid()
        results = call_all([lambda i=i: (i, os.getpid()) for i in range(4)])
        assert [i for i, _ in results] == [0, 1, 2, 3]
        assert results[0][1] == parent
        assert len({pid for _, pid in results[1:]} - {parent}) == 3
        assert_no_children()

    def test_the_first_error_in_call_order_is_raised(self):
        def fail(error):
            def call():
                raise error
            return call

        with pytest.raises(DataError, match="second call"):
            call_all([lambda: 0, fail(DataError("second call")), fail(KeyError("third"))])
        assert_no_children()

    def test_worker_warnings_are_shown_here_in_call_order(self):
        calls = [warn_and_return(f"from call {i}") for i in range(3)]
        shown = warned(calls, "always")
        assert [message for _, message, _, _ in shown] == [
            "from call 0", "from call 1", "from call 2"]
        # each where warnings.warn was called, as in one process
        assert {(category, file) for category, _, file, _ in shown} == {
            (UserWarning, __file__)}
        assert_no_children()

    def test_a_worker_warning_before_its_error_is_shown(self):
        def warn_then_fail():
            warnings.warn("before the error")
            raise DataError("after the warning")

        with pytest.warns(UserWarning, match="before the error"), \
                pytest.raises(DataError, match="after the warning"):
            call_all([lambda: 0, warn_then_fail])
        assert_no_children()

    @pytest.mark.parametrize("action", ["default", "once", "ignore", "always"])
    def test_the_filters_of_this_process_apply_as_to_serial_calls(self, action):
        calls = [warn_and_return("same place, same text")] * 3
        serial = warned([lambda: [call() for call in calls]], action)
        assert warned(calls, action) == serial
        assert len(serial) == {"default": 1, "once": 1, "ignore": 0, "always": 3}[action]

    def test_a_warning_filtered_as_error_is_raised(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="an error here"):
                call_all([lambda: 0, warn_and_return("an error here")])
        assert_no_children()


class TestMapChunks:
    @given(st.lists(st.integers(), max_size=50), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_equals_the_serial_result_in_order(self, items, jobs):
        parent = os.getpid()
        with mock.patch.object(parallel, "MIN_CHUNK", 1):
            results = map_chunks(lambda chunk: (os.getpid(), [x * 3 for x in chunk]),
                                 items, jobs)
        assert [y for _, part in results for y in part] == [x * 3 for x in items]
        assert len(results) == max(1, min(jobs, len(items)))
        assert results[0][0] == parent
        assert all(pid != parent for pid, _ in results[1:])
        assert all(part for _, part in results[1:])  # no worker gets an empty chunk
        assert_no_children()

    def test_below_the_floor_runs_here(self):
        parent = os.getpid()
        items = list(range(2 * parallel.MIN_CHUNK - 1))
        assert map_chunks(lambda chunk: (os.getpid(), len(chunk)), items, 4) == [
            (parent, len(items))]

    def test_at_the_floor_splits(self):
        items = list(range(2 * parallel.MIN_CHUNK))
        assert map_chunks(len, items, 4) == [parallel.MIN_CHUNK] * 2

    def test_a_floor_given_replaces_the_default(self):
        assert map_chunks(len, range(5), 4, floor=1) == [1, 1, 1, 2]
        assert map_chunks(len, range(5), 4, floor=2) == [2, 3]
        assert map_chunks(len, range(5), 4, floor=3) == [5]

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

def run_split_stages(config, raw_records, out, jobs: int,
                     stages=SPLIT_STAGES) -> dict[str, bytes]:
    """``stages`` from ``raw_records`` into ``out`` with ``jobs``; every
    artifact but the manifest, by name."""
    out.mkdir(parents=True)
    shutil.copyfile(raw_records, out / "raw_records.ndjson")
    for stage in stages:
        assert main([stage, "--config", str(config), "--out", str(out),
                     "--jobs", str(jobs)]) == EXIT_OK
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
        # 200-odd records and postings in three uneven chunks
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

    def test_a_worker_that_dies_exits_5(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()
        frame_document = cli.frame_document

        def dying(*args, **kwargs):
            if in_worker(parent):
                os._exit(3)
            return frame_document(*args, **kwargs)

        monkeypatch.setattr(parallel, "MIN_CHUNK", 1)
        monkeypatch.setattr(cli, "frame_document", dying)
        config, raw = ingested(tmp_path, 200)
        out = tmp_path / "out"
        run_split_stages(config, raw, out, 1)
        assert main(["framing", "--config", str(config), "--out", str(out),
                     "--jobs", "2"]) == EXIT_INTERNAL
        assert "exited with code 3" in capsys.readouterr().err
        assert_no_children()

