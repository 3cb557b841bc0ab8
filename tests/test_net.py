"""The web client: its retry loop, and both callers over a loopback HTTP server."""

import json
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

import skillscope
from skillscope import net
from skillscope.cli import EXIT_OK, main
from skillscope.embed import HttpProvider
from skillscope.errors import DataError


class ScriptedServer(ThreadingHTTPServer):
    """Answers each request with the next (status, JSON body) of ``replies``,
    a body of None being sent empty, and keeps what each request sent."""

    daemon_threads = False  # so server_close joins every handler thread

    def __init__(self):
        super().__init__(("127.0.0.1", 0), ScriptedHandler)
        self.replies: list[tuple[int, object]] = []
        self.requests: list[dict] = []

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_port}/jobs"


class ScriptedHandler(BaseHTTPRequestHandler):
    def answer(self):
        length = int(self.headers.get("Content-Length") or 0)
        self.server.requests.append({
            "method": self.command, "path": self.path, "headers": dict(self.headers),
            "body": json.loads(self.rfile.read(length)) if length else None})
        status, body = self.server.replies.pop(0)
        data = b"" if body is None else json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST = answer

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    """A scripted server on a free loopback port. Its threads are all joined
    before the test ends, since a process that forks must have no others."""
    before = set(threading.enumerate())
    srv = ScriptedServer()
    thread = threading.Thread(target=srv.serve_forever, args=(0.02,))  # polls for shutdown
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive() and set(threading.enumerate()) == before


class TestCall:
    @staticmethod
    def replies(*outcomes):
        """A send() that gives or raises each outcome in turn, and the calls it saw."""
        sent = []

        def send():
            outcome = outcomes[len(sent)]
            sent.append(outcome)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        return send, sent

    @pytest.mark.parametrize("failure", [(429, None), (500, None), (503, {"error": "busy"}),
                                         OSError("reset by peer")])
    def test_a_passing_failure_is_tried_again(self, failure):
        send, sent = self.replies(failure, failure, (200, {"ok": 1}))
        assert net.call(send, ValueError) == ((200, {"ok": 1}), 3)
        assert len(sent) == 3

    @pytest.mark.parametrize("reply", [(200, None), (404, {"error": "gone"}), (400, None),
                                       (301, None)])
    def test_any_other_reply_is_returned_at_once(self, reply):
        send, _ = self.replies(reply)
        assert net.call(send, ValueError) == (reply, 1)

    def test_the_last_reason_is_raised_after_the_last_try(self):
        send, sent = self.replies(OSError("refused"), (502, None), (503, None))
        with pytest.raises(DataError, match="^gave up: HTTP 503$"):
            net.call(send, lambda reason: DataError(f"gave up: {reason}"))
        assert len(sent) == net.ATTEMPTS

    def test_waits_double_between_tries(self, monkeypatch):
        waits = []
        monkeypatch.setattr(net, "BACKOFF_S", 0.5)
        monkeypatch.setattr(net.time, "sleep", waits.append)
        send, _ = self.replies((500, None), (500, None), (500, None))
        with pytest.raises(DataError, match="^HTTP 500$"):
            net.call(send, DataError)
        assert waits == [0.5, 1.0]

    def test_a_refused_connection_is_an_oserror_tried_again(self):
        with socket.socket() as sock:  # a loopback port that nothing listens on
            sock.bind(("127.0.0.1", 0))
            url = f"http://127.0.0.1:{sock.getsockname()[1]}/"
            tries = []

            def send():
                tries.append(1)
                return net.send_json("GET", url, 5)

            with pytest.raises(DataError, match="refused"):
                net.call(send, DataError)
        assert len(tries) == net.ATTEMPTS


def test_api_source_pages_over_http(server, tmp_path):
    def page(n):
        return {"data": [{"date": "2022-01-01", "description": f"api posting {n}.{i}"}
                         for i in range(3)]}

    server.replies = [(200, page(1)), (503, None), (200, page(2)), (200, {"data": []})]
    (tmp_path / "sources.json").write_text(json.dumps([
        {"path_or_url": server.url, "format": "api", "date_field": "date",
         "text_field": "description", "api_token": "s3cret"}]))
    (tmp_path / "run.json").write_text(json.dumps({"sources": "sources.json"}))
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(tmp_path / "run.json"), "--out", str(out)]) == EXIT_OK
    assert [r["path"] for r in server.requests] == [
        "/jobs?page=1", "/jobs?page=2", "/jobs?page=2", "/jobs?page=3"]
    assert {r["headers"]["Authorization"] for r in server.requests} == {"Bearer s3cret"}
    records = [json.loads(line) for line in (out / "raw_records.ndjson").read_text().splitlines()]
    assert [r["raw_text"] for r in records] == [f"api posting {n}.{i}"
                                                for n in (1, 2) for i in range(3)]
    assert json.loads((out / "ingest_report.json").read_text())["jobs"] == {
        "emitted": 6, "skipped": 0, "dropped_empty": 0, "duplicates_removed": 0,
        "retries": 1, "pages_fetched": 2, "pages_skipped": 0}


class TestHttpProvider:
    def test_a_batch_is_posted_with_its_bearer_token(self, server):
        server.replies = [(200, {"vectors": [[3.0, 4.0], [0.0, 2.0]]})]
        vectors = HttpProvider(server.url, 2, auth="s3cret").embed_batch(["a b", "c"])
        assert np.allclose(vectors, [[0.6, 0.8], [0.0, 1.0]])
        (request,) = server.requests
        assert request["method"] == "POST" and request["body"] == {"texts": ["a b", "c"]}
        assert request["headers"]["Authorization"] == "Bearer s3cret"
        assert request["headers"]["Content-Type"] == "application/json"

    @pytest.mark.parametrize("reply", [(404, None), (200, {"vector": [[1.0, 0.0]]}),
                                       (200, {"vectors": {"a": [1.0, 0.0]}})])
    def test_a_reply_without_a_vector_list_fails_at_once(self, server, reply):
        server.replies = [reply]
        with pytest.raises(DataError, match=f"HTTP {reply[0]} without a 'vectors' list"):
            HttpProvider(server.url, 2).embed("a")
        assert len(server.requests) == 1


def test_loading_the_cli_leaves_requests_unloaded():
    code = "import sys, skillscope.cli; sys.exit('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(skillscope.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
