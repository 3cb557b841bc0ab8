"""The program's one web client: a JSON request, and the rule for retrying it.
``requests`` is imported only when a request goes out, so a run on local files
never loads it."""

from __future__ import annotations

import time
from typing import Callable

ATTEMPTS = 3
BACKOFF_S = 0.5  # the wait before the second try, doubled before each later one


def send_json(method: str, url: str, timeout: float, **kwargs) -> tuple[int, object]:
    """The status of one HTTP request and its JSON body, None if the body is not JSON."""
    import requests

    resp = requests.request(method, url, timeout=timeout, **kwargs)
    try:
        return resp.status_code, resp.json()
    except ValueError:
        return resp.status_code, None


def call(send: Callable[[], tuple[int, object]], failed: Callable[[str], Exception]):
    """``send()``'s (status, body) reply and the number of tries it took. An
    OSError (every ``requests`` exception is one), a 429 or a 5xx is tried
    again, up to ATTEMPTS tries in all; then ``failed(the last reason)`` is raised."""
    reason = ""
    for attempt in range(ATTEMPTS):
        if attempt:
            time.sleep(BACKOFF_S * 2 ** (attempt - 1))
        try:
            reply = send()
        except OSError as e:
            reason = str(e)
            continue
        if reply[0] != 429 and reply[0] < 500:
            return reply, attempt + 1
        reason = f"HTTP {reply[0]}"
    raise failed(reason)
