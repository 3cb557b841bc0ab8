"""Split a per-item stage over forked worker processes.

``map_chunks(fn, items, jobs)`` cuts ``items`` into contiguous chunks and
returns ``[fn(chunk) for chunk in chunks]`` in order. This process runs the
first chunk itself; each other chunk runs in a process forked from it, which
slices its chunk from the memory it inherited, so the inputs are never
pickled; only each result comes back, pickled over a pipe. Where ``os.fork``
is not available everything runs here, as one chunk. A forked child holds
only the thread that forked it, so no other thread of the caller may be
running.

Workers are forked with ``os.fork`` rather than through ``multiprocessing``:
as fast, and on wide-10k's text stages (2 vCPUs, --jobs 2) the parent peaked
at 115 MB instead of 117 MB, without the eight modules it would import.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import traceback
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

# The fewest items a chunk gets. A fork and its result pipe cost about 5 ms
# from a 160 MB process, about what splitting a few hundred postings saves
# (extract on 400: 19.8 ms in one process, 17.5 ms in two). The floor also
# keeps small corpora, such as perfbench's 400-posting traced run, in one
# process, so the tracer, which counts calls in this process only, sees them all.
MIN_CHUNK = 500


class WorkerError(RuntimeError):
    """A worker ended without sending its chunk's result."""


def _work(fn, items, start: int, stop: int, fd: int) -> None:
    """The forked worker: pickle ``fn(items[start:stop])``, or the error it
    raised, to the pipe ``fd`` and exit; it never returns to the caller."""
    code = 1
    try:
        try:
            reply = ("ok", fn(items[start:stop]))
        except Exception as e:  # re-raised in the parent
            # class, args and attributes, so that an error whose __init__
            # builds its message from other arguments keeps that message
            reply = ("raised", type(e), e.args, vars(e))
        with open(fd, "wb") as pipe:
            pickle.dump(reply, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        sys.stdout.flush()
        sys.stderr.flush()
        code = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(code)


def _read(pipe):
    """The worker's reply, or None if it exited before sending all of it."""
    with pipe:
        try:
            return pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            return None


def _result(index: int, reply, exit_code: int):
    if reply is None:
        raise WorkerError(f"worker {index} exited with code {exit_code} "
                          "before sending its chunk's result")
    if reply[0] == "raised":
        _, cls, args, state = reply
        err = cls.__new__(cls, *args)
        err.args = args
        err.__dict__.update(state)
        raise err
    return reply[1]


def map_chunks(fn: Callable[[Sequence], T], items: Sequence, jobs: int) -> list[T]:
    """``fn`` over at most ``jobs`` contiguous chunks of at least MIN_CHUNK
    items, in order; a worker's exception is raised here, and no worker
    outlives the call."""
    n = min(jobs, len(items) // MIN_CHUNK)
    if n <= 1 or not hasattr(os, "fork"):
        return [fn(items)]
    bounds = [len(items) * i // n for i in range(n + 1)]
    workers = []  # (pid, read end of its pipe) of each worker not yet waited for
    try:
        for i in range(1, n):
            read_fd, write_fd = os.pipe()
            pipe = open(read_fd, "rb")
            # a worker would write what is buffered here a second time
            sys.stdout.flush()
            sys.stderr.flush()
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, items, bounds[i], bounds[i + 1], write_fd)
            except OSError:
                pipe.close()
                raise
            finally:
                # the worker now holds the only sending end, so its exit ends a read
                os.close(write_fd)
            workers.append((pid, pipe))
        results = [fn(items[:bounds[1]])]
        while workers:
            pid, pipe = workers[0]
            reply = _read(pipe)
            exit_code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            results.append(_result(len(results), reply, exit_code))
        return results
    finally:
        for pid, pipe in workers:  # a chunk raised, or this process was interrupted
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
