"""Run independent calls side by side in forked worker processes.

``call_all(calls)`` returns ``[call() for call in calls]``. This process makes
the first call itself; each other call runs in a process forked from it just
before, so whatever a call reads it finds in the memory it inherited and
nothing is pickled on the way in; only each result comes back, pickled over a
pipe. ``map_chunks(fn, items, jobs)`` is ``call_all`` over ``fn`` of at most
``jobs`` contiguous chunks of ``items``, each of at least a floor of items.
Where ``os.fork`` is not available every call runs here, in turn. A forked
child holds only the thread that forked it, so no other thread of the caller
may be running.

A worker records the warnings its call raises and sends them with its result;
they are issued again here, worker by worker in call order, through the
filters and the once-per-location registry of the module that raised each,
so they show as they would had every call run here.

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
import warnings
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

# The fewest items a chunk of map_chunks gets by default. A fork and its
# result pipe cost about 5 ms from a 160 MB process, about what splitting a few
# hundred postings saves (extract on 400: 19.8 ms in one process, 17.5 ms in
# two). The floor also keeps small corpora, such as perfbench's 400-posting
# traced run, in one process, so the tracer, which counts calls in this
# process only, sees them all.
MIN_CHUNK = 500


class WorkerError(RuntimeError):
    """A worker ended without sending its call's result."""


def _work(call: Callable[[], T], fd: int) -> None:
    """The forked worker: pickle the warnings ``call()`` raised, with its
    result or the error it raised, to the pipe ``fd`` and exit; it never
    returns to the caller."""
    code = 1
    try:
        with warnings.catch_warnings(record=True) as caught:
            try:
                reply = ("ok", call())
            except Exception as e:  # re-raised in the parent
                # class, args and attributes, so that an error whose __init__
                # builds its message from other arguments keeps that message
                reply = ("raised", type(e), e.args, vars(e))
        # the text, not the warning object, whose arguments might not pickle
        shown = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
        with open(fd, "wb") as pipe:
            pickle.dump((shown, *reply), pipe, protocol=pickle.HIGHEST_PROTOCOL)
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


def _reissue(shown) -> None:
    """Issue here each warning a worker recorded, as its module would have."""
    if not shown:
        return
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, category, filename, lineno in shown:
        module = modules.get(filename)
        where = {} if module is None else {
            "module": module.__name__,
            "registry": vars(module).setdefault("__warningregistry__", {})}
        warnings.warn_explicit(message, category, filename, lineno, **where)


def _result(index: int, reply, exit_code: int):
    if reply is None:
        raise WorkerError(f"worker {index} exited with code {exit_code} "
                          "before sending its call's result")
    shown, status, *rest = reply
    _reissue(shown)
    if status == "raised":
        cls, args, state = rest
        err = cls.__new__(cls, *args)
        err.args = args
        err.__dict__.update(state)
        raise err
    return rest[0]


def call_all(calls: Sequence[Callable[[], T]]) -> list[T]:
    """Each of ``calls`` made once, the first here and each other in its own
    forked worker, and their results in order; the first error, in call
    order, is raised here, and no worker outlives the call."""
    if len(calls) <= 1 or not hasattr(os, "fork"):
        return [call() for call in calls]
    workers = []  # (pid, read end of its pipe) of each worker not yet waited for
    try:
        for call in calls[1:]:
            read_fd, write_fd = os.pipe()
            pipe = open(read_fd, "rb")
            # a worker would write what is buffered here a second time
            sys.stdout.flush()
            sys.stderr.flush()
            try:
                pid = os.fork()
                if pid == 0:
                    _work(call, write_fd)
            except OSError:
                pipe.close()
                raise
            finally:
                # the worker now holds the only sending end, so its exit ends a read
                os.close(write_fd)
            workers.append((pid, pipe))
        results = [calls[0]()]
        while workers:
            pid, pipe = workers[0]
            reply = _read(pipe)
            exit_code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            results.append(_result(len(results), reply, exit_code))
        return results
    finally:
        for pid, pipe in workers:  # a call raised, or this process was interrupted
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def map_chunks(fn: Callable[[Sequence], T], items: Sequence, jobs: int,
               floor: int | None = None) -> list[T]:
    """``fn`` over at most ``jobs`` contiguous chunks of at least ``floor``
    items (MIN_CHUNK by default), in order, through ``call_all``."""
    n = min(jobs, len(items) // (MIN_CHUNK if floor is None else floor))
    if n <= 1 or not hasattr(os, "fork"):
        return [fn(items)]
    bounds = [len(items) * i // n for i in range(n + 1)]
    # each worker slices its own chunk from the items it inherited
    return call_all([lambda lo=lo, hi=hi: fn(items[lo:hi])
                     for lo, hi in zip(bounds, bounds[1:])])
