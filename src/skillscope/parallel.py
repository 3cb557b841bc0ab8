"""Run a stage's work as pieces taken from one queue by forked processes.

``map_chunks(fn, items, jobs)`` returns ``fn`` of each piece of ``items``, in
order: contiguous pieces of at most ``PIECE`` items, the same at every
``jobs``, taken from one shared queue by ``chunk_count`` processes, this one
and forked workers; with one process it forks nothing. Process k starts with
piece k; the queue, a pipe filled with the 4-byte index of each other piece
before any fork, hands out the rest, so a process that finishes early takes
more pieces and none waits on a slower one. A process takes no new piece
after one fails and empties the queue, so the others stop too; every piece
before the failed one was taken already, so the error raised here is that of
the first failing piece, as in one process. A worker finds whatever a piece
reads in the memory it inherited, so nothing is pickled on the way in; only
each piece's result comes back, pickled over a pipe.

skillscope runs on POSIX systems, so ``os.fork`` is there. A forked child
holds only the thread that forked it, so no other thread may be running.
That holds: ``skillscope.cli`` defaults numpy's BLAS to one thread before
numpy loads, so numpy starts no pool thread (a host program that imported
numpy first keeps its own).

Each process records the warnings each of its pieces raises; a worker sends
them with its results. They are issued here, in piece order, through the
filters and the once-per-location registry of the module that raised each,
so they show as they would had every piece run here in turn.

Workers are forked with ``os.fork`` rather than through ``multiprocessing``:
as fast, and on wide-10k's text stages (2 vCPUs, --jobs 2) the parent peaked
at 115 MB instead of 117 MB, without the eight modules it would import.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import sys
import traceback
import warnings
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

# The fewest items a process of map_chunks gets by default. A fork and its
# result pipe cost about 5 ms from a 160 MB process, about what splitting a few
# hundred postings saves (extract on 400: 19.8 ms in one process, 17.5 ms in
# two). The floor also keeps small corpora, such as perfbench's 400-posting
# traced run, in one process, so the tracer, which counts calls in this
# process only, sees them all.
MIN_CHUNK = 500
# The most items in a piece of the queue, and never more than the floor.
# cleanse, extract and framing on wide-10k's 10,000 postings (2 vCPUs,
# --jobs 2, median of 4 rounds) took 2.31 s in pieces of 50, 2.17 s in
# pieces of 125, 2.18 s in pieces of 250 and 2.32 s in pieces of 500: small
# pieces cost more to hand out and send back, large ones leave one process
# finishing its last piece while the other is idle.
PIECE = 125
# The queue is filled before the fork, so it must fit in a pipe's buffer: it
# holds at most 1,024 indices, 4 KiB, one page, the least a pipe holds; a
# larger input gets larger pieces.
_QUEUE_PIECES = 1024


class WorkerError(RuntimeError):
    """A worker ended without sending its results."""


def _run(fn: Callable, *args) -> tuple:
    """``fn(*args)`` with the warnings it raises recorded, as (warnings,
    error or None, result); each warning as its text, category and place,
    not the warning object, whose arguments might not pickle."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            result, error = fn(*args), None
        except Exception as e:  # raised again in piece order
            result, error = None, e
    return [(str(w.message), w.category, w.filename, w.lineno) for w in caught], error, result


def _work(serve: Callable[[], list], fd: int) -> None:
    """The forked worker: pickle ``serve()``'s ``(index, warnings, error,
    result)`` entries to the pipe ``fd`` and exit; it never returns to the
    caller."""
    code = 1
    try:
        # an error goes as its class, args and attributes, so that an error
        # whose __init__ builds its message from other arguments keeps it
        replies = [(index, shown, error if error is None
                    else (type(error), error.args, vars(error)), result)
                   for index, shown, error, result in serve()]
        with open(fd, "wb") as pipe:
            pickle.dump(replies, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        sys.stdout.flush()
        sys.stderr.flush()
        code = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(code)


class _Workers:
    """Workers forked from this process, collected oldest first; on leaving
    the ``with`` block every worker not yet collected is killed, so none
    outlives the call, whether it returned or raised."""

    def __init__(self):
        self.running: list[tuple[int, object]] = []  # (pid, read end of its pipe)
        self.forked = 0

    def __enter__(self) -> "_Workers":
        return self

    def fork(self, serve: Callable[[], list]) -> None:
        read_fd, write_fd = os.pipe()
        pipe = open(read_fd, "rb")
        # a worker would write what is buffered here a second time
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            pid = os.fork()
            if pid == 0:
                _work(serve, write_fd)
        except OSError:
            pipe.close()
            raise
        finally:
            # the worker now holds the only sending end, so its exit ends a read
            os.close(write_fd)
        self.running.append((pid, pipe))
        self.forked += 1

    def collect(self) -> list:
        """The replies of the oldest running worker, once it has exited;
        WorkerError if it exited without sending them all."""
        pid, pipe = self.running[0]
        with pipe:
            try:
                replies = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                replies = None
        exit_code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        del self.running[0]
        if replies is None:
            number = self.forked - len(self.running)
            raise WorkerError(f"worker {number} exited with code {exit_code} "
                              "before sending its results")
        return replies

    def __exit__(self, *exc) -> None:
        for pid, pipe in self.running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def _reissue(shown) -> None:
    """Issue here each warning a piece recorded, as its module would have."""
    if not shown:
        return
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, category, filename, lineno in shown:
        module = modules.get(filename)
        where = {} if module is None else {
            "module": module.__name__,
            "registry": vars(module).setdefault("__warningregistry__", {})}
        warnings.warn_explicit(message, category, filename, lineno, **where)


def _outcome(shown, error, result):
    """``result``, once the warnings are issued here; or the error raised."""
    _reissue(shown)
    if error is None:
        return result
    if isinstance(error, tuple):  # sent by a worker
        cls, args, state = error
        error = cls.__new__(cls, *args)
        error.args = args
        error.__dict__.update(state)
    raise error


def chunk_count(items: int, jobs: int, floor: int | None = None) -> int:
    """How many processes ``map_chunks`` runs over ``items`` items: one, or
    at most ``jobs``, each of at least ``floor`` items (MIN_CHUNK by default)."""
    return max(1, min(jobs, items // (MIN_CHUNK if floor is None else floor)))


def _take(queue: int) -> int | None:
    """The next piece index from the queue, or None once it is empty."""
    data = os.read(queue, 4)
    return struct.unpack("I", data)[0] if data else None


def _serve(fn: Callable, items: Sequence, bounds: list[int], first: int,
           queue: int) -> list[tuple]:
    """``(index, warnings, error, result)`` of piece ``first`` and of each
    piece then taken from the queue, until it is empty or a piece fails."""
    done = []
    index = first
    while index is not None:
        done.append((index, *_run(fn, items[bounds[index]:bounds[index + 1]])))
        if done[-1][2] is not None:
            while os.read(queue, 1 << 16):  # the rest of the queue: no process takes more
                pass
            break
        index = _take(queue)
    return done


def map_chunks(fn: Callable[[Sequence], T], items: Sequence, jobs: int,
               floor: int | None = None) -> list[T]:
    """``fn`` over contiguous pieces of ``items``, in order, in
    ``chunk_count`` processes: pieces of ``min(PIECE, floor)`` items (floor
    MIN_CHUNK by default), larger only to keep the queue within its pipe; no
    items make one empty piece."""
    processes = chunk_count(len(items), jobs, floor)
    size = max(min(PIECE, MIN_CHUNK if floor is None else floor),
               -(-len(items) // (_QUEUE_PIECES + processes)))
    bounds = [*range(0, max(len(items), 1), size), len(items)]
    pieces = len(bounds) - 1
    queue, fill = os.pipe()
    try:
        with open(fill, "wb") as pipe:  # closed before the fork: an empty queue reads as such
            pipe.write(struct.pack(f"{pieces - processes}I", *range(processes, pieces)))
        with _Workers() as workers:
            for first in range(1, processes):
                # each worker slices its pieces from the items it inherited
                workers.fork(lambda first=first: _serve(fn, items, bounds, first, queue))
            replies = {index: reply for index, *reply in _serve(fn, items, bounds, 0, queue)}
            results = []
            for index in range(pieces):
                # the workers are waited for only once a piece is not here, so
                # an error here in a piece before all of theirs is raised at once
                while index not in replies:
                    replies.update((i, reply) for i, *reply in workers.collect())
                results.append(_outcome(*replies.pop(index)))
            return results
    finally:
        os.close(queue)
