"""One fork-join helper for the loops whose work splits into independent shares.

fork_join(task, shares, big) runs task(j, w) for the workers j = 0, ..., w - 1
and returns their results in worker order.  Worker 0 is the calling process;
workers 1, ..., w - 1 are children forked for the call, each sending back one
pickled record through a pipe: its result, or the exception its share raised.
The caller splits its work by (j, w) and merges the results, so a merge that
does not depend on w gives the same bytes for every MM_THREADS.

w is min(worker_count(), shares), and 1 (no fork at all) unless the call
site's work is above its measured crossover (big), the platform is Linux, no
other Python thread runs (a fork copies another thread's state
mid-operation), and the call is not nested in a share: a forked worker, and
the caller while it runs share 0 beside forked workers, run their nested
calls serially so the workers never outnumber MM_THREADS.
worker_count() is read first, so a bad MM_THREADS fails at every size.

A child never returns into the caller's stack: it ends with os._exit, so it
runs no atexit handler and flushes no inherited stdio buffer.  The parent
reaps every child before it returns or raises, killing those still running
when it raises, so no call leaves a child behind.  An error raised by a
share reaches the caller with its type and message, the lowest worker's
first; a child that ends without a record raises RuntimeError naming how it
ended.  The helper never returns a partial result.
"""
from __future__ import annotations

import os
import pickle
import signal
import sys
import threading

from .errors import InvalidArgumentError

# set in a forked worker for the rest of its life, and in the caller while it
# runs share 0 beside forked workers
_in_worker = False


def worker_count() -> int:
    """Worker cap: MM_THREADS when set, else the CPUs this process may run on.

    The CPUs are ``os.sched_getaffinity(0)`` where it exists (so a host pinned
    to fewer CPUs than it has never gets more workers than it can run), else
    ``os.cpu_count()``.  fork_join runs at most this many workers, all but
    the caller forked, on Linux only: for run_experiment's trials, and past
    their crossovers for read_matrix_csv (_FORK_READ_BYTES = 2 MiB),
    k_means_pam (restarts * k * n^2 >= _FORK_PAM_ENTRIES = 3 * 2^20) and
    metric_validate's bound pass (n^3 >= _FORK_TRIANGLE_ENTRIES = 2^26).  It
    caps the workers only; the output bytes do not depend on it.
    """
    env = os.environ.get("MM_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise InvalidArgumentError(f"MM_THREADS must be an integer, got {env!r}")
        if cap < 1:
            raise InvalidArgumentError("MM_THREADS must be >= 1")
        return cap
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_join(task, shares: int, big: bool) -> list:
    """[task(0, w), ..., task(w - 1, w)]: worker j of w runs task(j, w), worker 0 in this process."""
    global _in_worker
    workers = min(worker_count(), shares)
    if workers < 2 or not big or _in_worker or sys.platform != "linux" or threading.active_count() != 1:
        return [task(0, 1)]
    children = []  # [pid or None once reaped, read fd or None once closed]
    try:
        for j in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child(task, j, workers, write_fd)
            os.close(write_fd)
            children.append([pid, read_fd])
        _in_worker = True
        try:
            results = [task(0, workers)]
        finally:
            _in_worker = False
        for child in children:
            results.append(_join(child))
        return results
    finally:
        for child in children:
            pid, read_fd = child
            if read_fd is not None:
                os.close(read_fd)
            if pid is not None:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(pid, 0)


def _child(task, j: int, workers: int, write_fd: int) -> None:
    """Run share j in a forked child, write its record, and end the process."""
    global _in_worker
    status = 1
    try:
        _in_worker = True
        try:
            data = pickle.dumps((True, task(j, workers)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            data = _error_record(exc)
        view = memoryview(data)
        while view:
            view = view[os.write(write_fd, view):]
        status = 0
    finally:
        os._exit(status)


def _error_record(exc: BaseException) -> bytes:
    """The pickled exception, or its type name and message where it does not unpickle."""
    try:
        data = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)
        return data
    except Exception:
        return pickle.dumps((None, f"{type(exc).__name__}: {exc}"), pickle.HIGHEST_PROTOCOL)


def _join(child: list):
    """Read a child's record to its end, reap the child, and return or raise what it sent."""
    pid, read_fd = child
    with open(read_fd, "rb") as fh:
        child[1] = None
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    child[0] = None
    try:
        ok, value = pickle.loads(data)
    except Exception:
        if os.WIFSIGNALED(status):
            how = f"killed by signal {os.WTERMSIG(status)}"
        else:
            how = f"exit status {os.waitstatus_to_exitcode(status)}"
        raise RuntimeError(f"worker process {pid} ended without a result ({how})") from None
    if ok:
        return value
    if ok is None:
        raise RuntimeError(value)
    raise value
