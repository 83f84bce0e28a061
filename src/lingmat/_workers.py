"""Forked workers: the one way lingmat splits work across CPUs.

A job is split into `_part_count` parts: one per CPU this process may run
on (``os.sched_getaffinity``), but no more than one per `_MIN_PART` bytes
of input, and one where ``os.fork`` or ``os.sched_getaffinity`` is
missing or this process runs more than one thread.  `_each_part` runs
part 0 in this process and each other part in a forked child, all at
once.  A child inherits the parent's memory as it was at the fork, so it
reads the parent's tables without pickling; its result, or its
exception, comes back pickled over a pipe.  Children are always killed
and reaped before `_each_part` returns or raises.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal

#: The fewest bytes of input per part: 16 reads of the corpus reader, or
#: the matrices of ~146 Monte Carlo draws at D = 30.  Below about this a
#: forked worker costs more than it saves.
_MIN_PART = 1 << 20


def _can_fork() -> bool:
    """Whether this process may fork workers: ``os.fork`` exists and the
    process runs one thread.  A fork copies only the calling thread, so a
    lock that another thread holds stays locked in the child (CPython
    3.12 warns of it)."""
    try:
        return hasattr(os, "fork") and len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where that is unknown."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _part_count(nbytes: int) -> int:
    """The parts to split a job over `nbytes` of input into: one per usable
    CPU where this process may fork, else one, and at most one per
    `_MIN_PART` bytes."""
    return min(_usable_cpus() if _can_fork() else 1, max(1, nbytes // _MIN_PART))


@contextlib.contextmanager
def _forked(what, job, *args):
    """Run ``job(*args)`` in a forked child while the block runs.  The
    block gets a function that returns the job's result or raises its
    exception, which the child sends pickled over a pipe; if the child
    dies first, the function raises a RuntimeError that names `what` and
    the child's exit status.  The child is killed and reaped when the
    block ends."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if not pid:  # the child never returns into its caller's frames
        try:
            os.close(read_end)
            try:
                out = (True, job(*args))
            except BaseException as exc:
                out = (False, exc)
            try:
                data = pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
            except Exception:
                data = pickle.dumps((False, RuntimeError(repr(out[1]))))
            data = memoryview(data)
            while data:
                data = data[os.write(write_end, data):]
        finally:
            os._exit(0)
    os.close(write_end)
    reaped = False
    try:
        with open(read_end, "rb") as fh:
            def result():
                nonlocal reaped
                try:
                    ok, value = pickle.load(fh)
                except Exception:
                    reaped = True
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    how = (f"was killed by signal {-code}" if code < 0
                           else f"exited with status {code}")
                    raise RuntimeError(f"a {what} worker process {how} before it sent "
                                       "its result") from None
                if not ok:
                    raise value
                return value
            yield result
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _each_part(what, job, n) -> list:
    """``[job(0), ..., job(n - 1)]``.  Where this process may fork, job 0
    runs here while each other job runs in a forked child, all at once;
    otherwise the jobs run here one after another.  The exception of the
    earliest failing job is raised; a child that dies is a RuntimeError
    naming `what` worker it was."""
    if n == 1 or not _can_fork():
        return [job(k) for k in range(n)]
    with contextlib.ExitStack() as stack:
        results = [stack.enter_context(_forked(what, job, k)) for k in range(1, n)]
        return [job(0)] + [result() for result in results]
