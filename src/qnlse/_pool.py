"""One fork/pipe pull queue for work split into independent tasks.

``run_tasks`` runs tasks ``0 .. n-1`` in this process and in
``min(CPUs, n) - 1`` workers forked with ``os.fork``.  All of them pull
task numbers, in order, from one pipe, so a process that runs slower
takes fewer tasks.  A worker writes each task's outcome to its own pipe
as one pickle of ``(task, (value, error))``, which its STOP opcode ends:
nothing else delimits the messages.  This process reads the pipes only
once the queue is empty, each to its end.  A worker whose pipe is full
waits, and takes no more tasks, until then; this process runs the rest.
That cannot deadlock: a worker waits only on its own pipe, and every
pipe is read to its end.

``verify`` runs its suites on it; it is the pool's only user.  Its 22
tasks send messages of at most 217 bytes, 3.7 KB in all (seed 42), so
no worker waits on the default 64 KiB pipe.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys
from typing import Any, Callable

from .errors import QnlseError

# Task numbers are written into the queue before any fork, so that the
# write cannot wait for a reader: they must fit in the smallest pipe
# buffer Linux gives out (one 4 KiB page), at 4 bytes each.
MAX_TASKS = 1024
_TASK = struct.Struct("<I")


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _pull(queue: int) -> int | None:
    """The next task number from ``queue``, or None once it is empty."""
    data = os.read(queue, _TASK.size)
    return _TASK.unpack(data)[0] if data else None


def _drain(queue: int) -> None:
    """Empty ``queue``, so that no process starts another task."""
    while os.read(queue, 4096):
        pass


def _attempt(run: Callable[[int], Any], task: int) -> tuple[Any, Exception | None]:
    try:
        return run(task), None
    except Exception as exc:
        return None, exc


def _send(out: int, task: int, value, error: Exception | None) -> None:
    if error is not None:
        try:
            pickle.loads(pickle.dumps(error))
        except Exception:  # an exception that does not pickle travels as its text
            error = QnlseError(f"{type(error).__name__}: {error}")
    view = memoryview(pickle.dumps((task, (value, error)), pickle.HIGHEST_PROTOCOL))
    while view:
        view = view[os.write(out, view):]


def _messages(fd: int):
    """Each ``(task, (value, error))`` a worker sent on ``fd``, up to its
    end or to a message cut short by the worker's death."""
    with os.fdopen(fd, "rb", closefd=False) as stream:
        while True:
            try:
                yield pickle.load(stream)
            except (EOFError, pickle.UnpicklingError):
                return


def _worker(queue: int, out: int, run: Callable[[int], Any]) -> None:
    """A forked worker's whole life: pull tasks, write each outcome to
    ``out``, and leave with ``os._exit``; it never returns.  After a task
    raises it drains the queue, since every task still queued comes
    later."""
    status = 1
    try:
        while (task := _pull(queue)) is not None:
            value, error = _attempt(run, task)
            _send(out, task, value, error)
            if error is not None:
                _drain(queue)
        status = 0
    finally:
        _flush_stdio()
        os._exit(status)


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):  # None or closed: nothing to flush
            pass


def run_tasks(n_tasks: int, run: Callable[[int], Any],
              describe: Callable[[int], str]) -> list:
    """``[run(task) for task in range(n_tasks)]``, run on every usable CPU.

    Workers are forked only where ``os.fork`` exists, and not with one
    CPU or one task.  The outcome is that of a serial run that stops at
    the first failure: when ``run`` raises, in whichever process, the
    queue is drained, the tasks already running finish, and once every
    worker is reaped the earliest failure is raised again.  A task lost
    with its worker raises ``QnlseError("<describe(task)> was not
    reported: verify worker <pid> exited with status <n>")`` (or "was
    killed by signal <n>"), unless an earlier task failed.  An exception
    that does not pickle comes back from a worker as a ``QnlseError``
    with its type name and message.  A worker's warnings go to the same
    stderr.

    Every worker is reaped before this returns or raises,
    ``KeyboardInterrupt`` included; the queue is drained first, so a
    worker stops after its current task.
    """
    if not 0 <= n_tasks <= MAX_TASKS:
        raise ValueError(f"{n_tasks} tasks; the queue holds at most {MAX_TASKS}")
    queue, feed = os.pipe()
    os.write(feed, b"".join(map(_TASK.pack, range(n_tasks))))
    os.close(feed)
    workers: dict[int, int] = {}  # read end of a worker's pipe -> its pid
    outcomes: dict[int, tuple[Any, Exception | None]] = {}
    statuses = []
    try:
        n_workers = min(_usable_cpus(), n_tasks) - 1 if hasattr(os, "fork") else 0
        if n_workers > 0:
            _flush_stdio()  # so that no worker writes this process's buffered text
        for _ in range(n_workers):
            reader, writer = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the rest runs here
                os.close(reader)
                os.close(writer)
                break
            if pid == 0:
                os.close(reader)
                for other in workers:
                    os.close(other)
                _worker(queue, writer, run)
            os.close(writer)
            workers[reader] = pid
        while (task := _pull(queue)) is not None:
            outcomes[task] = _attempt(run, task)
            if outcomes[task][1] is not None:
                _drain(queue)
        for reader in workers:
            outcomes.update(_messages(reader))
    finally:
        _drain(queue)
        os.close(queue)
        for reader, pid in workers.items():
            os.close(reader)
            statuses.append((pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    for task in range(n_tasks):
        if task not in outcomes:
            notes = "; ".join(f"verify worker {pid} exited with status {code}" if code >= 0
                              else f"verify worker {pid} was killed by signal {-code}"
                              for pid, code in statuses if code != 0)
            raise QnlseError(f"{describe(task)} was not reported: {notes}")
        if outcomes[task][1] is not None:
            raise outcomes[task][1]
    return [outcomes[task][0] for task in range(n_tasks)]
