"""One fork/pipe pull queue for work split into independent tasks.

``run_tasks`` runs tasks ``0 .. n-1`` in this process and in
``min(CPUs, n) - 1`` workers forked with ``os.fork``.  All of them pull
task numbers, in order, from one pipe, so a process that runs slower
takes fewer tasks.  A worker sends each task's outcome back, pickled,
on its own pipe as soon as the task is done, and waits while that pipe
is full; this process reads the pipes between its own tasks.  So the
outcomes in flight are at most a few per worker: those its pipe holds
and the one it is sending.  Every outcome is handed to ``deliver`` here,
in the order they come back.

``verify`` runs its suites on it, and ``cli.cmd_propagate`` formats its
frames on it.
"""

from __future__ import annotations

import os
import pickle
import select
import struct
import sys
from typing import Any, Callable

from .errors import QnlseError

try:
    from fcntl import F_SETPIPE_SZ, fcntl
except ImportError:  # F_SETPIPE_SZ is Linux only
    fcntl = None

# Task numbers are written into the queue before any fork, so that the
# write cannot wait for a reader: they must fit in the smallest pipe
# buffer Linux gives out (one 4 KiB page), at 4 bytes each.
MAX_TASKS = 1024
_TASK = struct.Struct("<I")
_HEADER = struct.Struct("<IQ")  # task number, length of the pickled outcome
# A worker's result pipe is widened to this where Linux allows it (1 MiB
# is its default limit for an unprivileged process), so that a worker
# can leave an outcome there and go on while this process runs a task.
_PIPE_BYTES = 1 << 20


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _widen(fd: int) -> None:
    if fcntl is not None:
        try:
            fcntl(fd, F_SETPIPE_SZ, _PIPE_BYTES)
        except OSError:  # above this user's limit: keep the default size
            pass


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
    payload = pickle.dumps((value, error), pickle.HIGHEST_PROTOCOL)
    for data in (_HEADER.pack(task, len(payload)), payload):
        view = memoryview(data)
        while view:
            view = view[os.write(out, view):]


def _read_exact(fd: int, size: int) -> bytearray | None:
    """``size`` bytes from ``fd``, or None if it ends first."""
    buf = bytearray(size)
    view, got = memoryview(buf), 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if n == 0:
            return None
        got += n
    return buf


def _receive(fd: int):
    """The next ``(task, value, error)`` a worker sent on ``fd``, or None
    once the worker has closed it (or died in the middle of a message)."""
    header = _read_exact(fd, _HEADER.size)
    if header is None:
        return None
    task, size = _HEADER.unpack(header)
    payload = _read_exact(fd, size)
    if payload is None:
        return None
    return (task, *pickle.loads(payload))


def _worker(queue: int, out: int, run: Callable[[int], Any]) -> None:
    """A forked worker's whole life: pull tasks, send each outcome to
    ``out`` as soon as it is done, and leave with ``os._exit``; it never
    returns.  After a task raises it drains the queue, since every task
    still queued comes later."""
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


def run_tasks(label: str, n_tasks: int, run: Callable[[int], Any],
              deliver: Callable[[int, Any], None],
              describe: Callable[[int], str]) -> None:
    """Run ``run(task)`` for tasks ``0 .. n_tasks-1`` on every usable CPU
    and hand each result to ``deliver(task, result)`` in this process.

    Workers are forked only where ``os.fork`` exists, and not with one
    CPU or one task.  The outcome is that of a serial run that stops at
    the first failure: a task fails when ``run`` raises, in whichever
    process, or when ``deliver`` raises here.  After a failure the queue
    is drained and no later task is delivered, but the earlier tasks
    already running are; once every worker is reaped, the earliest
    failure is raised again.  A task lost with its worker raises
    ``QnlseError("<describe(task)> was not reported: <label> worker
    <pid> exited with status <n>")`` (or "was killed by signal <n>"),
    unless an earlier task failed.  An exception that does not pickle
    comes back from a worker as a ``QnlseError`` with its type name and
    message.  A worker's warnings go to the same stderr.

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
    delivered: set[int] = set()
    failures: dict[int, Exception] = {}

    def take(task: int, value, error: Exception | None) -> None:
        if error is None:
            if failures and task > min(failures):
                return  # a serial run would have stopped before this task
            try:
                deliver(task, value)
                delivered.add(task)
                return
            except Exception as exc:
                error = exc
        failures[task] = error
        _drain(queue)

    def collect(timeout: float | None) -> None:
        """Take what the workers sent; with ``timeout=None``, all of it."""
        while pending:
            ready = select.select(pending, [], [], timeout)[0]
            if not ready:
                return
            for fd in ready:
                message = _receive(fd)
                if message is None:
                    pending.remove(fd)
                else:
                    take(*message)

    statuses = []
    try:
        n_workers = min(_usable_cpus(), n_tasks) - 1 if hasattr(os, "fork") else 0
        if n_workers > 0:
            _flush_stdio()  # so that no worker writes this process's buffered text
        for _ in range(n_workers):
            reader, writer = os.pipe()
            _widen(writer)
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
        pending = list(workers)
        while (task := _pull(queue)) is not None:
            take(task, *_attempt(run, task))
            collect(0.0)
        collect(None)
    finally:
        _drain(queue)
        os.close(queue)
        for reader, pid in workers.items():
            os.close(reader)
            statuses.append((pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    notes = "; ".join(f"{label} worker {pid} exited with status {code}" if code >= 0
                      else f"{label} worker {pid} was killed by signal {-code}"
                      for pid, code in statuses if code != 0)
    for task in range(n_tasks):
        if task in failures:
            raise failures[task]
        if task not in delivered:
            raise QnlseError(f"{describe(task)} was not reported: {notes}")
