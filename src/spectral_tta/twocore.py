"""The helper of :func:`map_halves` is one daemonic process per interpreter,
forked by the first call that needs it and kept for every later call. It
runs the package code as it was when it was forked: a change made to a
module after that (a monkeypatch, say) does not reach it; only what each
call sends does. It exits when this process's end of the pipe closes, so it
ends with this process, killed or not. A process forked from this one later
forks a helper of its own. A helper that dies without replying raises a
HelperProcessError naming its exit code. A failure in this process's part, or
while it waits for the reply, terminates the helper. After either, the next
call forks a new one.

A fork ``Pool(2)`` computed the same, but its result-handler thread
unpickles the records into a glibc per-thread malloc arena of its own:
stream-online's peak RSS rose from 54.3 to 62.4 MB (52.9 MB with
``MALLOC_ARENA_MAX=1``). One helper and one pipe read in the main thread
leave it where it was."""

import multiprocessing
import os
import re
import signal
import threading
from multiprocessing.reduction import ForkingPickler

from .errors import HelperProcessError


def _blas_runs_one_thread() -> bool:
    """Whether OpenBLAS's environment gives it one thread: its count is the
    first of these variables that holds a positive integer (read as C's
    ``atoi`` reads it), and with none, a thread per CPU."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = re.match(r"\s*([+-]?\d+)", os.environ.get(name, ""), re.ASCII)
        if value and int(value[1]) > 0:
            return int(value[1]) == 1
    return False


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of the machine's where the
    platform cannot say), or 1 unless BLAS runs one thread: two processes
    that each run a BLAS thread pool on the same cores take several times
    as long as one process alone."""
    if not _blas_runs_one_thread():
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# (process, connection) of the helper; a call holds the lock for its exchange
_helper = None
_helper_lock = threading.Lock()


def _forget_helper_after_fork() -> None:
    """In a forked child: the parent's helper and pipe are not its own."""
    global _helper, _helper_lock
    if _helper is not None:
        _helper[1].close()
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper_after_fork)


def _serve(conn, parent_end) -> None:
    """The helper's loop: read ``(fn, items)``, reply ``(True, fn(items))``
    or ``(False, the exception raised)``, until the parent's end closes.
    A reply that cannot be pickled is replaced by a HelperProcessError naming
    it, so the parent learns the cause and the helper lives on. Ctrl-C,
    which a terminal sends to the whole process group, is left to the
    parent, whose KeyboardInterrupt terminates the helper."""
    parent_end.close()  # else the helper holds its own pipe open and never reads EOF
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            request = conn.recv_bytes()
        except EOFError:
            return
        try:
            fn, items = ForkingPickler.loads(request)
            reply = (True, fn(items))
        except BaseException as exc:
            reply = (False, exc)
        try:
            data = ForkingPickler.dumps(reply)
        except Exception as exc:
            what = "its result" if reply[0] else f"{type(reply[1]).__name__}: {reply[1]}"
            error = HelperProcessError(
                f"the grid's helper process could not send {what} ({type(exc).__name__}: {exc})"
            )
            data = ForkingPickler.dumps((False, error))
        try:
            conn.send_bytes(data)
        except OSError:  # the parent is gone
            return


def close() -> None:
    """End the helper, if there is one, and forget it; the next call that
    needs a second core forks a new one."""
    global _helper
    if _helper is not None:
        process, conn = _helper
        _helper = None
        conn.close()
        process.terminate()
        process.join()


def map_halves(fn, items: list) -> list:
    """``fn(items[:half]) + fn(items[half:])`` on up to two cores: a helper
    process makes the second call while this one makes the first. ``fn``
    maps a part of ``items`` to a list. With fewer than two items or usable
    CPUs (BLAS not pinned to one thread leaves one), no ``fork`` start
    method, in a daemonic process (a ``Pool`` worker, which may start no
    child), or while another call holds the helper (a second thread, or a
    call from inside ``fn``), this process makes the one call ``fn(items)``.

    ``fn`` must depend only on its items and on state from before the
    call, and a part's result must not depend on where the items were
    cut, as with the grid's episodes. ``fn`` and the second half reach the
    helper by pickle, so ``fn`` must be a module-level function or a
    ``functools.partial`` of one, whose arguments carry the data. A part
    that raises raises here, as the one call would: this process's part
    holds the earlier items, so its error comes first. The helper's
    exception arrives without its traceback; an exception or a result
    that cannot be pickled there, or unpickled here, arrives as a
    HelperProcessError naming it."""
    global _helper
    if (
        len(items) < 2
        or _usable_cpus() < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
        or not _helper_lock.acquire(blocking=False)
    ):
        return fn(items)
    try:
        half = (len(items) + 1) // 2
        request = ForkingPickler.dumps((fn, items[half:]))  # an unpicklable fn raises here
        if _helper is None:
            ctx = multiprocessing.get_context("fork")
            conn, helper_end = ctx.Pipe()
            process = ctx.Process(target=_serve, args=(helper_end, conn), daemon=True)
            process.start()
            helper_end.close()
            _helper = (process, conn)
        process, conn = _helper
        try:
            try:
                conn.send_bytes(request)
            except OSError:
                pass  # the helper has died: its EOF is read below
            ours = fn(items[:half])
            try:
                # read before anything else: a reply larger than the
                # pipe's buffer blocks the helper until it is read
                reply = conn.recv_bytes()
            except (EOFError, ConnectionResetError):  # reset: it died with the request unread
                process.join()
                raise HelperProcessError(
                    f"the grid's helper process exited with code {process.exitcode} "
                    "before sending its records"
                ) from None
        except BaseException:
            close()
            raise
    finally:
        _helper_lock.release()
    try:
        sent, theirs = ForkingPickler.loads(reply)
    except Exception as exc:  # the reply was read whole, so the helper serves on
        raise HelperProcessError(
            f"the grid's helper process sent a reply this process cannot unpickle "
            f"({type(exc).__name__}: {exc})"
        ) from None
    if not sent:
        raise theirs
    return ours + theirs
