"""The helper of :func:`map_halves` is one daemonic process per interpreter,
forked by the first call that needs it and kept for every later call. It
runs the package code as it was when it was forked: a change made to a
module after that (a monkeypatch, say) does not reach it; only what each
call sends does. It exits when this process's end of the pipe closes, so it
ends with this process, killed or not. A process forked from this one later
forks a helper of its own. A helper that dies without replying raises a
HelperProcessError naming its exit code. A failure in this process's part, or
while it waits for the reply, terminates the helper. After either, the next
call forks a new one. While a call splits, both processes run BLAS at one
thread: two thread pools on the same cores take several times as long.

A fork ``Pool(2)`` computed the same, but its result-handler thread
unpickles the records into a glibc per-thread malloc arena of its own:
stream-online's peak RSS rose from 54.3 to 62.4 MB (52.9 MB with
``MALLOC_ARENA_MAX=1``). One helper and one pipe read in the main thread
leave it where it was.

At import this module also pins glibc malloc's mmap threshold at 32 MiB
and its trim threshold at 64 MiB, for the whole process: set before any
set-up, and inherited by the helper through ``fork``. These are glibc's
own dynamic thresholds frozen at their ceiling
(``DEFAULT_MMAP_THRESHOLD_MAX``, and trim at twice the mmap threshold).
The default grid's largest array, a conv1 im2col of 64 samples, is
2.36 MB, so every one comes from the heap, and the pages a cell frees
stay for the next. Under the dynamic rule the heap was trimmed after
large frees: an in-process seed-0 grid-episodic infer sweep faulted in
9,350 fresh pages, and a repeated default cell about 1,660 in each of
the two processes; pinned, 0 to 5. Both thresholds must be set, since
setting either turns the dynamic rule off for both: trim alone gave that
sweep 128,835 faults, mmap alone 78,174. ``_HEAP`` is whether both
``mallopt`` calls took, or None where the C library has no ``mallopt``;
then the process runs as it would unpinned, and computes the same bytes."""

import multiprocessing
import os
import signal
import threading
from ctypes import CDLL, c_int
from multiprocessing.reduction import ForkingPickler

import numpy as np

from .errors import HelperProcessError


def _blas_threads():
    """OpenBLAS's ``(get, set)`` thread-count calls in the BLAS numpy loaded, or None."""
    try:
        lib = CDLL((getattr(np, "_core", None) or np.core)._multiarray_umath.__file__)
    except OSError:
        return None
    for get_name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
        if hasattr(lib, get_name):
            get, set_ = lib[get_name], lib[get_name.replace("get", "set")]
            get.argtypes, get.restype, set_.argtypes, set_.restype = [], c_int, [c_int], None
            return get, set_


_BLAS = _blas_threads()

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's malloc.h


def _pin_heap():
    """Fix glibc malloc's mmap threshold at 32 MiB and its trim threshold at
    64 MiB: whether both ``mallopt`` calls took, or None where the C
    library has no ``mallopt``."""
    try:
        mallopt = CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # TypeError: no CDLL(None) on Windows
        return None
    mallopt.argtypes, mallopt.restype = [c_int, c_int], c_int
    took = [mallopt(_M_MMAP_THRESHOLD, 32 << 20), mallopt(_M_TRIM_THRESHOLD, 64 << 20)]
    return took == [1, 1]


_HEAP = _pin_heap()


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of the machine's where the platform cannot say)."""
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
    CPUs, a BLAS without OpenBLAS's thread calls, no ``fork`` start method,
    in a daemonic process (a ``Pool`` worker, which may start no child), or
    while another call holds the helper (a second thread, or a call from
    inside ``fn``), this process makes the one call ``fn(items)``. Else it
    sets BLAS to one thread before it may fork, and restores the count.

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
        or _BLAS is None
        or _usable_cpus() < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
        or not _helper_lock.acquire(blocking=False)
    ):
        return fn(items)
    threads = _BLAS[0]()
    try:
        _BLAS[1](1)  # before any fork, so that the helper runs one thread too
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
        _BLAS[1](threads)
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
