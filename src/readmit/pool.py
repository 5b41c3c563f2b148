"""A fork-based process pool for independent jobs addressed by index.

Evaluation runs and RFE repeats, and the seven sentiment models, are
independent jobs whose results must not depend on how many processes
run them. ``map_jobs`` returns results in index order, so a pooled run
matches a sequential one byte for byte.
"""

import ctypes
import multiprocessing
import os

_BLAS_THREAD_FUNCTIONS = ("openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_",
                          "openblas_{}_num_threads64_")

# The job of a pool worker; set only in forked children, by _start_worker.
_worker_job = None


def usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity set, where the
    platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def openblas_threads():
    """(get, set) for the thread count of the OpenBLAS this process has loaded;
    None without one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return None
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_FUNCTIONS:
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _start_worker(job) -> None:
    global _worker_job
    _worker_job = job


def _run_job(i: int):
    return _worker_job(i)


def map_jobs(job, n: int, workers: int) -> list:
    """``[job(i) for i in range(n)]``, on ``min(workers, n)`` forked processes.

    Forking hands each worker the job closure, and the data it holds,
    without pickling. Only the index goes out and the result comes back,
    in index order, so outputs match a sequential run byte for byte, and
    so does the error raised: that of the lowest failing index.

    While the pool runs, the parent's OpenBLAS is held at one thread, and
    the workers inherit that. Workers whose BLAS each spreads over every CPU
    oversubscribe the machine (uncapped, an MLP eval on two workers ran
    slower than on one), and forking a parent with BLAS threads running
    costs more than forking one without.

    Jobs run in-process inside a pool worker, which as a daemonic process
    may not have children of its own.
    """
    if (workers < 2 or n < 2 or multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [job(i) for i in range(n)]
    blas = openblas_threads()
    if blas is not None:
        threads = blas[0]()
        blas[1](1)
    try:
        pool = multiprocessing.get_context("fork").Pool(min(workers, n), _start_worker, (job,))
        try:
            return list(pool.imap(_run_job, range(n), chunksize=1))
        except BaseException:
            pool.terminate()  # stop the jobs still queued behind the failure
            raise
        finally:
            pool.close()
            pool.join()
    finally:
        if blas is not None:
            blas[1](threads)
