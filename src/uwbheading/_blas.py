"""Run a block of dense linear algebra on one OpenBLAS thread.

The OpenBLAS that numpy and scipy wheels bundle splits a large enough call
over every CPU, and its worker threads then busy-wait about 0.1 s for the
next call. The GP's matrices (at most a few thousand points) gain little
from the split, while the spinning workers compete with whatever runs next:
on a 2-vCPU machine they slowed the pure-Python filter pass and trace I/O
that followed a batch GP prediction 2-3x, by an amount that varied with
timing. A threaded Cholesky factor also differs from a one-thread factor in
the last bits, so one thread makes fitted models independent of the CPU
count.

`one_thread()` sets every OpenBLAS copy loaded in the process to one thread
and restores each copy's previous count on exit. The count is per process,
not per thread, so blocks entered concurrently from several threads may
leave it at one. Where no copy can be found (no /proc/self/maps, or an
OpenBLAS older than 0.3.27, which lacks `openblas_set_num_threads_local`),
it does nothing.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import cache


@cache
def _setters() -> tuple:
    """`openblas_set_num_threads_local` of each OpenBLAS loaded so far."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            set_threads = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], ctypes.c_int
        found.append(set_threads)
    return tuple(found)


@contextmanager
def one_thread():
    setters = _setters()
    previous = [set_threads(1) for set_threads in setters]
    try:
        yield
    finally:
        for set_threads, n in zip(setters, previous):
            set_threads(n)
