"""One pool of worker threads for independent blocks of numpy work, its row schedule and scratch buffers."""

import math
import os
import threading

import numpy as np

# samples per block in write_wav and the separation scores (and the resampler's
# tap limit): 512 KiB as float64, about a core's L2 cache, so no whole-signal
# float64 array is built
BLOCK = 1 << 16


def spans(n: int, size: int):
    """Slices of min(n, size) rows covering range(n): the k-th starts at min(k * size, n - size).

    The last slice ends at n and may overlap the one before it, so every
    product over a slice has the same row count: BLAS may take another kernel
    for a short tail (numpy sends a 1-row matmul to gemv), which rounds
    differently from a product of the full count. The k-th slice holds the
    rows that the run_blocks job of start k * size computes.
    """
    size = min(n, size)
    for start in range(0, n, size):
        start = min(start, n - size)
        yield slice(start, start + size)


def worker_count(n_out: int, block: int = BLOCK) -> int:
    """Threads run_blocks uses: one per usable CPU, at most one per block.

    Usable CPUs are ``os.sched_getaffinity(0)``, else ``os.cpu_count()``.
    """
    try:
        n_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        n_cpus = os.cpu_count() or 1
    return max(1, min(n_cpus, -(-n_out // block)))


def run_blocks(job, n_out: int, block: int = BLOCK) -> None:
    """Call job(start) for every start in range(0, n_out, block), on worker_count(n_out, block) threads.

    The calling thread is one of the workers, so a 1-CPU process starts no
    thread. In a CLI child, whose OpenBLAS pool cli.run pins to one thread,
    these workers are the only compute threads. Workers take the next start
    under a lock. The first exception a job raises stops the others from
    taking new blocks. Once every thread has been joined, the exception of
    the failing job with the lowest start is raised: every lower start was
    taken before that job and ran to the end, so this is the error a serial
    loop would raise, whatever the thread count or timing.
    """
    starts = iter(range(0, n_out, block))
    lock = threading.Lock()
    errors = []

    def work():
        while True:
            with lock:
                start = None if errors else next(starts, None)
            if start is None:
                return
            try:
                job(start)
            except BaseException as exc:  # re-raised in the caller below
                with lock:
                    errors.append((start, exc))
                return

    threads = []
    try:
        for _ in range(worker_count(n_out, block) - 1):
            threads.append(threading.Thread(target=work))
            threads[-1].start()
        work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]


class Scratch(threading.local):
    """Named buffers of each thread, reused from block to block.

    One name may serve several roles, as long as their uses in a job do not
    overlap: each get() hands out the same memory, grown to the largest
    shape asked for.

    glibc malloc hands a freed block-sized temporary (about 1 MB) back to the
    kernel, so fresh temporaries fault in again on every block: separating
    2 x 60 s that way took 140k page faults and 0.1 s of system time.
    """

    def get(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        flat = self.__dict__.get(name)
        if flat is None or flat.size < size:
            flat = self.__dict__[name] = None  # free the smaller buffer before its successor exists
            flat = self.__dict__[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)
