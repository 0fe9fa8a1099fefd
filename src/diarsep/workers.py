"""One pool of worker threads for independent blocks of numpy work."""

import os
import threading

# samples per block in write_wav, resample and the separation scores: 512 KiB
# as float64, about a core's L2 cache, so no whole-signal float64 array is built
BLOCK = 1 << 16


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
    taking new blocks and is raised here once every thread has been joined.
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
                    errors.append(exc)
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
        raise errors[0]
