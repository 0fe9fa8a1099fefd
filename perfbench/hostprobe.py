"""Fixed CPU work that measures how fast the shared host runs, between ops.

The benchmark gets a few cores of a shared host whose speed drifts with its
neighbours' load: the same op can take twice as long ten minutes later, and
all workloads and ``diarsep version`` slow down together. Repeating ops
within one run does not average that away, so each run also times this
probe between its ops and scales its timed metrics by the probe's speed.

The probe is fixed work that never touches the program under test: an
interpreter loop with dict stores, an in-cache sort and FFT, and streaming
passes over arrays larger than a core's cache. It runs as a child process,
like the CLI calls, so the scheduler places it as it places them; run in the
benchmark's own process it would often sit on another core than the ops,
and cores here change speed independently of each other.

Usage: ``python3 perfbench/hostprobe.py SECONDS`` repeats the work until
about ``SECONDS`` have passed (at least once) and prints each repeat's time.
"""

import sys
import time

import numpy as np

# Nominal time of one repeat: the timed metrics read as if a repeat took this.
REFERENCE_S = 0.3
# Probe time before an op, as a share of the op before it.
SHARE = 0.4


def once(keys: np.ndarray, stream: np.ndarray, scratch: np.ndarray) -> float:
    began = time.perf_counter()
    acc = 0
    table = {}
    for k in range(1_000_000):
        acc = (acc + k * k) % 1_000_003
        if k % 8 == 0:
            table[k & 4095] = acc
    for _ in range(2):
        np.sort(keys)
        np.fft.rfft(keys)
    for _ in range(6):
        np.multiply(stream, 1.0000001, out=scratch)
        np.add(scratch, stream, out=scratch)
    return time.perf_counter() - began


def main(argv: list[str]) -> int:
    target = float(argv[1])
    rng = np.random.default_rng(0)
    keys = rng.standard_normal(1 << 19)
    stream = rng.standard_normal(1 << 22)  # 32 MiB
    scratch = np.zeros_like(stream)
    scratch += 1.0  # faults in its pages before timing
    times = [once(keys, stream, scratch)]
    while sum(times) < target:
        times.append(once(keys, stream, scratch))
    print(" ".join(repr(t) for t in times))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
