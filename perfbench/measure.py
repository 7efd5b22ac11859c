"""Run-level measurements: the tail rule, the machine-speed probe, memory and
the recorded environment."""

import os
import platform
import resource
import time

import numpy as np

TAIL_BEYOND = 10
PROBE_REF_MS = 3.0       # ~ probe_ms on the reference machine when unhindered


def tail(values):
    """The highest percentile with at least ``TAIL_BEYOND`` calls beyond it.

    Returns (value, percentile, calls beyond).  Of n sorted calls the value is
    the (n - TAIL_BEYOND)-th, so exactly ``TAIL_BEYOND`` calls lie above it.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"the tail rule needs more than {TAIL_BEYOND} calls, got {n}")
    return (sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n,
            TAIL_BEYOND)


def probe_ms() -> float:
    """Time of a fixed pure-Python loop plus a small numpy loop, 3 to 5 ms.

    It does no ``degint`` work, so a change in it is machine drift, not a
    regression.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i & 7
    a = np.full((24, 24), 0.01)
    for _ in range(60):
        a = np.tanh(a @ a + 0.01)
    return (time.perf_counter() - t0) * 1e3


class ReferenceClock:
    """Rescales timed calls to the machine speed at which ``probe_ms`` reads
    ``PROBE_REF_MS``.

    On a shared host the same code runs up to 1.8x slower for stretches of
    seconds to minutes.  The probe runs once before the first timed call and
    once after every one; a call's time is multiplied by ``PROBE_REF_MS``
    over the mean of the probes on either side of it.  A change to the
    program moves its calls but not the probe, so it shows in full.
    """

    def __init__(self):
        self.probes = [probe_ms()]

    def rescale(self, seconds: float) -> float:
        """Call right after the timed call ends."""
        self.probes.append(probe_ms())
        return seconds * PROBE_REF_MS / ((self.probes[-2] + self.probes[-1]) / 2)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """Versions, core count and thread pins; load average is read separately."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
