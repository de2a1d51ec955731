"""The host's slowness over a run, from a fixed reference kernel timed between ops.

A shared host runs this benchmark's CPU at very different speeds from one
few-second stretch to the next: the same op, on the same inputs, takes
anywhere from 1x to about 1.8x its quiet-host CPU time, and a whole run
can fall into a slow stretch.  The reference kernel does the same kinds
of work as the ops (numpy over 1e6-element arrays, and an interpreted
loop) on fixed inputs, so its CPU time moves with the host's speed and
with nothing in linkdelay.  Over a run, its median time follows the
ops' median time in proportion on this host (a log-log slope near 1),
although a single kernel time says little about the op next to it.  The
benchmark runs it after every REF_EVERY_S op CPU seconds and after each
set-up process, takes the median of its times over the run, over REF_S,
as the host's slowness, and divides the run's CPU times by it: the
end-to-end times are stated in seconds of a quiet host.
"""

from __future__ import annotations

import os
from time import process_time

import numpy as np

# CPU seconds of one reference kernel on a quiet 2-vCPU Intel Xeon host
REF_S = 0.031
# op CPU seconds between two kernel runs
REF_EVERY_S = 1.0

_N = 1_000_000


def reference_seconds() -> float:
    """CPU time of one run of the reference kernel."""
    c0 = process_time()
    rng = np.random.default_rng(12345)
    a = rng.random(_N)
    np.sort(a)
    np.cumsum(a)
    rng.exponential(1.0, _N)
    total, kept = 0.0, []
    for i in range(_N // 10):
        total += i * 0.5
        if i & 1:
            kept.append(total)
    return process_time() - c0


def pin_to_one_cpu() -> int | None:
    """Keep this process, and the children it starts, on the lowest CPU it may run on.

    The reference kernel then measures the CPU the ops and CLI children
    run on.  Returns that CPU, or None where affinity cannot be set.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu
