"""Machine-speed probe that puts every timing on a fixed reference scale.

On a shared machine the CPU speed drifts: a fixed pure-Python loop took
anywhere from 23 to 36 ms within one 30-second window on the 2-core x86-64
sandbox this benchmark was tuned on, with CPU time following wall time, so
the drift is the processor's speed rather than time spent descheduled.  A
time measured there says as much about the neighbours as about the program.

The runner therefore times this probe between operations, outside their
timed region, and scales each operation's measured time by
``REFERENCE_S / (median probe time near that operation)``.  Reported times
are then seconds on a machine where the probe takes ``REFERENCE_S``; the
unscaled figures are printed beside them.  The probe is independent of the
package and allocates no objects the garbage collector tracks, so the
program's heap cannot slow it down.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from time import perf_counter

REFERENCE_S = 1e-3  # about the probe's time on the sandbox named above
GAP_S = 0.02  # timed work between two probes
WINDOW = 5  # probes on each side of an operation that set its scale

_DATA = list(range(256))


def probe() -> float:
    """Seconds taken by a fixed integer loop."""
    data = _DATA
    t0 = perf_counter()
    acc = 0
    for i in range(12000):
        acc = (acc + data[i & 255] * i) % 1000003
    return perf_counter() - t0


def scales(count: int, probes: list[tuple[int, float]]) -> list[float]:
    """Scale factor for each of ``count`` operations.

    ``probes`` holds (operations finished before the probe ran, seconds).
    Operation i sits between the probes at positions <= i and > i.
    """
    positions = [position for position, _ in probes]
    times = [seconds for _, seconds in probes]
    out = []
    for i in range(count):
        j = bisect_left(positions, i + 1)
        near = times[max(0, j - WINDOW):j + WINDOW]
        out.append(REFERENCE_S / statistics.median(near))
    return out


def scale_now() -> float:
    """Scale factor from five probes taken in a row."""
    return REFERENCE_S / statistics.median(probe() for _ in range(5))
