"""The machine's speed: a settling phase and a running speed reference.

On a shared 2-core sandbox the same pure-Python loop runs up to 1.6 times
slower for seconds or minutes at a time, whatever this process does. Two
things are done about it:

* ``settle`` keeps the processor busy with the probe loop until its time
  stops drifting, so that no timing starts in the short fast phase that
  follows an idle spell;
* ``SpeedMeter`` runs the probe between operations (outside their timed
  spans) and turns the probe times around each operation into a factor,
  PROBE_REFERENCE_S over their mean. Timings multiplied by that factor
  are seconds at the reference speed: a slower machine lengthens an
  operation and the probe alike, and the product stays put, while a slower
  program lengthens the operation only.

The probe uses no code of the package, so nothing a change to the package
does can move it.
"""

from __future__ import annotations

import gc
import statistics
import time

PROBE_REFERENCE_S = 0.004   # the probe's time at the reference speed
PROBE_SPACING_S = 0.05      # least time between two probe points
PROBES_PER_POINT = 3
POINTS_PER_SIDE = 2          # probe points each side of a span that scale it

SETTLE_MIN_S = 6.0
SETTLE_MAX_S = 20.0
SETTLE_WINDOW_S = 1.0
SETTLE_TOLERANCE = 0.04

_MASK = (1 << 120) - 1
_BLOCKS = tuple(7 << (3 * k) for k in range(40))


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def _step(p: _Pair, m: int) -> _Pair:
    return _Pair(p.a | m, p.b & ~m)


def probe() -> float:
    """Time a fixed loop of the kinds of work the package does (2.5 to 6 ms).

    Calls that build small objects from 120-bit masks, and short-lived
    lists of tuples: on this kind of sandbox these slow down with the
    machine in nearly the same proportion as the package's choice
    evaluations, which a plain arithmetic loop does not. The cyclic garbage
    collector is held off, so that the probe's time does not depend on how
    many objects the workload keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        p = _Pair(0, _MASK)
        keep = []
        for i in range(75):
            for m in _BLOCKS:
                p = _step(p, m if i & 1 else m >> 1)
            for k in range(20):
                keep.append([(i, k, j) for j in range(8)])
            if len(keep) > 200:
                keep.clear()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def settle() -> dict:
    """Keep the processor busy until its speed stops drifting.

    The probe runs for at least SETTLE_MIN_S; after that the run goes on
    once the median probe time of the last window is within
    SETTLE_TOLERANCE of the window before it, or after SETTLE_MAX_S.
    """
    start = time.perf_counter()
    probes = []  # (time since start, probe seconds)
    while True:
        p = probe()
        now = time.perf_counter() - start
        probes.append((now, p))
        last = [p for t, p in probes if t > now - SETTLE_WINDOW_S]
        before = [p for t, p in probes if now - 2 * SETTLE_WINDOW_S < t <= now - SETTLE_WINDOW_S]
        if now >= SETTLE_MIN_S and before:
            a, b = statistics.median(before), statistics.median(last)
            if abs(b - a) <= SETTLE_TOLERANCE * a:
                return {"seconds": now, "probe_ms": 1e3 * b, "settled": True}
        if now >= SETTLE_MAX_S:
            return {"seconds": now, "probe_ms": 1e3 * statistics.median(last), "settled": False}


class SpeedMeter:
    """Probe points taken between timed spans, and the factors they give.

    A timed span that starts after probe point k-1 and ends before point k
    is scaled by PROBE_REFERENCE_S over the mean of the POINTS_PER_SIDE
    points on each side of it, which follows the machine's swings of a
    second or more without taking on the jitter of a single probe.
    """

    def __init__(self):
        self.points: list[float] = []   # median probe time at each point
        self._last = float("-inf")

    def sample(self, force: bool = False):
        """Take a probe point, unless one lies less than PROBE_SPACING_S back."""
        if force or time.perf_counter() - self._last >= PROBE_SPACING_S:
            self.points.append(statistics.median(probe() for _ in range(PROBES_PER_POINT)))
            self._last = time.perf_counter()

    def mark(self) -> int:
        """The index of the next probe point: what a span starting now is scaled by."""
        return len(self.points)

    def factor_at(self, mark: int) -> float:
        """Reference-speed seconds per measured second for a span at ``mark``."""
        window = self.points[max(0, mark - POINTS_PER_SIDE):mark + POINTS_PER_SIDE]
        return PROBE_REFERENCE_S / statistics.fmean(window)

    def factor(self) -> float:
        """The same factor over the whole run."""
        return PROBE_REFERENCE_S / statistics.fmean(self.points)
