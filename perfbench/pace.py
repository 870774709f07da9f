"""Host-speed normalisation: op times in seconds at a fixed reference speed.

The benchmark's host is a small share of a machine whose speed, as seen by
one process, swings by up to ~2x in bursts of seconds to minutes, on each
vCPU independently, with CPU time swinging as much as wall time.  So a
``Pacer`` times a fixed probe -- a short loop of dict lookups and integer
arithmetic that allocates nothing the garbage collector tracks, so it runs
at the same speed whatever the program holds in memory -- ``BRACKET`` times
before a timed stretch, every ``PERIOD_S`` during it (from a ``SIGALRM``
handler, so on whatever CPU the program is running), and ``BRACKET`` times
after.  The stretch's time, less the time spent in the handler, scaled by
``PROBE_REF_S`` over the lower quartile of the probe times, is its length at the reference
speed.  A slow burst slows the probe and the program alike and cancels out;
a faster program still reads faster, since the probe is not its code.

``PROBE_REF_S`` is the probe's time on the host the bounds were set on
(2-vCPU Intel Xeon 2.0 GHz VM, Python 3.11, fast phase), so normalised
times read as seconds on that host; any constant would do.
"""

import signal
import time

PROBE_REF_S = 1.25e-4
PERIOD_S = 0.01
BRACKET = 4  # probes before and after a stretch, for short ones
_KEYS = [(i, str(i)) for i in range(256)]
_TABLE = {k: i for i, k in enumerate(_KEYS)}


def probe(steps: int = 1000) -> int:
    acc = 0
    table, keys = _TABLE, _KEYS
    for i in range(steps):
        acc = (acc * 31 + table[keys[i & 255]]) & 0xFFFFFF
    return acc


class Pacer:
    """Times one stretch of work; ``stop`` returns its normalised and raw
    seconds (both less the probes' own time)."""

    def __init__(self):
        self._probes: list[float] = []
        self._spent = 0.0
        self._start = 0.0

    def _probe(self) -> None:
        probe(len(_KEYS))  # untimed: reload the table the program may have evicted
        t = time.perf_counter()
        probe()
        self._probes.append(time.perf_counter() - t)

    def _on_alarm(self, *_) -> None:
        t = time.perf_counter()
        self._probe()
        self._spent += time.perf_counter() - t

    def start(self) -> None:
        self._probes, self._spent = [], 0.0
        for _ in range(BRACKET):
            self._probe()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        raw = time.perf_counter() - self._start - self._spent
        for _ in range(BRACKET):
            self._probe()
        # outside load and interrupts only ever slow a probe, so the lower
        # quartile tracks the speed the program ran at better than the median
        quartile = sorted(self._probes)[len(self._probes) // 4]
        return raw * PROBE_REF_S / quartile, raw
