"""The speed of the processor an operation ran on, sampled while it ran.

On a host whose processors are shared with other tenants, the same fixed
piece of Python can run up to 1.8 times slower for stretches of a second
to a few minutes (measured on a 2-vCPU cloud VM), and raw wall times of
one operation then spread by 20-35% between runs.  To take that out, each
operation process runs a small fixed kernel of pure Python from a SIGALRM
handler every `INTERVAL_S` of wall time, in the same process and so on
the same processor.  The mean of 1/(kernel time) over the samples is the
mean speed over the process's wall time; `pace` is that speed over
`REF_KERNELS_PER_S`.

A time t measured in the process, with the kernel time c spent inside it
taken out, is then reported as (t - c) * pace: the time the same work
takes on a processor that runs the kernel `REF_KERNELS_PER_S` times a
second ("reference seconds").  A change to the library changes t and not
the kernel, so it shows in full; a slow stretch of the host slows both.
"""

import signal
import time
from typing import Optional

INTERVAL_S = 0.025
REF_KERNELS_PER_S = 1500.0
# Kernel runs made before anything else, so that even a process that only
# imports the library has samples.
LEAD_SAMPLES = 8

_X = (1 << 3000) - 1
_KEYS = [(i, i * 7 % 13, i % 5) for i in range(400)]


def kernel() -> int:
    """About 0.6 ms of work on the VM above: big-int shifts and XORs as in
    the GF(2) code, then tuple keys in a dict and a sort as in the Milnor
    and cobar code.  Tried alone, the first half slowed down a little more
    than the library's operations and the second a little less; together
    they follow them within about 5%."""
    y = 0
    small = {}
    for i in range(750):
        y ^= _X >> (i % 97)
        small[i & 255] = y & 0xFFFF
    table = {}
    for a, b, c in _KEYS:
        key = (b, c, a) if a & 1 else (c, a, b)
        table[key] = table.get(key, 0) ^ (a + b)
    return len(sorted(table.items())) + (y & 1)


class Pacer:
    def __init__(self):
        # (perf_counter when the kernel started, its run time)
        self.samples = []
        self.spent = 0.0

    def sample(self, *_):
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples.append((start, elapsed))
        self.spent += elapsed

    def start(self) -> None:
        kernel()  # the first run pays for allocating its objects
        for _ in range(LEAD_SAMPLES):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def pace(self, since: float = float("-inf"), until: float = float("inf")) -> Optional[float]:
        """Pace over the samples started between `since` and `until`; None
        if there are none."""
        times = [elapsed for start, elapsed in self.samples if since <= start < until]
        if not times:
            return None
        return sum(1.0 / t for t in times) / len(times) / REF_KERNELS_PER_S
