"""A fixed reference loop that measures how fast the host runs right now.

On a shared host the CPU time of the same deterministic work drifts by up
to half within minutes: other tenants take turns on the physical core, and
process CPU time keeps counting while they do. A run of the benchmark then
reads slow or fast as a whole, and no statistic taken inside the run can
tell that apart from a change of the program.

`probe()` runs a fixed piece of pure-Python work of the same kind as the
simulation: random-order dict lookups and updates, pointer chasing down a
skip list of slotted objects, and a sort. None of it touches churnskip, so
no change to the program moves it. The benchmark samples it between the
cycles it times, and scales each repetition's times by
`NOMINAL_S / mean(samples)`. The result reads in seconds of a host on
which one probe takes `NOMINAL_S`; a drift that slows probe and simulation
alike cancels out. The mean, not the median, because a repetition's time
is a sum over its whole span, bursts of interference included.

Its data are built once at import (about 12 MB), before any timing.
"""

from __future__ import annotations

import random
import statistics
import time

clock = time.process_time

# The probe's median time on a quiet 2-core Xeon (Sapphire Rapids) host
# under Python 3.11. It only scales the reported figures.
NOMINAL_S = 0.040

# Between timed cycles, one probe per this many CPU seconds of simulation.
EVERY_S = 0.25

_rng = random.Random(20240916)
_KEYS = _rng.sample(range(1 << 40), 50_000)
_TABLE = {key: i for i, key in enumerate(_KEYS)}
_LOOKUPS = _rng.sample(_KEYS, 20_000)
_UNSORTED = [_rng.getrandbits(40) for _ in range(4_000)]


class _Node:
    __slots__ = ("key", "right", "down")

    def __init__(self, key, right, down):
        self.key = key
        self.right = right
        self.down = down


def _skiplist(keys, levels=6):
    """Top-left node of a perfect skip list over `keys`."""
    keys = sorted(keys)
    below, top = None, None
    for level in range(levels):
        nodes, node = {}, None
        for key in reversed(keys[::1 << level]):
            node = _Node(key, node, None if below is None else below[key])
            nodes[key] = node
        below, top = nodes, node
    return top


_TOP = _skiplist(_KEYS[:20_000])
_TARGETS = _rng.sample(_KEYS[:20_000], 1_200)


def _search(target: int) -> int:
    node, hops = _TOP, 0
    while True:
        while node.right is not None and node.right.key <= target:
            node = node.right
            hops += 1
        if node.down is None:
            return hops
        node = node.down


def probe() -> float:
    """CPU seconds of one pass of the reference loop."""
    start = clock()
    table, total = _TABLE, 0
    for key in _LOOKUPS:
        total += table[key]
        table[key] = total & 0xFFFF
    hops = sum(_search(target) for target in _TARGETS)
    seen = {key & 0xFFF for key in sorted(_UNSORTED)}
    elapsed = clock() - start
    assert hops > 0 and seen
    return elapsed


class Sampler:
    """Probe samples taken through one repetition."""

    def __init__(self):
        self.samples: list[float] = []
        self._owed = 0.0

    def sample(self) -> None:
        self.samples.append(probe())

    def after(self, busy_s: float) -> None:
        """Probe once per `EVERY_S` of simulation time since the last probe."""
        self._owed += busy_s
        while self._owed >= EVERY_S:
            self.sample()
            self._owed -= EVERY_S

    def scale(self) -> float:
        """Factor from this host's seconds to seconds of the nominal host."""
        return NOMINAL_S / statistics.fmean(self.samples)
