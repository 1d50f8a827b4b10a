"""Oblivious churn schedules and query workloads.

A schedule never reads algorithm state: it is drawn from its own RNG stream,
so its header (seed, n, rate, strategy, bootstrap) fixes every round. One
generator draws the rounds as they are read, for the schedule's whole life:
a run draws each round when it reaches it, and whatever reads the schedule
whole (its lifetimes, serialization) first draws it to a nominal horizon. A
run past that horizon draws on to the rounds it reaches. The tests load
schedule text back by redrawing its header and checking every round of the
text against the redraw (``tests/adversary_reference.py``).

The query stream has one generator too, with its own RNG stream. Its pools
(the ids that leave or join before the nominal horizon) need the schedule
drawn to that horizon, so priming it draws the schedule whole; it then
draws the queries of each round when asked: a run a block at a time, as
its clock reaches the end of the last, and ``gen_queries`` all at once.
It reads only the rounds to the nominal horizon, so it is the same however
far a run goes.

A schedule keeps its draw in flat integer arrays, with no object per round,
join or id. A churn event is one departure and one join. Each event keeps
its leaving id and its joiner's attach host; its joiner is ``n + event
index``, since joined ids run consecutively from n. An offset array gives
each round's first event, so event e falls in the last round whose first
event is at most e. A lifetime read indexes each id's leaving event over
the events drawn since the last read. Only the schedule reads these
arrays; the query stream reads ``churn_events`` and ``leaves_before``.
Strategies:

* uniform_random: departures sampled uniformly among the alive.
* targeted_committee: departures concentrated on a fixed victim cluster of
  about one committee's worth of ids (chosen blind at generation time and
  replenished from the strategy's own joiners).
* burst: alternating zero-churn and full-rate blocks, the delayed-work
  shape the competitiveness window's back-shift exists for.

Every draw is a word of the stream's ``getrandbits``, taken with the
rejection rule of ``random.Random._randbelow`` and, for a sample, the pool
or set regime of ``random.Random.sample``. The schedules and query lists
are those that ``randrange`` and ``sample`` would draw
(``tests/adversary_reference.py``), without a library call per draw.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from collections.abc import Generator, Iterator, MutableSequence
from itertools import chain, compress, cycle, islice, repeat
from typing import NamedTuple

from .errors import HorizonTooShort, RateTooHigh
from .params import STRATEGIES, SimParams, ceil_log2
from .simcore import collection_paused


# builds a NamedTuple without the frame of its Python-level __new__
_new = tuple.__new__

# rounds a run draws at once, of churn and of queries: a round of churn
# drawn alone between the run's other work costs about twice as much as
# one drawn in a block
_DRAW_AHEAD = 1024


class ChurnSchedule:
    """The churn of every round, drawn from the header as it is read.

    One generator draws every round for the schedule's whole life.
    ``churn_events(r)`` for a round not yet drawn draws a block of rounds
    from round r on below the nominal horizon, and exactly through round r
    past it. The lifetimes and ``serialize`` read the schedule whole: they
    first draw it to its nominal horizon."""

    def __init__(self, n: int, seed: int, strategy: str, rate: int,
                 bootstrap: int, horizon: int):
        self.n, self.seed, self.strategy = n, seed, strategy
        self.rate, self.bootstrap = rate, bootstrap
        self.nominal = horizon      # the rounds it is drawn to when read whole
        # round r's events are first[r] to first[r + 1]; event e is the
        # departure of leaves[e] and the join of id n + e at hosts[e]
        self._first = array("q", [0])
        self._leaves = array("q")
        self._hosts = array("q")
        # each id's leaving event, -1 where it has none, over the ids of
        # the events indexed so far: extended when a lifetime is asked for
        self._left = array("i", [-1]) * n
        # holds the arrays, never the schedule, so no cycle forms
        self._drawer = _draw_rounds(n, seed, strategy, rate, bootstrap,
                                    self._first, self._leaves, self._hosts)
        self._recent = next(self._drawer)

    @property
    def drawn(self) -> int:
        """The rounds drawn so far."""
        return len(self._first) - 1

    def _drawn_whole(self) -> int:
        if len(self._first) <= self.nominal:
            self._draw(self.nominal)
        return self.drawn

    def churn_events(self, round_no: int):
        """A round's leaves and its (new node, attach host) pairs, as
        iterables over slices of the stored events; a round past the nominal
        horizon extends the schedule to it."""
        first = self._first
        try:
            hi = first[round_no + 1]
        except IndexError:
            self._draw(max(round_no + 1, min(self.nominal, round_no + _DRAW_AHEAD)))
            hi = first[round_no + 1]
        lo = first[round_no]
        # a round of the block drawn last is read from the draw's own lists:
        # the world then keeps the ints the draw made, so a leaving id is the
        # object its join gave, and no id is boxed twice. A run that draws
        # as it goes reads every round so (2% less run time on writes-8192)
        start, gone, joined, hosted = self._recent
        if start <= lo and hi - start <= len(gone):
            lo -= start
            hi -= start
            return gone[lo:hi], zip(joined[lo:hi], hosted[lo:hi])
        return self._leaves[lo:hi], enumerate(self._hosts[lo:hi], self.n + lo)

    @collection_paused
    def _draw(self, upto: int) -> None:
        """Draw rounds until `upto` are drawn, a block at a time."""
        while self.drawn < upto:
            self._recent = self._drawer.send(min(upto - self.drawn, _DRAW_AHEAD))

    def lifetime(self, key: int) -> tuple[int, int | None]:
        """(join round, leave round or None); an original node joined in
        round 0, and a key no id has, a sentinel or a ghost, is (0, None)."""
        self._drawn_whole()
        first, leaves, left = self._first, self._leaves, self._left
        # an id leaves after its join, so its slot exists by its leave event
        for event in range(len(left) - self.n, len(leaves)):
            left.append(-1)
            left[leaves[event]] = event
        # a negative sentinel would index from the end of the array
        if not 0 <= key < len(left):
            return 0, None
        # a joined id is n + the index of its event; a round with no churn
        # has the first event of the round after it
        event = left[key]
        start = bisect_right(first, key - self.n) - 1 if key >= self.n else 0
        return start, None if event < 0 else bisect_right(first, event) - 1

    def leaves_before(self, round_no: int) -> array:
        """The ids that leave before round `round_no`, in leave order."""
        self._draw(round_no)
        return self._leaves[:self._first[round_no]]

    def ever_known(self, key: int) -> bool:
        # the ids below the end were all allocated: the original nodes below
        # n, and the joined ones from n on. A negative sentinel counts too,
        # as every key below n does
        self._drawn_whole()
        return key < self.n + len(self._hosts)

    # -- serialization: one round per line -------------------------------------

    def serialize(self) -> str:
        head = f"#schedule n={self.n} seed={self.seed} strategy={self.strategy} " \
               f"rate={self.rate} bootstrap={self.bootstrap} horizon={self.nominal}\n"
        lines = []
        for r in range(self._drawn_whole()):
            leaves, joins = self.churn_events(r)
            joined = ",".join(f"{node}@{host}" for node, host in joins)
            lines.append(f"{r}|{','.join(map(str, leaves))}|{joined}")
        return head + "\n".join(lines) + "\n"


def gen_schedule(seed_adv: int, n: int, rate: int, horizon: int,
                 strategy: str = "uniform_random") -> ChurnSchedule:
    params = SimParams(n=n)
    bootstrap = params.bootstrap_rounds
    if rate > params.churn_cap:
        raise RateTooHigh(f"rate {rate} exceeds cap {params.churn_cap}")
    if horizon < bootstrap:
        raise HorizonTooShort(f"horizon {horizon} < bootstrap {bootstrap}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    churning = sum(islice(_churn_flags(n, strategy, rate), horizon - bootstrap))
    if n + rate * churning > params.id_space:
        raise RateTooHigh("id space exhausted")
    return ChurnSchedule(n, seed_adv, strategy, rate, bootstrap, horizon)


def _churn_flags(n: int, strategy: str, rate: int) -> Iterator[bool]:
    """Whether each round from the bootstrap on has churn, which allocates
    `rate` ids: every round at a nonzero rate, but under burst only the
    first ceil(log2 n) rounds of every 2 ceil(log2 n)."""
    block = ceil_log2(n) if strategy == "burst" else 0
    if not rate:
        return repeat(False)
    if not block:
        return repeat(True)
    return cycle((True,) * block + (False,) * block)


def _fill(getrandbits, population: list[int], picks: list[int], count: int) -> None:
    """Extend `picks` to `count` distinct members of `population` (whose
    members are distinct), each drawn as ``population[randbelow(n)]`` and
    drawn again while already picked: the set regime of ``Random.sample``."""
    n = len(population)
    bits = n.bit_length()
    used = set(picks)
    need = count - len(picks)
    while need:
        j = getrandbits(bits)
        if j < n:
            node = population[j]
            if node not in used:
                used.add(node)
                picks.append(node)
                need -= 1


def _pool_sample(getrandbits, population: list[int], k: int) -> list[int]:
    """``Random.sample(population, k)`` in its pool regime, which it takes
    when ``len(population) <= _setsize(k)``; above that, ``_fill``."""
    n = len(population)
    pool = list(population)
    picks = []
    for m in range(n, n - k, -1):
        bits = m.bit_length()
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        picks.append(pool[j])
        pool[j] = pool[m - 1]
    return picks


def _setsize(k: int) -> int:
    """``Random.sample`` draws k of n from a copied pool when n is at most
    this, and with a set of the picked indices above it."""
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


def _draw_rounds(n: int, seed: int, strategy: str, rate: int, bootstrap: int,
                 first: array, leaves: array, hosts: array
                 ) -> Generator[tuple[int, list[int], list[int], list[int]], int, None]:
    """Rounds 0, 1, ... as the header draws them: each ``send(k)`` draws k
    more. A round appends its events to `leaves` and `hosts` and its end to
    `first`; a send yields its first event and its leaving ids, joined ids
    and attach hosts as lists of the ids' own objects (``_recent``)."""
    getrandbits = random.Random(seed).getrandbits
    # swap-remove alive list keeps every per-round operation O(rate); it
    # keeps n members, since a round has as many joins as leaves. pos holds
    # each id's index in it, indexed by id (stale once the id has left): the
    # draw state lives as long as the schedule, and at n = 16384 a list of
    # ids takes 1 MB less than a dict of the alive ones (0.1 MB more at
    # n = 1024, whose schedules allocate 20 n ids)
    alive = list(range(n))
    pos = list(alive)
    targeted = strategy == "targeted_committee"
    cluster_size = math.ceil(2 * math.log2(max(2, n)))
    if targeted:
        k = min(cluster_size, n)
        victims = _pool_sample(getrandbits, alive, k) if n <= _setsize(k) else []
        _fill(getrandbits, alive, victims, k)
    pooled = n <= _setsize(rate)
    bits = n.bit_length()
    twice = 2 * rate
    next_id = n
    id_cap = SimParams(n=n).id_space
    rounds = chain(repeat(False, bootstrap), _churn_flags(n, strategy, rate))
    wanted = yield 0, [], [], []
    while True:
        # the rounds of one send go to the arrays in one call each
        ends, gone, joiners, hosted = [], [], [], []
        start = events = len(leaves)
        for churns in islice(rounds, wanted):
            if churns:
                if next_id + rate > id_cap:
                    raise RateTooHigh("id space exhausted")
                # the leaves, then as many attach hosts: distinct alive
                # nodes. The victims are alive when a round starts, and the
                # round's leaves are its first `rate` victims; other leaves
                # come only once all are taken
                if targeted:
                    picks = victims[:rate]
                else:
                    picks = _pool_sample(getrandbits, alive, rate) if pooled else []
                # _fill(getrandbits, alive, picks, twice), inlined: it runs
                # every round
                used = set(picks)
                need = twice - len(picks)
                while need:
                    j = getrandbits(bits)
                    if j < n:
                        node = alive[j]
                        if node not in used:
                            used.add(node)
                            picks.append(node)
                            need -= 1
                out = picks[:rate]
                for node in out:
                    i = pos[node]
                    last = alive.pop()
                    if last != node:
                        alive[i] = last
                        pos[last] = i
                joined = range(next_id, next_id + rate)
                next_id += rate
                for node in joined:
                    pos.append(len(alive))
                    alive.append(node)
                    joiners.append(node)
                gone += out
                hosted += picks[rate:]
                events += rate
                if targeted:
                    victims = victims[rate:]
                    victims += joined[:cluster_size - len(victims)]
            ends.append(events)
        first.fromlist(ends)
        leaves.fromlist(gone)
        hosts.fromlist(hosted)
        wanted = yield start, gone, joiners, hosted


class Query(NamedTuple):
    x: int
    r: int
    s: int


Column = MutableSequence[int]


def query_stream(seed_adv: int, schedule: ChurnSchedule, density: float,
                 xs: Column, rs: Column, ss: Column
                 ) -> Generator[int, int, None] | None:
    """The query stream over `schedule`, primed, or None at density 0: each
    ``send(upto)`` appends the targets, rounds and sources of the queries
    of the rounds below `upto` to `xs`, `rs` and `ss`, and gives the rounds
    drawn so far, at most the nominal horizon. Its pools are those of the
    rounds to the nominal horizon, so priming it draws the schedule whole."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    if density == 0.0:
        return None
    stream = _draw_queries(seed_adv, schedule, density, xs, rs, ss)
    next(stream)
    return stream


def _draw_queries(seed_adv: int, schedule: ChurnSchedule, density: float,
                  xs: Column, rs: Column, ss: Column
                  ) -> Generator[int, int, None]:
    """Membership queries over alive sources, drawn round by round to the
    nominal horizon; targets mix present, departed, not-yet-joined, and
    never-existing keys so that every ground-truth class occurs. The
    alive set is replayed from the schedule's ``churn_events``, and the
    departed pool comes from its ``leaves_before``."""
    rng = random.Random(seed_adv ^ 0x5EED)
    roll_next, getrandbits = rng.random, rng.getrandbits
    n, bootstrap, nominal = schedule.n, schedule.bootstrap, schedule.nominal
    churn_events = schedule.churn_events
    # the pools of the rounds to the nominal horizon, which this draws: a
    # run that went past it has drawn more, which changes no query. An
    # event is one leave and one join, so as many ids join as leave
    leaving = schedule.leaves_before(nominal)
    events = len(leaving)
    # swap-remove alive list, and the index in it of each id to the
    # nominal horizon (stale once the id has left). The state lives as
    # long as the stream, so it is kept in 4-byte arrays
    alive = array("i", range(n))
    pos = alive + array("i", bytes(4 * events))
    joined = range(n, n + events)
    # the ids that leave before it, in id order: marking beats sorting by 30%
    left = bytearray(n + events)
    for node in leaving:
        left[node] = 1
    gone = array("i", compress(range(n + events), left))
    del left, leaving
    # ids no schedule ever allocates, as its ids stay below the id space
    id_space = SimParams(n=n).id_space
    ghosts = range(id_space, id_space + n)
    gone_draw = gone, len(gone), len(gone).bit_length()
    joined_draw = joined, len(joined), len(joined).bit_length()
    ghost_draw = ghosts, n, n.bit_length()
    expected = density * n
    whole, frac = int(expected), expected % 1
    add_x, add_r, add_s = xs.append, rs.append, ss.append
    drawn = 0
    upto = yield drawn
    while True:
        stop = max(drawn, min(upto, nominal))
        for rnd in range(drawn, stop):
            out, joins = churn_events(rnd)
            for node in out:
                i = pos[node]
                last = alive.pop()
                if last != node:
                    alive[i] = last
                    pos[last] = i
            for joiner, _ in joins:
                pos[joiner] = len(alive)
                alive.append(joiner)
            if rnd < bootstrap:
                continue
            count = whole + (1 if roll_next() < frac else 0)
            size = len(alive)
            bits = size.bit_length()
            for _ in range(count):
                j = getrandbits(bits)
                while j >= size:
                    j = getrandbits(bits)
                s = alive[j]
                roll = roll_next()
                if roll < 0.55 or roll >= 0.9 and not joined:
                    pool, m, b = alive, size, bits
                elif roll < 0.8 and gone:
                    pool, m, b = gone_draw
                elif roll < 0.9:
                    pool, m, b = ghost_draw
                else:
                    pool, m, b = joined_draw
                j = getrandbits(b)
                while j >= m:
                    j = getrandbits(b)
                add_x(pool[j])
                add_r(rnd)
                add_s(s)
        drawn = stop
        upto = yield drawn


@collection_paused
def gen_queries(seed_adv: int, schedule: ChurnSchedule, density: float
                ) -> list[Query]:
    """The whole query stream, to the nominal horizon, as `Query` tuples:
    the queries a `Simulation` without given queries draws as its clock
    reaches them, and serves in this order."""
    drawn = [], [], []
    stream = query_stream(seed_adv, schedule, density, *drawn)
    if stream is not None:
        stream.send(schedule.nominal)
    return list(map(_new, repeat(Query), zip(*drawn)))
