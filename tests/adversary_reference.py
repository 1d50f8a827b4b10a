"""The churn schedule and query generators as plain ``random.Random`` calls,
kept as the reference.

``churnskip.adversary`` draws the same Mersenne-Twister words straight from
``getrandbits``, with the rejection rule of ``Random._randbelow`` and the
pool and set regimes of ``Random.sample`` written out. These are the
generators it replaced, unchanged: ``randrange``, ``sample`` and
``random`` per draw. Both must give equal rounds, lifetimes and query
lists for every seed, n, rate, strategy and density.

The reference keeps the lifetimes as it did, in two dicts keyed by id that
hold only the ids that joined or left, and answers ``lifetime`` and
``ever_known`` from them; ``ChurnSchedule`` keeps id-indexed lists.

``churn_for``, ``rounds``, ``horizon``, ``validate`` and ``deserialize``
read a ``ChurnSchedule`` as tuples per round, check it against the rules of
an oblivious schedule, and load its text back; no run needs them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from churnskip.adversary import ChurnSchedule, Query
from churnskip.errors import HorizonTooShort, RateTooHigh
from churnskip.params import STRATEGIES, SimParams, ceil_log2


class RoundChurn(NamedTuple):
    leaves: tuple[int, ...]
    joins: tuple[tuple[int, int], ...]  # (new node, attach host)


def churn_for(schedule: ChurnSchedule, round_no: int) -> RoundChurn:
    """(leaves, joins) of a round, as tuples."""
    leaves, joins = schedule.churn_events(round_no)
    return RoundChurn(tuple(leaves), tuple(joins))


def horizon(schedule: ChurnSchedule) -> int:
    """The rounds a schedule holds when read whole: its nominal horizon, or
    the rounds a run has drawn past it."""
    return max(schedule.nominal, schedule.drawn)


def rounds(schedule: ChurnSchedule) -> list[RoundChurn]:
    """Every round to the nominal horizon, or to the last one reached past
    it."""
    return [churn_for(schedule, r) for r in range(horizon(schedule))]


def validate(schedule: ChurnSchedule) -> str:
    """"OK", or the first round that breaks the rules of an oblivious
    schedule."""
    alive = set(range(schedule.n))
    for i, rc in enumerate(rounds(schedule)):
        if i < schedule.bootstrap and (rc.leaves or rc.joins):
            return f"round {i}: churn during bootstrap"
        if len(rc.leaves) != len(rc.joins):
            return f"round {i}: leaves != joins"
        if len(rc.leaves) > schedule.rate:
            return f"round {i}: churn above rate"
        if not set(rc.leaves) <= alive:
            return f"round {i}: departure of non-alive node"
        survivors = alive - set(rc.leaves)
        hosts = [h for _, h in rc.joins]
        if len(set(hosts)) != len(hosts):
            return f"round {i}: duplicate attach hosts"
        if not set(hosts) <= survivors:
            return f"round {i}: attach host not a pre-existing survivor"
        alive = survivors | {node for node, _ in rc.joins}
    return "OK"


def deserialize(text: str) -> ChurnSchedule:
    """The schedule the header of ``ChurnSchedule.serialize`` text draws,
    drawn as far as the text goes. Every round of the text must be the one
    the header draws."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0] if lines else ""
    if not head.startswith("#schedule "):
        raise ValueError("schedule text does not start with '#schedule '")
    fields = dict(part.split("=", 1)
                  for part in head.removeprefix("#schedule ").split())
    for name in ("n", "seed", "strategy", "rate", "bootstrap", "horizon"):
        if name not in fields:
            raise ValueError(f"schedule header has no {name}=")
    if fields["strategy"] not in STRATEGIES:
        raise ValueError(f"unknown strategy {fields['strategy']!r}")
    sched = ChurnSchedule(int(fields["n"]), int(fields["seed"]), fields["strategy"],
                          int(fields["rate"]), int(fields["bootstrap"]),
                          int(fields["horizon"]))
    body = lines[1:]
    if body:
        sched.churn_events(len(body) - 1)     # draws through the text's last round
    drawn = sched.serialize().splitlines()[1:]
    if body != drawn:
        first = next((i for i, (line, want) in enumerate(zip(body, drawn))
                      if line != want), min(len(body), len(drawn)))
        raise ValueError(f"round {first} of the schedule text is not the "
                         "round its header draws")
    return sched


@dataclass
class ReferenceSchedule:
    n: int
    seed: int
    strategy: str
    rate: int
    bootstrap: int
    rounds: list[RoundChurn]
    join_round: dict[int, int] = field(default_factory=dict)
    leave_round: dict[int, int] = field(default_factory=dict)

    def lifetime(self, key: int) -> tuple[int, int | None]:
        start = self.join_round.get(key, 0)
        return start, self.leave_round.get(key)

    def ever_known(self, key: int) -> bool:
        return key < self.n or key in self.join_round


def gen_schedule(seed_adv: int, n: int, rate: int, horizon: int,
                 strategy: str = "uniform_random",
                 bootstrap: int | None = None,
                 params: SimParams | None = None) -> ReferenceSchedule:
    params = params or SimParams(n=n, seed_adv=seed_adv)
    bootstrap = params.bootstrap_rounds if bootstrap is None else bootstrap
    if rate > params.churn_cap:
        raise RateTooHigh(f"rate {rate} exceeds cap {params.churn_cap}")
    if horizon < bootstrap:
        raise HorizonTooShort(f"horizon {horizon} < bootstrap {bootstrap}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")

    rng = random.Random(seed_adv)
    sched = ReferenceSchedule(n, seed_adv, strategy, rate, bootstrap, [])
    # swap-remove alive list keeps every per-round operation O(rate)
    alive_list = list(range(n))
    alive_pos = {node: i for i, node in enumerate(alive_list)}

    def remove_alive(node):
        i = alive_pos.pop(node)
        last = alive_list.pop()
        if last != node:
            alive_list[i] = last
            alive_pos[last] = i

    def add_alive(node):
        alive_pos[node] = len(alive_list)
        alive_list.append(node)

    next_id = n
    id_cap = params.id_space
    cluster_size = math.ceil(2 * math.log2(max(2, n)))
    victims = rng.sample(range(n), min(cluster_size, n)) \
        if strategy == "targeted_committee" else []
    burst_block = ceil_log2(n)

    for rnd in range(horizon):
        if rnd < bootstrap:
            sched.rounds.append(RoundChurn((), ()))
            continue
        amount = rate
        if strategy == "burst":
            amount = 0 if ((rnd - bootstrap) // burst_block) % 2 else rate
        if amount == 0:
            sched.rounds.append(RoundChurn((), ()))
            continue
        if strategy == "targeted_committee":
            leaves = [v for v in victims if v in alive_pos][:amount]
            taken = set(leaves)
            while len(leaves) < amount:
                pick = alive_list[rng.randrange(len(alive_list))]
                if pick not in taken:
                    leaves.append(pick)
                    taken.add(pick)
        else:
            leaves = rng.sample(alive_list, amount)
            taken = set(leaves)
        hosts = []
        host_set = set()
        while len(hosts) < amount:
            pick = alive_list[rng.randrange(len(alive_list))]
            if pick not in taken and pick not in host_set:
                hosts.append(pick)
                host_set.add(pick)
        joins = []
        for host in hosts:
            if next_id >= id_cap:
                raise RateTooHigh("id space exhausted")
            joins.append((next_id, host))
            next_id += 1
        for node in leaves:
            remove_alive(node)
            sched.leave_round[node] = rnd
        for node, _ in joins:
            add_alive(node)
            sched.join_round[node] = rnd
        if strategy == "targeted_committee":
            victims = [v for v in victims if v in alive_pos]
            victims += [node for node, _ in joins][: cluster_size - len(victims)]
        sched.rounds.append(RoundChurn(tuple(leaves), tuple(joins)))
    return sched


def gen_queries(seed_adv: int, schedule: ReferenceSchedule, density: float
                ) -> list[Query]:
    """Membership queries over alive sources; targets mix present, departed,
    not-yet-joined, and never-existing keys so that every ground-truth class
    occurs."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    rng = random.Random(seed_adv ^ 0x5EED)
    queries: list[Query] = []
    if density == 0.0:
        return queries
    alive_list = list(range(schedule.n))
    alive_pos = {node: i for i, node in enumerate(alive_list)}
    gone_pool = sorted(schedule.leave_round)      # schedule is frozen
    joined_pool = sorted(schedule.join_round)
    ghost_base = SimParams(n=schedule.n).id_space  # ids no schedule ever allocates
    expected = density * schedule.n
    for rnd, rc in enumerate(schedule.rounds):
        for node in rc.leaves:
            i = alive_pos.pop(node)
            last = alive_list.pop()
            if last != node:
                alive_list[i] = last
                alive_pos[last] = i
        for node, _ in rc.joins:
            alive_pos[node] = len(alive_list)
            alive_list.append(node)
        if rnd < schedule.bootstrap:
            continue
        count = int(expected) + (1 if rng.random() < expected % 1 else 0)
        for _ in range(count):
            s = alive_list[rng.randrange(len(alive_list))]
            roll = rng.random()
            if roll < 0.55:
                x = alive_list[rng.randrange(len(alive_list))]
            elif roll < 0.8 and gone_pool:
                x = gone_pool[rng.randrange(len(gone_pool))]
            elif roll < 0.9:
                x = ghost_base + rng.randrange(schedule.n)
            else:
                pool = joined_pool or alive_list
                x = pool[rng.randrange(len(pool))]
            queries.append(Query(x, rnd, s))
    return queries
