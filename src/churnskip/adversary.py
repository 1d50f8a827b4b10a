"""Oblivious churn schedules and query workloads.

A schedule is generated in full before round zero from its own RNG stream
and never reads algorithm state; replaying it is byte-stable. Strategies:

* uniform_random: departures sampled uniformly among the alive.
* targeted_committee: departures concentrated on a fixed victim cluster of
  about one committee's worth of ids (chosen blind at generation time and
  replenished from the strategy's own joiners).
* burst: alternating zero-churn and full-rate blocks, the delayed-work
  shape the competitiveness window's back-shift exists for.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .errors import HorizonTooShort, RateTooHigh
from .params import STRATEGIES, SimParams, ceil_log2


@dataclass(frozen=True)
class RoundChurn:
    leaves: tuple[int, ...]
    joins: tuple[tuple[int, int], ...]  # (new node, attach host)


@dataclass
class ChurnSchedule:
    n: int
    seed: int
    strategy: str
    rate: int
    bootstrap: int
    rounds: list[RoundChurn]
    join_round: dict[int, int] = field(default_factory=dict)
    leave_round: dict[int, int] = field(default_factory=dict)

    @property
    def horizon(self) -> int:
        return len(self.rounds)

    def churn_for(self, round_no: int) -> tuple[tuple[int, ...], tuple]:
        if round_no >= len(self.rounds):
            raise HorizonTooShort(f"round {round_no} beyond horizon {self.horizon}")
        rc = self.rounds[round_no]
        return rc.leaves, rc.joins

    def lifetime(self, key: int) -> tuple[int, int | None]:
        start = self.join_round.get(key, 0)
        return start, self.leave_round.get(key)

    def ever_known(self, key: int) -> bool:
        return key < self.n or key in self.join_round

    # -- serialization: one round per line -------------------------------------

    def serialize(self) -> str:
        head = f"#schedule n={self.n} seed={self.seed} strategy={self.strategy} " \
               f"rate={self.rate} bootstrap={self.bootstrap}\n"
        lines = []
        for i, rc in enumerate(self.rounds):
            joins = ",".join(f"{node}@{host}" for node, host in rc.joins)
            leaves = ",".join(str(x) for x in rc.leaves)
            lines.append(f"{i}|{leaves}|{joins}")
        return head + "\n".join(lines) + "\n"

    @classmethod
    def deserialize(cls, text: str) -> "ChurnSchedule":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        head = lines[0]
        fields = dict(part.split("=") for part in head.lstrip("#schedule ").split())
        sched = cls(n=int(fields["n"]), seed=int(fields["seed"]),
                    strategy=fields["strategy"], rate=int(fields["rate"]),
                    bootstrap=int(fields["bootstrap"]), rounds=[])
        for ln in lines[1:]:
            _, leaves_s, joins_s = ln.split("|")
            leaves = tuple(int(x) for x in leaves_s.split(",") if x)
            joins = tuple(
                (int(pair.split("@")[0]), int(pair.split("@")[1]))
                for pair in joins_s.split(",") if pair
            )
            sched.rounds.append(RoundChurn(leaves, joins))
        sched._rebuild_lifetimes()
        return sched

    def _rebuild_lifetimes(self) -> None:
        self.join_round.clear()
        self.leave_round.clear()
        for i, rc in enumerate(self.rounds):
            for node in rc.leaves:
                self.leave_round[node] = i
            for node, _ in rc.joins:
                self.join_round[node] = i

    # -- invariants ----------------------------------------------------------------

    def validate(self) -> str:
        alive = set(range(self.n))
        for i, rc in enumerate(self.rounds):
            if i < self.bootstrap and (rc.leaves or rc.joins):
                return f"round {i}: churn during bootstrap"
            if len(rc.leaves) != len(rc.joins):
                return f"round {i}: leaves != joins"
            if len(rc.leaves) > self.rate:
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


def gen_schedule(seed_adv: int, n: int, rate: int, horizon: int,
                 strategy: str = "uniform_random",
                 bootstrap: int | None = None,
                 params: SimParams | None = None) -> ChurnSchedule:
    params = params or SimParams(n=n, seed_adv=seed_adv)
    bootstrap = params.bootstrap_rounds if bootstrap is None else bootstrap
    if rate > params.churn_cap:
        raise RateTooHigh(f"rate {rate} exceeds cap {params.churn_cap}")
    if horizon < bootstrap:
        raise HorizonTooShort(f"horizon {horizon} < bootstrap {bootstrap}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")

    rng = random.Random(seed_adv)
    sched = ChurnSchedule(n, seed_adv, strategy, rate, bootstrap, [])
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


@dataclass(frozen=True)
class Query:
    x: int
    r: int
    s: int


def gen_queries(seed_adv: int, schedule: ChurnSchedule, density: float
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
    ghost_base = schedule.n ** 3 // 2  # ids no schedule ever allocates
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
