"""Growing and shrinking the committee overlay's dimensionality k.

The churn schedule pairs every departure with a join, so a run keeps its
network size n and never reshapes the overlay; this path is kept here, with
the tests that check it (criterion 10 and ``test_overlay``). An adversary
that drifts the network size would call it and bring it back into the
package together with that caller.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from churnskip.errors import ChurnSkipError
from churnskip.overlay import Address, CommitteeOverlay, butterfly_edge_set
from churnskip.params import C_COMM, ceil_log2, log2n
from churnskip.work import RoundWork, sends_row
from overlay_reference import members

GROW_AT = 1.5     # grow threshold (x C_COMM log n)
SHRINK_AT = 0.5   # shrink threshold (x C_COMM log n)


class NoAgreement(ChurnSkipError):
    pass


def committee_opinions(state: CommitteeOverlay, n_ref: int) -> dict[Address, str]:
    grow_at = GROW_AT * C_COMM * log2n(n_ref)
    shrink_at = SHRINK_AT * C_COMM * log2n(n_ref)
    out = {}
    for addr in state.addrs:
        if state.size(addr) > grow_at:
            out[addr] = "grow"
        elif state.size(addr) < shrink_at:
            out[addr] = "shrink"
        else:
            out[addr] = "stay"
    return out


def _recruit(state: CommitteeOverlay, needy: list[Address], pool: list[int],
             target: int, rng: random.Random, hi_cap: int) -> int:
    """Round-by-round recruitment from a donor pool; returns rounds used."""
    rounds = 0
    pool = list(pool)
    rng.shuffle(pool)
    needy = [a for a in needy if state.size(a) < target]
    while needy and pool:
        rounds += 1
        still = []
        for addr in needy:
            if pool and state.size(addr) < target:
                state.place(pool.pop(), addr)
            if state.size(addr) < target:
                still.append(addr)
        needy = still
    addrs = state.addrs
    while pool:
        rounds += 1
        leftovers = []
        for node in pool:
            for _ in range(4):
                addr = addrs[rng.randrange(len(addrs))]
                if state.size(addr) < hi_cap:
                    state.place(node, addr)
                    break
            else:
                leftovers.append(node)
        if len(leftovers) == len(pool):  # all probes bounced; force-balance
            for node in leftovers:
                state.place(node, min(addrs, key=state.size))
            leftovers = []
        pool = leftovers
    return rounds


def reshape(state: CommitteeOverlay, opinions: dict[Address, str],
            rng: random.Random, n_new: int
            ) -> tuple[CommitteeOverlay, int, list[RoundWork]]:
    """Agreement at C(0,0), then grow (k+1) or shrink (k-1).

    Returns (new state, rounds used, one work row per round). Mixed
    opinions raise NoAgreement; an all-stay vote costs only the agreement
    routing. A census log holds one k, so a new state starts its own.
    """
    votes = set(opinions.values())
    agree_rounds = ceil_log2(max(2, len(state.addrs))) + 1
    speakers = map(state.speaker, state.addrs)
    rows = [sends_row(Counter(s for s in speakers if s is not None))]
    rows += [RoundWork() for _ in range(agree_rounds - 1)]
    if votes == {"stay"}:
        return state, agree_rounds, rows
    if len(votes) != 1:
        raise NoAgreement(f"mixed opinions: {sorted(votes)}")
    mode = votes.pop()
    target = max(2, math.ceil(0.75 * log2n(max(2, n_new))))

    if mode == "grow":
        new = CommitteeOverlay(max(1, state.k + 1))
        dest = {(r, lvl): (r, lvl + 1) if state.k >= 1 else (0, 0)
                for r, lvl in state.addrs}
        carried: set[Address] = set()
        for addr in state.addrs:
            for node in sorted(members(state, addr)):
                new.place(node, dest[addr])
            carried.add(dest[addr])
        # copy rows and the fresh level 0 start from promoted leaders
        for addr in new.addrs:
            if addr in carried:
                continue
            biggest = sorted(members(new, max(carried, key=new.size)))
            leader = biggest[rng.randrange(len(biggest))]
            new.remove_member(leader)
            new.place(leader, addr)
        pool: list[int] = []
        for addr in carried:
            spare = sorted(members(new, addr))[target:]
            for node in spare:
                new.remove_member(node)
                pool.append(node)
    else:
        if state.k <= 1:
            raise NoAgreement("cannot shrink below k=1")
        new = CommitteeOverlay(state.k - 1)
        half = 2 ** (state.k - 1)
        pool = []
        dest = {(r, lvl): (r % half, max(0, lvl - 1)) for r, lvl in state.addrs}
        for (r, lvl), to in dest.items():
            vacates = lvl == 0 or r >= half
            if vacates:
                pool.extend(sorted(members(state, (r, lvl))))
            else:
                for node in sorted(members(state, (r, lvl))):
                    new.place(node, to)
    # a covered node stays with its committee, wherever that moved
    new.covered_index = {key: dest[addr]
                         for key, addr in state.covered_index.items()}

    hi_cap = max(target + 1, math.ceil(2 * n_new / len(new.addrs)))
    rounds = _recruit(new, new.addrs, pool, target, rng, hi_cap)
    clique_edges = sum(s * (s - 1) // 2 for s in new.sizes())
    rows.append(RoundWork(0, clique_edges + len(butterfly_edge_set(new.k))))
    rows += [RoundWork() for _ in range(rounds)]
    return new, agree_rounds + rounds + 1, rows
