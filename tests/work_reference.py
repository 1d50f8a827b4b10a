"""Per-node replays of the work the phases now charge in closed form.

The buffer phase, `bootstrap_overlay` and `preprocess` build their uniform
rounds with `work.uniform_round`. These are the loops that charged every
message one node at a time, the per-comparator sort included. Kept as the
reference the closed-form profiles are compared against, row for row.
`rewire_recount` recounts the buffer's rewire rounds sender by sender.
"""

from __future__ import annotations

import math
from collections import Counter

from churnskip.params import ceil_log2
from churnskip.phase_buffer import PAD, build_bitonic
from churnskip.skiplist import BUF_LS, BUF_RS
from churnskip.work import RoundAcc, WorkProfile


def network_sort_replay(joiners: list[int]) -> tuple[list[int], WorkProfile]:
    """Run every comparator, one round per layer; each comparator charges
    one message to each real host of its two wires."""
    net = build_bitonic(len(joiners))
    padding = net.padded_width - len(joiners)
    wires = list(joiners) + [PAD] * padding
    host = list(joiners) + [None] * padding
    profile = WorkProfile()
    for layer in net.layers:
        acc = RoundAcc()
        for i, j in layer:
            for h in (host[i], host[j]):
                if h is not None:
                    acc.msg(h)
            if wires[i] > wires[j]:
                wires[i], wires[j] = wires[j], wires[i]
        profile.add(acc)
    return [w for w in wires if w != PAD], profile


def sorting_overlay_replay(joiners: list[int]) -> WorkProfile:
    net = build_bitonic(len(joiners))
    rounds = max(1, math.ceil(math.log2(max(2, net.padded_width)))) + 3
    wiring = net.padded_width * net.depth
    per_round_edges = [wiring // rounds] * rounds
    per_round_edges[-1] += wiring - sum(per_round_edges)
    profile = WorkProfile()
    for r in range(rounds):
        acc = RoundAcc()
        for j in joiners:
            acc.msg(j)
        acc.edges(formed=per_round_edges[r])
        profile.add(acc)
    return profile


def bootstrap_replay(nodes, state) -> WorkProfile:
    """The profile `bootstrap_overlay` charged for the overlay it built."""
    nodes = sorted(nodes)
    profile = WorkProfile()
    if state.k < 1:
        return profile
    lg = ceil_log2(len(nodes))
    for _ in range(2 * lg):
        acc = RoundAcc()
        for node in nodes:
            acc.msg(node)
        profile.add(acc)
    wiring = RoundAcc()
    clique_edges = sum(len(state.members(a)) * (len(state.members(a)) - 1) // 2
                       for a in state.addrs)
    bip_edges = 0
    for edge in state.edges:
        a, b = tuple(edge)
        bip_edges += len(state.members(a)) * len(state.members(b))
    wiring.edges(formed=clique_edges + bip_edges)
    for node in nodes:
        wiring.msg(node, 2)
    profile.add(wiring)
    profile.pad_to(2 * lg + 4)
    return profile


def preprocess_replay(pre) -> WorkProfile:
    """The profile `preprocess` charged for the groups it found."""
    groups = pre.groups
    profile = WorkProfile()
    longest = max(len(g) for g in groups)
    for r in range(max(1, longest - 1)):
        acc = RoundAcc()
        for g in groups:
            for member in g[r + 1:]:
                acc.msg(member)
        profile.add(acc)
    shortcut = RoundAcc()
    for g in groups:
        shortcut.edges(formed=len(g) * (len(g) - 1) // 2)
        for member in g[1:]:
            shortcut.msg(g[0])
    profile.add(shortcut)
    discovery = RoundAcc()
    for key in pre.parents:
        discovery.msg(key, 2)
    profile.add(discovery)
    init = RoundAcc()
    for member in pre.top_members:
        init.msg(member)
    profile.add(init)
    return profile


def rewire_recount(sorted_keys: list[int], heights: dict[int, int]
                   ) -> list[tuple[Counter, int]]:
    """Per rewire round of `raise_levels`, the messages each key sends over
    all levels and the edges deleted in it. At each level the blacks next
    to a fill-in are the leaves of a balanced tree; in round r the subtree
    over leaves [j * 2^r, (j + 1) * 2^r) sends from its leftmost leaf. A
    level's dropped edges land in the last round of the deepest tree so
    far."""
    chain = [BUF_LS, *sorted_keys, BUF_RS]
    rounds: list[tuple[Counter, int]] = []
    for lvl in range(1, max((heights[k] for k in sorted_keys), default=0) + 1):
        fill = [k in heights and heights[k] < lvl for k in chain]
        leaves = [key for i, key in enumerate(chain) if not fill[i] and
                  ((i > 0 and fill[i - 1]) or (i + 1 < len(chain) and fill[i + 1]))]
        if leaves:
            for r in range((len(leaves) - 1).bit_length() + 1):
                while len(rounds) <= r:
                    rounds.append((Counter(), 0))
                for j in range(0, len(leaves), 2 ** r):
                    rounds[r][0][leaves[j]] += 1
        deleted = 0
        for i, key in enumerate(chain):
            if fill[i]:
                # a fill-in drops its left port, and the run's last one
                # also its right port
                deleted += 1 + (not fill[i + 1])
        if rounds:
            counts, before = rounds[-1]
            rounds[-1] = (counts, before + deleted)
    return rounds
