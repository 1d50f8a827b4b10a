"""The per-node reference accumulator, and per-node replays of the work the
phases now charge in closed form.

`RoundAcc` is the accumulator every phase once sealed its rounds with: one
dict of per-node counts, filled one message at a time. It is the oracle
`work.sends_row` is checked against, and the reference engines in
`merge_reference` and `delete_reference` still count with it.

The buffer phase, `bootstrap_overlay` and `preprocess` build their uniform
rounds with `work.uniform_round`. The replays below, and the buffer's in
`buffer_reference`, the per-comparator sort included, are the loops that
charged every message one node at a time, kept as the reference the
closed-form rows are compared against, row for row. `rewire_recount`
recounts the buffer's rewire rounds sender by sender. `totals` adds up a
phase's rows, as the tests read a phase's cost from the rows it returns.
"""

from __future__ import annotations

from collections import Counter

from churnskip.overlay import butterfly_edge_set
from churnskip.params import ceil_log2
from churnskip.skiplist import BUF_LS, BUF_RS
from churnskip.work import RoundWork
from overlay_reference import members


class RoundAcc:
    """Accumulates one round's work; seal() compresses per-node counts."""

    __slots__ = ("counts", "edges_formed", "edges_deleted")

    def __init__(self):
        self.counts: dict[int, int] = {}
        self.edges_formed = 0
        self.edges_deleted = 0

    def msg(self, key: int, n: int = 1) -> None:
        if n:
            self.counts[key] = self.counts.get(key, 0) + n

    def edges(self, formed: int = 0, deleted: int = 0) -> None:
        self.edges_formed += formed
        self.edges_deleted += deleted

    def seal(self) -> RoundWork:
        total = sum(self.counts.values())
        if self.counts:
            busiest = max(self.counts, key=self.counts.__getitem__)
            peak = self.counts[busiest]
        else:
            busiest, peak = None, 0
        return RoundWork(total, self.edges_formed, self.edges_deleted, peak, busiest)


def totals(rows) -> tuple[int, int, int]:
    """Messages, edges formed and edges deleted, summed over rows."""
    messages = formed = deleted = 0
    for row in rows:
        messages += row.messages
        formed += row.edges_formed
        deleted += row.edges_deleted
    return messages, formed, deleted


def pad(rows: list[RoundWork], rounds: int) -> list[RoundWork]:
    """rows, padded with empty rounds to `rounds` rows."""
    rows += [RoundWork() for _ in range(rounds - len(rows))]
    return rows


def bootstrap_replay(nodes, state) -> list[RoundWork]:
    """The rows `bootstrap_overlay` charged for the overlay it built."""
    nodes = sorted(nodes)
    rows = []
    if state.k < 1:
        return rows
    lg = ceil_log2(len(nodes))
    for _ in range(2 * lg):
        acc = RoundAcc()
        for node in nodes:
            acc.msg(node)
        rows.append(acc.seal())
    wiring = RoundAcc()
    clique_edges = sum(len(members(state, a)) * (len(members(state, a)) - 1) // 2
                       for a in state.addrs)
    bip_edges = 0
    for edge in butterfly_edge_set(state.k):
        a, b = tuple(edge)
        bip_edges += len(members(state, a)) * len(members(state, b))
    wiring.edges(formed=clique_edges + bip_edges)
    for node in nodes:
        wiring.msg(node, 2)
    rows.append(wiring.seal())
    return pad(rows, 2 * lg + 4)


def preprocess_replay(pre) -> list[RoundWork]:
    """The rows `preprocess` charged for the groups it found."""
    groups = pre.groups
    rows = []
    longest = max(len(g) for g in groups)
    for r in range(max(1, longest - 1)):
        acc = RoundAcc()
        for g in groups:
            for member in g[r + 1:]:
                acc.msg(member)
        rows.append(acc.seal())
    shortcut = RoundAcc()
    for g in groups:
        shortcut.edges(formed=len(g) * (len(g) - 1) // 2)
        for member in g[1:]:
            shortcut.msg(g[0])
    rows.append(shortcut.seal())
    discovery = RoundAcc()
    for key in pre.parents:
        discovery.msg(key, 2)
    rows.append(discovery.seal())
    init = RoundAcc()
    for member in pre.top_members:
        init.msg(member)
    rows.append(init.seal())
    return rows


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
