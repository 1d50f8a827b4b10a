"""Committee overlay: a wrapped butterfly of Theta(log n)-sized random
cliques that absorbs churn by covering departed members and reassigns
everyone every few rounds. Its dimensionality k is fixed at bootstrap: the
churn schedule pairs every departure with a join, so the network size stays
n. Growing or shrinking k lives in the test suite, beside criterion 10,
until an adversary that drifts the size needs it.

Committee addresses are (row, level) with level' = level+1 (mod k) edges;
(r, k) is the same committee as (r, 0). k = 0 is the degenerate
single-committee overlay used below the smallest viable network size.

Membership is the last tick's draw plus deltas: the sorted alive nodes and
the committee slot drawn for each, the drawn nodes that left since and the
nodes placed since. A node's committee is looked up in the nodes placed
since, else by bisection into the draw; sizes are counts and a committee's
speaker is found in the draw. So the tick does nothing per node beyond the
draw and its size count, and neither it nor covering builds a per-node map
or a member set. The tests build those copies from the draw and the deltas
(``tests/overlay_reference.py``).
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .params import butterfly_k, ceil_log2
from .simcore import RecordView
from .skiplist import RS
from .work import RoundWork, uniform_round

Address = tuple[int, int]


def butterfly_edge_set(k: int) -> set[frozenset]:
    """Inter-committee edges required by the wrapped-butterfly rule."""
    edges: set[frozenset] = set()
    if k < 1:
        return edges
    for r in range(2 ** k):
        for lvl in range(k):
            nxt = (lvl + 1) % k
            a = (r, lvl)
            for r2 in (r, r ^ (1 << nxt)):
                b = (r2, nxt)
                if a != b:
                    edges.add(frozenset((a, b)))
    return edges


def route_hops(src: Address, dst: Address, k: int) -> int:
    """Greedy wrapped-butterfly routing distance (at most 2k hops)."""
    if k < 1 or src == dst:
        return 0
    r, lvl = src
    hops = 0
    while (r, lvl) != dst and hops <= 2 * k + 1:
        lvl = (lvl + 1) % k
        if (r ^ dst[0]) & (1 << lvl):
            r ^= 1 << lvl
        hops += 1
    return hops


@dataclass(slots=True)
class Census:
    round: int
    k: int
    committee_count: int
    min_size: int
    max_size: int
    mean_size: float

    def as_record(self) -> dict:
        return {"round": self.round, "k": self.k,
                "committee_count": self.committee_count,
                "min_size": self.min_size, "max_size": self.max_size,
                "mean_size": round(self.mean_size, 2)}


class CensusLog(RecordView):
    """The censuses of one overlay, as columns: round (8 B), min and max
    size (4 B each) and mean size (8 B) per census, with k and the
    committee count, which the overlay fixes, held once. A Census is
    built only when one is read."""

    def __init__(self, k: int, committee_count: int):
        self.k = k
        self.committee_count = committee_count
        self.rounds = array("q")
        self.min_size = array("i")
        self.max_size = array("i")
        self.mean_size = array("d")

    def __len__(self) -> int:
        return len(self.rounds)

    def append(self, census: Census) -> None:
        self.rounds.append(census.round)
        self.min_size.append(census.min_size)
        self.max_size.append(census.max_size)
        self.mean_size.append(census.mean_size)

    def record(self, i: int) -> Census:
        return Census(self.rounds[i], self.k, self.committee_count,
                      self.min_size[i], self.max_size[i], self.mean_size[i])


class CommitteeOverlay:
    """Committees are slots, ``addrs[slot]`` their addresses. Membership:
    ``_nodes`` (sorted) drew the slots ``_picks`` at the last tick or at
    bootstrap; ``_gone`` holds the drawn nodes that left since and ``_placed``
    the slot of each node placed since. ``_size`` counts each slot's members,
    and ``_speakers`` caches a slot's smallest member until it leaves or a
    smaller node arrives; ``_placed_lo`` bounds the nodes placed since from
    below. A cover is one ``covered_index`` entry."""

    def __init__(self, k: int):
        self.k = k
        self.addrs = self.addresses(k)
        self._slot = {addr: slot for slot, addr in enumerate(self.addrs)}
        self.covered_index: dict[int, Address] = {}
        self.census_log = CensusLog(k, len(self.addrs))
        self._slots = list(range(len(self.addrs)))
        self._load([], [])

    @staticmethod
    def addresses(k: int) -> list[Address]:
        if k < 1:
            return [(0, 0)]
        return [(r, lvl) for r in range(2 ** k) for lvl in range(k)]

    # -- membership ----------------------------------------------------------

    def _load(self, nodes: list[int], picks: list[int]) -> None:
        """Make sorted nodes, node i in slot picks[i], the whole membership."""
        self._nodes = nodes
        self._picks = picks
        counts = Counter(picks)
        self._size = [counts[slot] for slot in self._slots]
        self._gone: set[int] = set()
        self._placed: dict[int, int] = {}
        self._placed_lo = RS    # at most every node in _placed
        self._speakers: dict[int, int | None] = {}

    def _drawn_slot(self, node: int) -> int | None:
        """The slot the draw gave node, unless it was not drawn or left."""
        nodes = self._nodes
        i = bisect_left(nodes, node)
        if i < len(nodes) and nodes[i] == node and node not in self._gone:
            return self._picks[i]
        return None

    def _placed_in(self, slot: int) -> list[int]:
        return [node for node, s in self._placed.items() if s == slot]

    def address_of(self, node: int) -> Address | None:
        """The committee node is a member of, or None."""
        slot = self._placed.get(node)
        if slot is None:
            slot = self._drawn_slot(node)
        return None if slot is None else self.addrs[slot]

    def size(self, addr: Address) -> int:
        return self._size[self._slot[addr]]

    def speaker(self, addr: Address) -> int | None:
        slot = self._slot[addr]
        if slot not in self._speakers:
            # the first drawn member that has not left, or a smaller node
            # placed since; none is smaller when that member is below
            # _placed_lo
            nodes, picks, gone = self._nodes, self._picks, self._gone
            first = []
            try:
                i = picks.index(slot)
                while nodes[i] in gone:
                    i = picks.index(slot, i + 1)
                first.append(nodes[i])
            except ValueError:
                pass
            if first and first[0] < self._placed_lo:
                self._speakers[slot] = first[0]
            else:
                self._speakers[slot] = min(chain(first, self._placed_in(slot)),
                                           default=None)
        return self._speakers[slot]

    def place(self, node: int, addr: Address) -> None:
        slot = self._slot[addr]
        self._placed[node] = slot
        if node < self._placed_lo:
            self._placed_lo = node
        self._size[slot] += 1
        if slot in self._speakers:
            speaker = self._speakers[slot]
            if speaker is None or node < speaker:
                self._speakers[slot] = node

    def remove_member(self, node: int) -> Address | None:
        """Take node out of its committee; returns that committee, if any."""
        slot = self._placed.pop(node, None)
        if slot is None:
            slot = self._drawn_slot(node)
            if slot is None:
                return None
            self._gone.add(node)
        self._size[slot] -= 1
        if self._speakers.get(slot) == node:
            del self._speakers[slot]
        return self.addrs[slot]

    def sizes(self) -> list[int]:
        return list(self._size)

    # -- covering -------------------------------------------------------------

    def cover_node(self, node: int, links: int) -> int | None:
        """Committee takes over a departed member's links, one per level of
        its tower.

        Returns the edges formed, or None when the committee was wiped out
        (a counted protocol failure, not an exception).
        """
        addr = self.remove_member(node)
        if addr is None or not self.size(addr):
            return None
        self.covered_index[node] = addr
        return self.size(addr) * max(1, links)

    def uncover(self, node: int) -> None:
        self.covered_index.pop(node, None)

    def covering_speaker(self, node: int) -> int | None:
        addr = self.covered_index.get(node)
        return None if addr is None else self.speaker(addr)

    # -- periodic maintenance ----------------------------------------------------

    def maintenance_tick(self, alive, rng: random.Random, round_no: int) -> Census:
        """Uniform reassignment of every alive node; covered state stays
        with the committee identity. The draw becomes the membership."""
        nodes = sorted(alive)
        self._load(nodes, rng.choices(self._slots, k=len(nodes)))
        sizes = self._size
        census = Census(round_no, self.k, len(sizes),
                        min(sizes), max(sizes), sum(sizes) / len(sizes))
        self.census_log.append(census)
        return census


def bootstrap_overlay(nodes, rng: random.Random
                      ) -> tuple[CommitteeOverlay, list[RoundWork]]:
    """Six-step construction: leader, tree, leader cycle, butterfly,
    random fill, bipartite wiring. Charged as bootstrap work."""
    nodes = sorted(nodes)
    n = len(nodes)
    k = butterfly_k(n)
    if k < 1:
        state = CommitteeOverlay(0)
        state._load(nodes, [0] * n)
        return state, []
    state = CommitteeOverlay(k)
    m = len(state.addrs)
    # the first m nodes lead one committee each, the rest fill at random
    state._load(nodes, list(range(m)) + [rng.randrange(m) for _ in nodes[m:]])

    lg = ceil_log2(n)
    # leader election + tree construction
    rows = [uniform_round(nodes) for _ in range(2 * lg)]
    clique_edges = sum(s * (s - 1) // 2 for s in state.sizes())
    bip_edges = 0
    for edge in butterfly_edge_set(k):
        a, b = tuple(edge)
        bip_edges += state.size(a) * state.size(b)
    rows.append(uniform_round(nodes, 2, formed=clique_edges + bip_edges))
    rows += [RoundWork() for _ in range(3)]
    return state, rows
