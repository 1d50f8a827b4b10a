"""The eager committee membership, kept as the reference.

``churnskip.overlay.CommitteeOverlay`` keeps the last reassignment draw as
the membership and tracks the nodes placed and removed since as deltas.
This is the membership it replaced: one set per committee, cleared and
refilled node by node on every tick, with the speaker taken as the minimum
of the set. Both must agree on assignments, members, sizes, speakers,
censuses and the random draws they make.

``assignment`` and ``members`` build a ``CommitteeOverlay``'s per-node map
and member sets from its draw and deltas, copies that no run needs.
``validate_cliques`` and ``sizes_within_band`` check a ``CommitteeOverlay``
as a whole.
"""

from __future__ import annotations

from itertools import compress

from churnskip.overlay import Address, Census, CommitteeOverlay
from churnskip.params import SimParams


def assignment(overlay: CommitteeOverlay) -> dict[int, Address]:
    """Every member and its committee."""
    addrs = overlay.addrs
    out = {node: addrs[slot] for node, slot in zip(overlay._nodes, overlay._picks)
           if node not in overlay._gone}
    out.update((node, addrs[slot]) for node, slot in overlay._placed.items())
    return out


def members(overlay: CommitteeOverlay, addr: Address) -> set[int]:
    """The members of the committee at addr."""
    slot = overlay._slot[addr]
    drawn = compress(overlay._nodes, map(slot.__eq__, overlay._picks))
    return set(drawn).difference(overlay._gone).union(overlay._placed_in(slot))


def validate_cliques(overlay: CommitteeOverlay) -> str:
    for addr in overlay.addrs:
        committee = members(overlay, addr)
        for node in committee:
            if overlay.address_of(node) != addr:
                return f"clique: stale assignment for node {node}"
        if len(committee) != overlay.size(addr):
            return f"clique: size count off at {addr}"
    return "OK"


def sizes_within_band(overlay: CommitteeOverlay, params: SimParams) -> bool:
    lo, hi = params.committee_lo, params.committee_hi
    return all(lo <= s <= hi for s in overlay.sizes())


class EagerOverlay:
    def __init__(self, k: int):
        self.k = k
        self.addrs = CommitteeOverlay.addresses(k)
        self.members: dict = {addr: set() for addr in self.addrs}
        self.assignment: dict = {}
        self.covered_index: dict = {}
        self.census_log: list[Census] = []

    def place(self, node, addr) -> None:
        self.assignment[node] = addr
        self.members[addr].add(node)

    def remove_member(self, node):
        addr = self.assignment.pop(node, None)
        if addr is not None:
            self.members[addr].discard(node)
        return addr

    def speaker(self, addr):
        return min(self.members[addr]) if self.members[addr] else None

    def sizes(self) -> list[int]:
        return [len(self.members[addr]) for addr in self.addrs]

    def cover_node(self, node, links):
        """Returns (committee, speaker, edges), or None when the committee
        is empty or the node had none."""
        addr = self.remove_member(node)
        if addr is None or not self.members[addr]:
            return None
        self.covered_index[node] = addr
        return addr, self.speaker(addr), len(self.members[addr]) * max(1, links)

    def uncover(self, node) -> None:
        self.covered_index.pop(node, None)

    def covering_speaker(self, node):
        addr = self.covered_index.get(node)
        return None if addr is None else self.speaker(addr)

    def maintenance_tick(self, alive, rng, round_no) -> Census:
        for members in self.members.values():
            members.clear()
        self.assignment.clear()
        nodes = sorted(alive)
        picks = rng.choices(self.addrs, k=len(nodes))
        for node, addr in zip(nodes, picks):
            self.place(node, addr)
        sizes = self.sizes()
        census = Census(round_no, self.k, len(self.addrs),
                        min(sizes), max(sizes), sum(sizes) / len(self.addrs))
        self.census_log.append(census)
        return census


def eager_bootstrap(nodes, k: int, rng) -> EagerOverlay:
    """What ``bootstrap_overlay`` placed: one leader per committee, the
    rest at random (everyone in (0, 0) when k = 0)."""
    nodes = sorted(nodes)
    state = EagerOverlay(k)
    if k < 1:
        for node in nodes:
            state.place(node, (0, 0))
        return state
    addrs = state.addrs
    for node, addr in zip(nodes, addrs):
        state.place(node, addr)
    for node in nodes[len(addrs):]:
        state.place(node, addrs[rng.randrange(len(addrs))])
    return state
