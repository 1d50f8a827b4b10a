"""The buffer phase's comparator network and the versions of its work it
replaced, kept as the reference.

``build_bitonic`` is Batcher's bitonic sort in its normalized form: the
first sublayer of every merge stage pairs mirrored wires inside each block,
after which all comparators can point the same way (minimum to the lower
wire index). Depth is exactly log2(m)(log2(m)+1)/2 for the padded width,
the same as the classic construction. ``churnskip.phase_buffer`` charges
the network's rounds in closed form and sorts the joiners directly; the
acceptance tests run this network to check that it sorts (criterion 1),
and ``network_sort_replay`` and ``sorting_overlay_replay`` charge its work
comparator by comparator, to be compared with the closed-form rows.

``churnskip.phase_buffer.raise_levels`` works from the keys at each level:
it filters the keys, with their base-chain index, that reached the level
below, reads each fill-in run from an index gap between neighbours and
feeds the run's two sides to ``phase_delete.fold_pairs``. ``raise_levels``
here is the version it replaced: each level marks its fill-ins over the
whole chain, finds the leaves by scanning the chain (``bridge_chain``) and
counts the dropped edges run by run. Both must give the same links,
heights, pending labels and rows, field by field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from churnskip.phase_delete import Pair, _merge_pairs
from churnskip.skiplist import BUF_LS, BUF_RS, LS, RS, SkipNet
from churnskip.work import ParallelSends, RoundWork
from delete_reference import leaf_pair
from work_reference import RoundAcc

PAD = RS  # padding values sort to the top and fall off the real outputs


@dataclass
class ComparatorNetwork:
    width: int                       # requested width m
    padded_width: int                # next power of two
    layers: list[list[tuple[int, int]]]

    @property
    def depth(self) -> int:
        return len(self.layers)

    def apply(self, values) -> list:
        """Run the network; returns the first `width` outputs, sorted."""
        if len(values) != self.width:
            raise ValueError(f"expected {self.width} values")
        wires = list(values) + [PAD] * (self.padded_width - self.width)
        for layer in self.layers:
            for i, j in layer:
                if wires[i] > wires[j]:
                    wires[i], wires[j] = wires[j], wires[i]
        return wires[: self.width]


def build_bitonic(m: int) -> ComparatorNetwork:
    if m < 1:
        raise ValueError("width must be >= 1")
    padded = 1 << (m - 1).bit_length()
    layers: list[list[tuple[int, int]]] = []
    size = 2
    while size <= padded:
        mirror = []
        for start in range(0, padded, size):
            for i in range(size // 2):
                mirror.append((start + i, start + size - 1 - i))
        layers.append(mirror)
        d = size // 4
        while d >= 1:
            layers.append([(i, i + d) for i in range(padded) if not i & d])
            d //= 2
        size *= 2
    for layer in layers:
        wires = [w for pair in layer for w in pair]
        assert len(wires) == len(set(wires)), "wire reused within a layer"
    q = padded.bit_length() - 1
    assert len(layers) == q * (q + 1) // 2
    return ComparatorNetwork(m, padded, layers)


def network_sort_replay(joiners: list[int]) -> tuple[list[int], list[RoundWork]]:
    """Run every comparator, one round per layer; each comparator charges
    one message to each real host of its two wires."""
    net = build_bitonic(len(joiners))
    padding = net.padded_width - len(joiners)
    wires = list(joiners) + [PAD] * padding
    host = list(joiners) + [None] * padding
    rows = []
    for layer in net.layers:
        acc = RoundAcc()
        for i, j in layer:
            for h in (host[i], host[j]):
                if h is not None:
                    acc.msg(h)
            if wires[i] > wires[j]:
                wires[i], wires[j] = wires[j], wires[i]
        rows.append(acc.seal())
    return [w for w in wires if w != PAD], rows


def sorting_overlay_replay(joiners: list[int]) -> list[RoundWork]:
    net = build_bitonic(len(joiners))
    rounds = max(1, math.ceil(math.log2(max(2, net.padded_width)))) + 3
    wiring = net.padded_width * net.depth
    per_round_edges = [wiring // rounds] * rounds
    per_round_edges[-1] += wiring - sum(per_round_edges)
    rows = []
    for r in range(rounds):
        acc = RoundAcc()
        for j in joiners:
            acc.msg(j)
        acc.edges(formed=per_round_edges[r])
        rows.append(acc.seal())
    return rows


def comparator_count(net) -> int:
    """The comparators of a ``ComparatorNetwork``, over all its layers."""
    return sum(len(layer) for layer in net.layers)


def bridge_chain(chain: list[int], red: set[int], lvl: int = 0
                 ) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """Run the boundary-message protocol over a balanced tree on a chain.

    chain includes both sentinels (permanent blacks); pairwise merging
    halves it each round. Returns the bridges and, per round, the keys that
    send in it.
    """
    leaves: list[Pair] = []
    for i, key in enumerate(chain):
        if key in red:
            continue
        lred = i > 0 and chain[i - 1] in red
        rred = i + 1 < len(chain) and chain[i + 1] in red
        if lred or rred:
            leaves.append(leaf_pair(key, lred, rred))
    bridges: list[tuple[int, int]] = []
    if not leaves:
        return bridges, []
    senders = [[pair[0] for pair in leaves]]
    frontier = leaves
    while len(frontier) > 1:
        nxt = [_merge_pairs(frontier[i], frontier[i + 1], bridges, lvl)
               for i in range(0, len(frontier) - 1, 2)]
        if len(frontier) % 2:
            nxt.append(frontier[-1])
        frontier = nxt
        senders.append([pair[0] for pair in frontier])
    return sorted(bridges), senders


def raise_levels(sorted_keys: list[int], heights: dict[int, int]
                 ) -> tuple[SkipNet, list[RoundWork]]:
    """Copy the base chain level by level and rewire fill-ins away."""
    top = max((heights[k] for k in sorted_keys), default=0)
    buf = SkipNet("B")
    buf.ensure_height(top)
    buf.add_key(BUF_LS, top)
    buf.add_key(BUF_RS, top)

    for key in sorted_keys:
        buf.add_key(key, heights[key])
    chain = [BUF_LS, *sorted_keys, BUF_RS]
    for a, b in zip(chain, chain[1:]):
        buf.set_link(a, b, 0)
    buf.set_link(LS, BUF_LS, 0)
    buf.set_link(BUF_RS, RS, 0)

    sends = ParallelSends()
    for lvl in range(1, top + 1):
        fill_in = {k for k in sorted_keys if heights[k] < lvl}
        _, senders = bridge_chain(chain, fill_in, lvl)
        effectives = [k for k in chain if k not in fill_in]
        for a, b in zip(effectives, effectives[1:]):
            buf.set_link(a, b, lvl)
        buf.set_link(LS, effectives[0], lvl)
        buf.set_link(effectives[-1], RS, lvl)
        # fill-in entries drop both their ports once bridged around
        run = 0
        deleted = 0
        for key in chain:
            if key in fill_in:
                run += 1
            elif run:
                deleted += run + 1
                run = 0
        sends.add(senders, deleted)
    # level copy: every key takes part at every level, fill-ins included
    return buf, [RoundWork(0, (len(chain) - 1) * (top + 1)), *sends.rows()]
