"""Buffer creation: sort the cycle's joiners on a comparator network laid
over a butterfly-style overlay, then raise skip-list levels and rewire away
fill-in entries.

The comparator network is Batcher's bitonic sort in its normalized form:
the first sublayer of every merge stage pairs mirrored wires inside each
block, after which all comparators can point the same way (minimum to the
lower wire index). Depth is exactly log2(m)(log2(m)+1)/2 for the padded
width, the same as the classic construction.

Every layer's comparators cover each wire exactly once, so the network's
work depends on the width alone: each real host sends one message per
layer. The phase charges the overlay and sort rounds in closed form and
returns the joiners sorted; `build_bitonic` and `ComparatorNetwork.apply`
are the network itself, which the acceptance tests run to check that it
sorts (criterion 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoJoiners
from .phase_delete import bridge_chain
from .skiplist import BUF_LS, BUF_RS, LS, RS, SkipNet
from .work import ParallelSends, RoundWork, totals, uniform_round

PAD = RS  # padding values sort to the top and fall off the real outputs


@dataclass
class ComparatorNetwork:
    width: int                       # requested width m
    padded_width: int                # next power of two
    layers: list[list[tuple[int, int]]]

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def comparator_count(self) -> int:
        return sum(len(layer) for layer in self.layers)

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


@dataclass
class SortingOverlay:
    joiners: list[int]               # arrival order, unsorted
    padded_width: int                # wires: the next power of two
    depth: int                       # layers of the bitonic network
    build_rows: list[RoundWork]


def build_sorting_overlay(joiners: list[int]) -> SortingOverlay:
    """Lay one overlay position per wire over the joiners, O(log n) rounds.

    Construction follows the leader/tree/cycle recipe used for the main
    overlay; every joiner sends one message per round. Padding wires are
    simulator-virtual and free.
    """
    if not joiners:
        raise NoJoiners("buffer phase has nothing to sort")
    q = (len(joiners) - 1).bit_length()
    padded, depth = 1 << q, q * (q + 1) // 2
    rounds = max(1, q) + 3
    wiring = padded * depth  # one overlay edge per wire per layer hop
    per_round_edges = [wiring // rounds] * rounds
    per_round_edges[-1] += wiring - sum(per_round_edges)
    rows = [uniform_round(joiners, formed=e) for e in per_round_edges]
    return SortingOverlay(list(joiners), padded, depth, rows)


def run_network_sort(overlay: SortingOverlay) -> tuple[list[int], list[RoundWork]]:
    """One round per layer; every real host sends one message per layer."""
    rows = [uniform_round(overlay.joiners) for _ in range(overlay.depth)]
    return sorted(overlay.joiners), rows


def raise_levels(sorted_keys: list[int], heights: dict[int, int]
                 ) -> tuple[SkipNet, list[RoundWork]]:
    """Copy the base chain level by level and rewire fill-ins away.

    Fill-in entries at level l (height < l) play the red role of the
    deletion routine; all levels rewire in parallel. The buffer's own
    sentinels are ordinary members spanning every level, ready to ride
    through the merge.
    """
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


@dataclass
class BufferSummary:
    joiners: int = 0
    padded_width: int = 0
    sort_depth: int = 0
    rounds_used: int = 0
    messages_used: int = 0
    edges_formed: int = 0


def create_buffer(joiners: list[int], heights: dict[int, int]
                  ) -> tuple[SkipNet | None, BufferSummary, list[RoundWork]]:
    """Full phase: overlay, network sort, level raising."""
    summary = BufferSummary(joiners=len(joiners))
    if not joiners:
        return None, summary, []
    overlay = build_sorting_overlay(joiners)
    sorted_keys, sort_rows = run_network_sort(overlay)
    buf, raise_rows = raise_levels(sorted_keys, heights)
    rows = overlay.build_rows + sort_rows + raise_rows
    summary.padded_width = overlay.padded_width
    summary.sort_depth = overlay.depth
    summary.rounds_used = len(rows)
    summary.messages_used, summary.edges_formed, _ = totals(rows)
    return buf, summary, rows
