"""Buffer creation: sort the cycle's joiners on a comparator network laid
over a butterfly-style overlay, then raise skip-list levels and rewire away
fill-in entries.

The comparator network is Batcher's bitonic sort over the joiners padded
to the next power of two, 2^q wires, with depth q(q+1)/2. Every layer's
comparators cover each wire exactly once, so the network's work depends on
the width alone: each real host sends one message per layer. The phase
charges the overlay and sort rounds in closed form and returns the joiners
sorted. The network itself, which the acceptance tests run to check that
it sorts (criterion 1), is kept with the tests in
``tests/buffer_reference.py``.

Level raising works from the keys at each level: the keys that reached the
level below, each with its index in the base chain, are filtered by
height, and an index gap between two neighbours is a run of fill-ins whose
two sides are leaves of the level's rewiring tree, a balanced tree whose
boundary messages are charged in closed form (`halving_rounds`); the pair
fold they stand for is kept with the tests. Host work is the keys summed
over the levels, about twice the joiners.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .errors import NoJoiners
from .skiplist import BUF_LS, BUF_RS, LS, RS, SkipNet
from .work import ParallelSends, RoundWork, uniform_round

# each key's height, read as heights[key]: a dict, or an array indexed by id
Heights = Mapping[int, int] | Sequence[int]


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


def halving_rounds(leaves: list[int]) -> list[list[int]]:
    """Per round, the senders of a balanced tree over a chain's leaves, left
    to right: subtrees merge pairwise, so round r's are leaves[::2^r]."""
    if not leaves:
        return []
    return [leaves[:: 1 << r] for r in range((len(leaves) - 1).bit_length() + 1)]


def raise_levels(sorted_keys: list[int], heights: Heights
                 ) -> tuple[SkipNet, list[RoundWork]]:
    """Copy the base chain level by level and rewire fill-ins away.

    Fill-in entries at level l (height < l) play the red role of the
    deletion routine; all levels rewire in parallel. Each level works from
    the keys that reach it, filtered from those of the level below with
    their base-chain index: an index gap between two neighbours is a run of
    fill-ins, whose two sides are the leaves of the level's balanced tree.
    The buffer's own sentinels are ordinary members spanning every level,
    ready to ride through the merge.
    """
    top = max((heights[k] for k in sorted_keys), default=0)
    buf = SkipNet("B")
    buf.ensure_height(top)
    buf.add_key(BUF_LS, top)
    buf.add_key(BUF_RS, top)

    for key in sorted_keys:
        buf.add_key(key, heights[key])
    links, height = buf.links, buf.heights
    base = [BUF_LS, *sorted_keys, BUF_RS]
    level = list(enumerate(base))    # (base-chain index, key)
    sends = ParallelSends()
    for lvl in range(top + 1):
        level = [(i, k) for i, k in level if height[k] >= lvl]
        buf.set_link(LS, BUF_LS, lvl)
        buf.set_link(BUF_RS, RS, lvl)
        leaves: list[int] = []
        deleted = 0
        i, a = level[0]
        left_red = False
        for j, b in level[1:]:
            links[a][lvl][1] = b
            links[b][lvl][0] = a
            # a gap of g fill-ins drops g + 1 edges: each fill-in's left
            # port and the run's last right port
            right_red = j - i > 1
            if right_red:
                deleted += j - i
            if left_red or right_red:
                leaves.append(a)
            i, a, left_red = j, b, right_red
        if left_red:
            leaves.append(a)
        sends.add(halving_rounds(leaves), deleted)
    # level copy: every key takes part at every level, fill-ins included
    return buf, [RoundWork(0, (len(base) - 1) * (top + 1)), *sends.rows()]


@dataclass
class BufferSummary:
    joiners: int = 0
    padded_width: int = 0
    sort_depth: int = 0


def create_buffer(joiners: list[int], heights: Heights
                  ) -> tuple[SkipNet | None, BufferSummary, list[RoundWork]]:
    """Full phase: overlay, network sort, level raising."""
    summary = BufferSummary(joiners=len(joiners))
    if not joiners:
        return None, summary, []
    overlay = build_sorting_overlay(joiners)
    sorted_keys, sort_rows = run_network_sort(overlay)
    buf, raise_rows = raise_levels(sorted_keys, heights)
    summary.padded_width = overlay.padded_width
    summary.sort_depth = overlay.depth
    return buf, summary, overlay.build_rows + sort_rows + raise_rows
