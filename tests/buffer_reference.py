"""Level raising that rescans every joiner at every level, kept as the
reference.

``churnskip.phase_buffer.raise_levels`` works from the keys at each level:
it filters the keys, with their base-chain index, that reached the level
below, reads each fill-in run from an index gap between neighbours and
feeds the run's two sides to ``phase_delete.fold_pairs``. This is the
version it replaced: each level marks its fill-ins over the whole chain,
finds the leaves by scanning the chain (``bridge_chain``) and counts the
dropped edges run by run. Both must give the same links, heights, pending
labels and rows, field by field.
"""

from __future__ import annotations

from churnskip.phase_delete import Pair, _merge_pairs
from churnskip.skiplist import BUF_LS, BUF_RS, LS, RS, SkipNet
from churnskip.work import ParallelSends, RoundWork
from delete_reference import leaf_pair


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
