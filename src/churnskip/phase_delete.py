"""Batch deletion of committee-covered ("red") nodes from the clean network.

Every level runs independently: black nodes adjacent to reds become leaves
of a tree rooted at the left-topmost sentinel, boundary messages flow
upward, and one edge forms across each maximal red run, between the two
blacks that end it. A level tree is held level-major, one key -> depth map
per skip-list level it spans, and its messages are charged from the bottom
level up, right to left within a level. The bridges are read off the level
chain (`red_runs`); the dotted pairs the messages carry, and the merge
that works the bridges out of them, are kept with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ORPHAN_LEAF, ChurnSkipError
from .skiplist import LS, SkipNet
from .work import ParallelSends, RoundWork


class OrphanLeaf(ChurnSkipError):
    kind = ORPHAN_LEAF


# -- the skip-list backtracking tree (deletion proper) -----------------------
#
# A level tree is held level-major: the tree node (key, l) is key in
# depths[l], a map key -> tree depth, so no tree node is a tuple and no
# parent is stored. A node climbs to (key, l+1) exactly when key is also in
# depths[l+1]. Otherwise its parent is its left neighbour at level l, which
# is in the tree, so it is the next smaller key of depths[l].


def form_tree(net: SkipNet, lvl: int, red: set[int]
              ) -> tuple[list[int], list[dict[int, int]], list[list[int]]]:
    """Shortest-path tree rooted at the left-topmost sentinel (LS, top).

    Backtracking rule: at (v, l) go up if v reaches above l, else one hop
    left; the sentinels reach the top. Leaves are the level-lvl blacks with
    at least one red neighbor, found from the reds themselves; sentinels
    count as permanent blacks. Returns the leaves, depths[l] for every
    level l, and the keys of the tree nodes by depth in formation order.
    """
    top = net.height
    links = net.links
    height = net.heights.get
    leaves = sorted({side for key in red for side in links[key][lvl] if side not in red})
    depths: list[dict[int, int]] = [{} for _ in range(top + 1)]
    depths[top][LS] = 0
    layers: list[list[int]] = [[LS]]
    limit = 2 * (len(net.heights) + top + 4)
    for leaf in leaves:
        key, l = leaf, lvl
        at = depths[l]
        keys: list[int] = []
        maps: list[dict[int, int]] = []    # depths[l] of each of keys
        while key not in at:
            keys.append(key)
            maps.append(at)
            if len(keys) > limit:
                raise OrphanLeaf(f"leaf {leaf} lost at level {lvl}")
            if height(key, top) > l:
                l += 1
                at = depths[l]
            else:
                key = links[key][l][0]
        d = at[key] + len(keys)
        while len(layers) <= d:
            layers.append([])
        for key, depth_of in zip(keys, maps):
            depth_of[key] = d
            layers[d].append(key)
            d -= 1
    return leaves, depths, layers


def fold_tree(net: SkipNet, lvl: int, leaves: list[int],
              depths: list[dict[int, int]]) -> list[list[int]]:
    """Charge the boundary messages flowing leaves-to-root.

    Levels fold bottom-up and keys right to left within a level, so every
    node folds after both its inputs: the node below it, which climbed, and
    the node folded just before it when that one did not climb. Returns,
    per round, the keys that send in it. A node sends in the round its later
    input arrives; a leaf's own message is ready in round 0.
    """
    top = net.height
    senders: list[list[int]] = []
    # per key of the level being folded: the round its input from below
    # arrives; at the deletion level these are the leaves' own messages
    below = dict.fromkeys(leaves, 0)
    for l in range(lvl, top + 1):
        upper = depths[l + 1] if l < top else ()
        climbs: dict[int, int] = {}
        right = 0   # arrival from the node folded last if a right child, else 0
        for key in sorted(depths[l], reverse=True):
            when = below.get(key, 0)
            if right > when:
                when = right
            if key == LS and l == top:
                break   # the root folds its inputs but sends nothing further
            if when == len(senders):
                senders.append([])
            senders[when].append(key)
            if key in upper:
                climbs[key] = when + 1
                right = 0
            else:
                right = when + 1
        below = climbs
    return senders


def red_runs(net: SkipNet, lvl: int, red: set[int], leaves: list[int]
             ) -> list[tuple[int, int]]:
    """Level lvl's bridges, one per maximal red run: walk right from each
    leaf, left to right, across the red run it starts to the black ending it."""
    links = net.links
    bridges = []
    for leaf in leaves:
        key = links[leaf][lvl][1]
        if key in red:
            while key in red:
                key = links[key][lvl][1]
            bridges.append((leaf, key))
    return bridges


@dataclass
class DeleteSummary:
    reds_removed: int = 0
    bridge_edges_created: int = 0


def delete_phase(net: SkipNet, reds) -> tuple[DeleteSummary, list[RoundWork]]:
    """Remove every red key from net at all levels in parallel.

    Work scales with the reds: each level tree is found from the reds at
    that level, and no level is walked.
    """
    reds_in = sorted(k for k in reds if k in net.heights)
    summary = DeleteSummary()
    if not reds_in:
        return summary, []

    red_set = set(reds_in)
    sends = ParallelSends()
    per_level: list[tuple[int, list[tuple[int, int]]]] = []
    at_level = reds_in
    for lvl in range(net.height + 1):
        at_level = [k for k in at_level if net.heights[k] >= lvl]
        if not at_level:
            break
        level_red = set(at_level)
        leaves, depths, layers = form_tree(net, lvl, level_red)
        # formation backtracks one hop per round, in parallel from all
        # leaves: the deepest nodes send first. A key sends at most once
        # per round in one level tree (its tree nodes form a vertical
        # chain), but in several trees at once
        sends.add(layers[:0:-1] + fold_tree(net, lvl, leaves, depths))
        per_level.append((len(at_level), red_runs(net, lvl, level_red, leaves)))
    rows = sends.rows()

    # apply: bridge each red run, then drop the red towers
    formed = deleted = 0
    for lvl, (reds_here, bridges) in enumerate(per_level):
        for a, b in bridges:
            net._drop_pending(a, net.right(a, lvl), lvl)
            net.set_link(a, b, lvl)  # bridge repairs both clean and live
        formed += len(bridges)
        # one edge per red plus the one closing each run
        deleted += reds_here + len(bridges)
    for key in reds_in:
        del net.links[key]
        del net.heights[key]
        net.live.discard(key)
    net.pending = {(l, a, b) for (l, a, b) in net.pending
                   if a not in red_set and b not in red_set}
    rows.append(RoundWork(0, formed, deleted))

    summary.reds_removed = len(reds_in)
    summary.bridge_edges_created = formed
    return summary, rows
