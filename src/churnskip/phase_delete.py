"""Batch deletion of committee-covered ("red") nodes from the clean network.

Every level runs independently: black nodes adjacent to reds become leaves
of a tree rooted at the left-topmost sentinel, dotted boundary pairs flow
upward, and an edge is formed between two boundary nodes exactly when their
facing dots meet, bridging each maximal red run. A level tree is held
level-major, one key -> depth map per skip-list level it spans, and folds
from the bottom level up, right to left within a level. Buffer creation
reuses the same message discipline and pair merge to rewire fill-in nodes,
there over a balanced tree on the level chain: `fold_pairs`, shared from
here, folds the leaves that buffer creation finds from the keys at each
level (see `phase_buffer.raise_levels`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MESSAGE_SHAPE_VIOLATION, ORPHAN_LEAF, ChurnSkipError
from .skiplist import LS, SkipNet
from .work import ParallelSends, RoundWork


class MessageShapeViolation(ChurnSkipError):
    kind = MESSAGE_SHAPE_VIOLATION


class OrphanLeaf(ChurnSkipError):
    kind = ORPHAN_LEAF


# A boundary message is (w, w_dotted, z, z_dotted): w/z are the leftmost and
# rightmost leaves of the sending subtree, a dot marks a red neighbor on
# that side.
Pair = tuple[int, bool, int, bool]


def _merge_pairs(below: Pair, right: Pair, bridges: list, lvl: int) -> Pair:
    w, wd, x, xd = below
    y, yd, z, zd = right
    if xd != yd:
        raise MessageShapeViolation(f"facing dots disagree at level {lvl}: {x} vs {y}")
    if xd:
        bridges.append((x, y))
    return (w, wd, z, zd)


def fold_pairs(leaves: list[Pair], lvl: int = 0
               ) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """Run the boundary-message protocol over a balanced tree on a chain's
    leaves, given left to right.

    Buffer-level rewiring uses it, where every position of the level chain
    is still present, so the chain itself is the communication structure:
    neighbouring subtrees merge pairwise, halving the frontier each round.
    Returns the bridges, in no particular order, and per round the keys that
    send in it.
    """
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
    return bridges, senders


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


_NO_INPUT = (None, 0)


def fold_tree(net: SkipNet, lvl: int, red: set[int], leaves: list[int],
              depths: list[dict[int, int]]
              ) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """Flow boundary pairs leaves-to-root, forming one edge per red run.

    Levels fold bottom-up and keys right to left within a level, so every
    node folds after both its inputs: the node below it, which climbed, and
    the node folded just before it when that one did not climb. Returns the
    bridges and, per round, the keys that send in it. A node sends one
    round after the later of its inputs; a leaf's own pair is ready at once.
    """
    top = net.height
    links = net.links
    senders: list[list[int]] = []
    bridges: list[tuple[int, int]] = []
    # per key of the level being folded: the input from below, (pair, round
    # it arrives); at the deletion level these are the leaves' own pairs
    below: dict[int, tuple[Pair, int]] = {}
    for leaf in leaves:
        left, nxt = links[leaf][lvl]
        below[leaf] = ((leaf, left in red, leaf, nxt in red), 0)
    pair = None
    for l in range(lvl, top + 1):
        upper = depths[l + 1] if l < top else ()
        climbs: dict[int, tuple[Pair, int]] = {}
        right = None   # pair of the node folded last, if it is a right child
        for key in sorted(depths[l], reverse=True):
            pair, when = below.get(key, _NO_INPUT)
            if right is not None:
                pair = right if pair is None else _merge_pairs(pair, right, bridges, lvl)
                if right_fire > when:
                    when = right_fire
            if key == LS and l == top:
                break   # the root folds its inputs but sends nothing further
            if when == len(senders):
                senders.append([])
            senders[when].append(key)
            if key in upper:
                climbs[key] = (pair, when + 1)
                right = None
            else:
                right, right_fire = pair, when + 1
        below = climbs

    # When the deletion level is the top level, the root sentinel may itself
    # be a leaf.
    if pair is not None and (pair[1] or pair[3]):
        raise MessageShapeViolation(f"unmatched dot at root, level {lvl}")
    return sorted(bridges), senders


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
        bridges, prop = fold_tree(net, lvl, level_red, leaves, depths)
        # formation backtracks one hop per round, in parallel from all
        # leaves: the deepest nodes send first. A key sends at most once
        # per round in one level tree (its tree nodes form a vertical
        # chain), but in several trees at once
        sends.add(layers[:0:-1] + prop)
        per_level.append((len(at_level), bridges))
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
