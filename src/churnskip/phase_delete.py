"""Batch deletion of committee-covered ("red") nodes from the clean network.

Every level runs independently: black nodes adjacent to reds become leaves
of a tree rooted at the left-topmost sentinel, dotted boundary pairs flow
upward, and an edge is formed between two boundary nodes exactly when their
facing dots meet, bridging each maximal red run. The same message discipline
is reused by buffer creation to rewire fill-in nodes, there over a balanced
tree on the level chain (see bridge_chain).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .errors import MESSAGE_SHAPE_VIOLATION, ChurnSkipError
from .skiplist import LS, RS, SkipNet
from .work import RoundAcc, WorkProfile


class MessageShapeViolation(ChurnSkipError):
    kind = MESSAGE_SHAPE_VIOLATION


class OrphanLeaf(ChurnSkipError):
    kind = "OrphanLeaf"


# A boundary message is (w, w_dotted, z, z_dotted): w/z are the leftmost and
# rightmost leaves of the sending subtree, a dot marks a red neighbor on
# that side.
Pair = tuple[int, bool, int, bool]


def _leaf_pair(key: int, left_red: bool, right_red: bool) -> Pair:
    return (key, left_red, key, right_red)


def _merge_pairs(below: Pair, right: Pair, bridges: list, lvl: int) -> Pair:
    w, wd, x, xd = below
    y, yd, z, zd = right
    if xd != yd:
        raise MessageShapeViolation(f"facing dots disagree at level {lvl}: {x} vs {y}")
    if xd:
        bridges.append((x, y))
    return (w, wd, z, zd)


def expected_bridges(chain: list[int], red: set[int]) -> list[tuple[int, int]]:
    """Scan oracle: one bridge per maximal red run between two blacks."""
    out = []
    last_black = None
    pending_run = False
    for key in chain:
        if key in red:
            pending_run = True
        else:
            if pending_run and last_black is not None:
                out.append((last_black, key))
            last_black = key
            pending_run = False
    return out


def bridge_chain(chain: list[int], red: set[int], lvl: int = 0
                 ) -> tuple[list[tuple[int, int]], WorkProfile]:
    """Run the boundary-message protocol over a balanced tree on a chain.

    chain includes both sentinels (permanent blacks). Used by buffer-level
    rewiring, where every position is still present so the chain itself is
    the communication structure; pairwise merging halves it each round.
    """
    leaves: list[Pair] = []
    for i, key in enumerate(chain):
        if key in red:
            continue
        lred = i > 0 and chain[i - 1] in red
        rred = i + 1 < len(chain) and chain[i + 1] in red
        if lred or rred:
            leaves.append(_leaf_pair(key, lred, rred))
    bridges: list[tuple[int, int]] = []
    profile = WorkProfile()
    if not leaves:
        return bridges, profile
    acc = RoundAcc()
    for w, _, _, _ in leaves:
        acc.msg(w)
    profile.add(acc)
    frontier = leaves
    while len(frontier) > 1:
        acc = RoundAcc()
        nxt = []
        for i in range(0, len(frontier) - 1, 2):
            merged = _merge_pairs(frontier[i], frontier[i + 1], bridges, lvl)
            nxt.append(merged)
            acc.msg(merged[0])
        if len(frontier) % 2:
            nxt.append(frontier[-1])
            acc.msg(frontier[-1][0])
        frontier = nxt
        profile.add(acc)
    return sorted(bridges), profile


# -- the skip-list backtracking tree (deletion proper) -----------------------


@dataclass
class LevelTree:
    level: int
    root: tuple[int, int]
    parents: dict[tuple[int, int], tuple[int, int]]
    leaves: list[int]
    depth: int
    right_of: dict[int, int]                 # level-lvl successor, sentinels included
    depth_map: dict[tuple[int, int], int]    # tree depth of every node

    def nodes(self):
        seen = set(self.parents)
        seen.add(self.root)
        return seen


def tree_formation(net: SkipNet, lvl: int, red: set[int]) -> LevelTree:
    """Shortest-path tree rooted at the left-topmost sentinel.

    Backtracking rule: at (v, l) go up if v reaches above l, else one hop
    left. Leaves are the level-l blacks with at least one red neighbor;
    sentinels count as permanent blacks.
    """
    top = net.height
    root = (LS, top)
    chain = [LS, *net.iter_level(lvl), RS]
    right_of = dict(zip(chain, chain[1:]))
    leaves = []
    for i, key in enumerate(chain):
        if key in red:
            continue
        if (i > 0 and chain[i - 1] in red) or (i + 1 < len(chain) and chain[i + 1] in red):
            leaves.append(key)
    parents: dict[tuple[int, int], tuple[int, int]] = {}
    limit = 2 * (len(net.heights) + top + 4)
    for leaf in leaves:
        cur = (leaf, lvl)
        hops = 0
        while cur != root and cur not in parents:
            key, l = cur
            if key == LS or net.height_of(key) > l:
                parent = (key, l + 1)
            else:
                parent = (net.left(key, l), l)
            parents[cur] = parent
            cur = parent
            hops += 1
            if hops > limit:
                raise OrphanLeaf(f"leaf {leaf} lost at level {lvl}")
    depth = {root: 0}

    def depth_of(node):
        trail = []
        while node not in depth:
            trail.append(node)
            node = parents[node]
        d = depth[node]
        for t in reversed(trail):
            d += 1
            depth[t] = d
        return d

    max_depth = max((depth_of((leaf, lvl)) for leaf in leaves), default=0)
    return LevelTree(lvl, root, parents, leaves, max_depth, right_of, depth)


def propagate_and_bridge(net: SkipNet, tree: LevelTree, red: set[int]
                         ) -> tuple[list[tuple[int, int]], WorkProfile]:
    """Flow boundary pairs leaves-to-root, forming one edge per red run."""
    lvl = tree.level
    right_of = tree.right_of
    children: dict[tuple[int, int], dict[str, tuple[int, int]]] = {}
    for node, parent in tree.parents.items():
        kind = "below" if parent[0] == node[0] else "right"
        children.setdefault(parent, {})[kind] = node
    leaf_set = set(tree.leaves)
    pair_at: dict[tuple[int, int], Pair] = {}
    bridges: list[tuple[int, int]] = []

    # fire(u): round at which u sends upward; leaves fire once their own
    # message exists, passthrough/merge nodes one round after their inputs.
    order = sorted(tree.parents, key=lambda n: -tree.depth_map[n])
    fire: dict[tuple[int, int], int] = {}
    rounds: defaultdict[int, RoundAcc] = defaultdict(RoundAcc)

    for node in order:
        key, l = node
        inputs: list[Pair] = []
        if l == lvl and key in leaf_set:
            nxt = right_of.get(key)
            prev = net.left(key, lvl) if key != LS else None
            inputs.append(_leaf_pair(key, prev in red, nxt in red))
        kids = children.get(node, {})
        when = 0
        if "below" in kids:
            inputs.append(pair_at[kids["below"]])
            when = max(when, fire[kids["below"]])
        if "right" in kids:
            inputs.append(pair_at[kids["right"]])
            when = max(when, fire[kids["right"]])
        pair = inputs[0]
        for other in inputs[1:]:
            pair = _merge_pairs(pair, other, bridges, lvl)
        pair_at[node] = pair
        fire[node] = when + 1
        rounds[when + 1].msg(key)

    # Root folds its inputs but sends nothing further. When the deletion
    # level is the top level, the root sentinel may itself be a leaf.
    kids = children.get(tree.root, {})
    inputs = []
    if tree.root[1] == lvl and tree.root[0] in leaf_set:
        inputs.append(_leaf_pair(LS, False, right_of.get(LS) in red))
    inputs += [pair_at[k] for k in (kids.get("below"), kids.get("right")) if k is not None]
    if inputs:
        pair = inputs[0]
        for other in inputs[1:]:
            pair = _merge_pairs(pair, other, bridges, lvl)
        if pair[1] or pair[3]:
            raise MessageShapeViolation(f"unmatched dot at root, level {lvl}")

    profile = WorkProfile()
    for rnd in range(1, max(rounds, default=0) + 1):
        profile.add(rounds.get(rnd, RoundAcc()))
    return sorted(bridges), profile


@dataclass
class DeleteSummary:
    reds_removed: int = 0
    bridge_edges_created: int = 0
    rounds_used: int = 0
    messages_used: int = 0


def delete_phase(net: SkipNet, reds) -> tuple[DeleteSummary, WorkProfile]:
    """Remove every red key from net at all levels in parallel."""
    reds_in = sorted(k for k in reds if k in net.heights)
    summary = DeleteSummary()
    profile = WorkProfile()
    if not reds_in:
        return summary, profile

    red_set = set(reds_in)
    per_level_bridges: dict[int, list[tuple[int, int]]] = {}
    for lvl in range(net.height + 1):
        at_level = {k for k in red_set if net.heights[k] >= lvl}
        if not at_level:
            continue
        tree = tree_formation(net, lvl, at_level)
        # formation backtracks one hop per round, in parallel from all leaves
        formation = WorkProfile()
        depth_map = tree.depth_map
        by_round: defaultdict[int, RoundAcc] = defaultdict(RoundAcc)
        for (key, _l), parent in tree.parents.items():
            by_round[tree.depth - depth_map[(key, _l)] + 1].msg(key)
        for rnd in range(1, max(by_round, default=0) + 1):
            formation.add(by_round.get(rnd, RoundAcc()))
        bridges, prop = propagate_and_bridge(net, tree, at_level)
        formation.append(prop)
        profile.merge(formation)
        per_level_bridges[lvl] = bridges

    # apply: bridge each red run, then drop the red towers
    acc = RoundAcc()
    for lvl, bridges in per_level_bridges.items():
        chain = [LS, *net.iter_level(lvl), RS]
        deleted = 0
        run = 0
        for key in chain:
            if key in red_set:
                run += 1
            elif run:
                deleted += run + 1
                run = 0
        for a, b in bridges:
            net._drop_pending(a, net.right(a, lvl), lvl)
            net.set_link(a, b, lvl)  # bridge repairs both clean and live
        acc.edges(formed=len(bridges), deleted=deleted)
        summary.bridge_edges_created += len(bridges)
    for key in reds_in:
        del net.links[key]
        del net.heights[key]
        net.live.discard(key)
    net.pending = {(l, a, b) for (l, a, b) in net.pending
                   if a not in red_set and b not in red_set}
    profile.rows.append(acc.seal())

    summary.reds_removed = len(reds_in)
    summary.rounds_used = profile.rounds
    summary.messages_used = profile.messages
    return summary, profile
