"""The level-walking delete phase and the boundary-pair fold, kept as the
reference.

``churnskip.phase_delete`` finds each level tree from the reds and charges
its rows in closed form. This is the code it replaced: every level is
walked twice (once for the leaves, once to count deleted edges), each tree
node gets its own dict of children, and every round is a ``RoundAcc``.
Both must give the same bridges, the same structure and the same rows.

Here the boundary messages carry the paper's dotted pairs, and the bridges
are worked out by merging them (``_merge_pairs``), which raises
``MessageShapeViolation`` when two facing dots disagree. The package reads
the bridges off the red runs instead (``phase_delete.red_runs``): when
every link is doubly linked, which ``SkipNet.validate`` checks, facing dots
always agree and the merge finds the same bridges. ``fold_pairs`` is the
same merge over a balanced tree on a chain's leaves, the fold that
``phase_buffer.halving_rounds`` charges in closed form.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from churnskip.errors import ChurnSkipError
from churnskip.phase_delete import DeleteSummary, OrphanLeaf
from churnskip.skiplist import LS, RS, SkipNet
from churnskip.work import RoundWork
from work_reference import RoundAcc, pad


class MessageShapeViolation(ChurnSkipError):
    kind = "MessageShapeViolation"


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
    leaves, given left to right: neighbouring subtrees merge pairwise,
    halving the frontier each round. Returns the bridges, in no particular
    order, and per round the keys that send in it.
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


def leaf_pair(key: int, left_red: bool, right_red: bool) -> Pair:
    """The boundary message a black leaf sends: itself at both ends,
    dotted on each side that has a red neighbour."""
    return (key, left_red, key, right_red)


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


@dataclass
class LevelTree:
    level: int
    root: tuple[int, int]
    parents: dict[tuple[int, int], tuple[int, int]]
    leaves: list[int]
    depth: int
    right_of: dict[int, int]                 # level-lvl successor, sentinels included
    depth_map: dict[tuple[int, int], int]    # tree depth of every node


def tree_formation(net: SkipNet, lvl: int, red: set[int]) -> LevelTree:
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
                parent = (net.links[key][l][0], l)
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
                         ) -> tuple[list[tuple[int, int]], list[RoundWork]]:
    lvl = tree.level
    right_of = tree.right_of
    children: dict[tuple[int, int], dict[str, tuple[int, int]]] = {}
    for node, parent in tree.parents.items():
        kind = "below" if parent[0] == node[0] else "right"
        children.setdefault(parent, {})[kind] = node
    leaf_set = set(tree.leaves)
    pair_at: dict[tuple[int, int], Pair] = {}
    bridges: list[tuple[int, int]] = []
    order = sorted(tree.parents, key=lambda n: -tree.depth_map[n])
    fire: dict[tuple[int, int], int] = {}
    rounds: defaultdict[int, RoundAcc] = defaultdict(RoundAcc)

    for node in order:
        key, l = node
        inputs: list[Pair] = []
        if l == lvl and key in leaf_set:
            nxt = right_of.get(key)
            prev = net.links[key][lvl][0] if key != LS else None
            inputs.append(leaf_pair(key, prev in red, nxt in red))
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

    kids = children.get(tree.root, {})
    inputs = []
    if tree.root[1] == lvl and tree.root[0] in leaf_set:
        inputs.append(leaf_pair(LS, False, right_of.get(LS) in red))
    inputs += [pair_at[k] for k in (kids.get("below"), kids.get("right")) if k is not None]
    if inputs:
        pair = inputs[0]
        for other in inputs[1:]:
            pair = _merge_pairs(pair, other, bridges, lvl)
        if pair[1] or pair[3]:
            raise MessageShapeViolation(f"unmatched dot at root, level {lvl}")

    rows = [rounds.get(rnd, RoundAcc()).seal()
            for rnd in range(1, max(rounds, default=0) + 1)]
    return sorted(bridges), rows


def _overlay(rows: list[RoundWork], other: list[RoundWork]) -> None:
    """Add another level's rows round for round, keeping the larger of
    the two per-level peaks (the accounting the closed form replaced)."""
    pad(rows, len(other))
    for mine, theirs in zip(rows, other):
        mine.messages += theirs.messages
        mine.edges_formed += theirs.edges_formed
        mine.edges_deleted += theirs.edges_deleted
        if theirs.max_node_messages > mine.max_node_messages:
            mine.max_node_messages = theirs.max_node_messages
            mine.busiest = theirs.busiest


def delete_phase(net: SkipNet, reds) -> tuple[DeleteSummary, list[RoundWork], dict]:
    """Returns the summary, the rows and each level's bridges."""
    reds_in = sorted(k for k in reds if k in net.heights)
    summary = DeleteSummary()
    rows: list[RoundWork] = []
    if not reds_in:
        return summary, rows, {}

    red_set = set(reds_in)
    per_level_bridges: dict[int, list[tuple[int, int]]] = {}
    for lvl in range(net.height + 1):
        at_level = {k for k in red_set if net.heights[k] >= lvl}
        if not at_level:
            continue
        tree = tree_formation(net, lvl, at_level)
        depth_map = tree.depth_map
        by_round: defaultdict[int, RoundAcc] = defaultdict(RoundAcc)
        for (key, _l), parent in tree.parents.items():
            by_round[tree.depth - depth_map[(key, _l)] + 1].msg(key)
        formation = [by_round.get(rnd, RoundAcc()).seal()
                     for rnd in range(1, max(by_round, default=0) + 1)]
        bridges, prop = propagate_and_bridge(net, tree, at_level)
        _overlay(rows, formation + prop)
        per_level_bridges[lvl] = bridges

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
            net.set_link(a, b, lvl)
        acc.edges(formed=len(bridges), deleted=deleted)
        summary.bridge_edges_created += len(bridges)
    for key in reds_in:
        del net.links[key]
        del net.heights[key]
        net.live.discard(key)
    net.pending = {(l, a, b) for (l, a, b) in net.pending
                   if a not in red_set and b not in red_set}
    rows.append(acc.seal())

    summary.reds_removed = len(reds_in)
    return summary, rows, per_level_bridges


def sender_counts(net: SkipNet, reds) -> list[Counter]:
    """Per round of the formation and propagation rows, how many messages
    each key sends over all level trees, recounted node by node. A tree
    node at depth d sends in formation round depth - d; in propagation it
    sends one round after the later of its children (first if it has none)."""
    counts: list[Counter] = []
    red_set = {k for k in reds if k in net.heights}
    for lvl in range(net.height + 1):
        at_level = {k for k in red_set if net.heights[k] >= lvl}
        if not at_level:
            break
        tree = tree_formation(net, lvl, at_level)
        kids = defaultdict(list)
        for node, parent in tree.parents.items():
            kids[parent].append(node)
        fire: dict = {}

        def fire_of(node):
            if node not in fire:
                fire[node] = 1 + max(map(fire_of, kids[node]), default=0)
            return fire[node]

        for node in tree.parents:
            for i in (tree.depth - tree.depth_map[node], tree.depth + fire_of(node) - 1):
                while len(counts) <= i:
                    counts.append(Counter())
                counts[i][node[0]] += 1
    return counts
