"""Batch deletion of committee-covered ("red") nodes from the clean network.

Every level runs independently: black nodes adjacent to reds become leaves
of a tree rooted at the left-topmost sentinel, dotted boundary pairs flow
upward, and an edge is formed between two boundary nodes exactly when their
facing dots meet, bridging each maximal red run. The same message discipline
is reused by buffer creation to rewire fill-in nodes, there over a balanced
tree on the level chain (see bridge_chain).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .errors import MESSAGE_SHAPE_VIOLATION, ChurnSkipError
from .skiplist import LS, SkipNet
from .work import RoundWork, WorkProfile


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
                 ) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """Run the boundary-message protocol over a balanced tree on a chain.

    chain includes both sentinels (permanent blacks). Used by buffer-level
    rewiring, where every position is still present so the chain itself is
    the communication structure; pairwise merging halves it each round.
    Returns the bridges and, per round, the keys that send in it.
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


# -- the skip-list backtracking tree (deletion proper) -----------------------


@dataclass
class LevelTree:
    level: int
    root: tuple[int, int]
    parents: dict[tuple[int, int], tuple[int, int]]
    leaves: list[int]
    depth: int
    layers: list[list[tuple[int, int]]]   # tree nodes by depth, in formation order


def tree_formation(net: SkipNet, lvl: int, red: set[int]) -> LevelTree:
    """Shortest-path tree rooted at the left-topmost sentinel.

    Backtracking rule: at (v, l) go up if v reaches above l, else one hop
    left. Leaves are the level-l blacks with at least one red neighbor,
    found from the reds themselves; sentinels count as permanent blacks.
    """
    top = net.height
    root = (LS, top)
    links = net.links
    leaves = sorted({side for key in red for side in links[key][lvl] if side not in red})
    parents: dict[tuple[int, int], tuple[int, int]] = {}
    depth_of = {root: 0}
    layers: list[list[tuple[int, int]]] = [[root]]
    limit = 2 * (len(net.heights) + top + 4)
    for leaf in leaves:
        cur = (leaf, lvl)
        trail = []
        while cur not in depth_of:
            key, l = cur
            if key == LS or net.height_of(key) > l:
                parent = (key, l + 1)
            else:
                parent = (links[key][l][0], l)
            parents[cur] = parent
            trail.append(cur)
            cur = parent
            if len(trail) > limit:
                raise OrphanLeaf(f"leaf {leaf} lost at level {lvl}")
        d = depth_of[cur] + len(trail)
        layers.extend([] for _ in range(d + 1 - len(layers)))
        for node in trail:
            depth_of[node] = d
            layers[d].append(node)
            d -= 1
    return LevelTree(lvl, root, parents, leaves, len(layers) - 1, layers)


def propagate_and_bridge(net: SkipNet, tree: LevelTree, red: set[int]
                         ) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """Flow boundary pairs leaves-to-root, forming one edge per red run.

    Returns the bridges and, per round, the keys that send in it. A node
    sends one round after the later of its inputs; a leaf's own pair is
    ready at once.
    """
    lvl = tree.level
    links = net.links
    below: dict[tuple[int, int], tuple[int, int]] = {}
    right: dict[tuple[int, int], tuple[int, int]] = {}
    for node, parent in tree.parents.items():
        if parent[0] == node[0]:
            below[parent] = node
        else:
            right[parent] = node
    leaf_set = set(tree.leaves)
    pair_at: dict[tuple[int, int], Pair] = {}
    fire: dict[tuple[int, int], int] = {}
    senders: list[list[int]] = []
    bridges: list[tuple[int, int]] = []

    def fold(node) -> tuple[Pair | None, int]:
        key, l = node
        pair = None
        when = 0
        if l == lvl and key in leaf_set:
            left, nxt = links[key][lvl]
            pair = _leaf_pair(key, left in red, nxt in red)
        for kids in (below, right):
            kid = kids.get(node)
            if kid is not None:
                other = pair_at[kid]
                pair = other if pair is None else _merge_pairs(pair, other, bridges, lvl)
                when = max(when, fire[kid])
        return pair, when

    for layer in reversed(tree.layers[1:]):
        for node in layer:
            pair_at[node], when = fold(node)
            fire[node] = when + 1
            if when == len(senders):
                senders.append([])
            senders[when].append(node[0])

    # Root folds its inputs but sends nothing further. When the deletion
    # level is the top level, the root sentinel may itself be a leaf.
    pair, _ = fold(tree.root)
    if pair is not None and (pair[1] or pair[3]):
        raise MessageShapeViolation(f"unmatched dot at root, level {lvl}")
    return sorted(bridges), senders


@dataclass
class DeleteSummary:
    reds_removed: int = 0
    bridge_edges_created: int = 0
    rounds_used: int = 0
    messages_used: int = 0


def delete_phase(net: SkipNet, reds) -> tuple[DeleteSummary, WorkProfile]:
    """Remove every red key from net at all levels in parallel.

    Work scales with the reds: each level tree is found from the reds at
    that level, and no level is walked.
    """
    reds_in = sorted(k for k in reds if k in net.heights)
    summary = DeleteSummary()
    profile = WorkProfile()
    if not reds_in:
        return summary, profile

    red_set = set(reds_in)
    # per round, how many messages each key sends in it over all levels
    sent: list[Counter] = []
    per_level: list[tuple[int, list[tuple[int, int]]]] = []
    at_level = reds_in
    for lvl in range(net.height + 1):
        at_level = [k for k in at_level if net.heights[k] >= lvl]
        if not at_level:
            break
        level_red = set(at_level)
        tree = tree_formation(net, lvl, level_red)
        bridges, prop = propagate_and_bridge(net, tree, level_red)
        # formation backtracks one hop per round, in parallel from all
        # leaves: the deepest nodes send first
        formation = [map(itemgetter(0), layer) for layer in reversed(tree.layers[1:])]
        for i, keys in enumerate(formation + prop):
            if i == len(sent):
                sent.append(Counter())
            sent[i].update(keys)
        per_level.append((len(at_level), bridges))
    # a key sends at most once per round in one level tree (its tree nodes
    # form a vertical chain), but in several trees at once
    for counts in sent:
        busiest, peak = max(counts.items(), key=itemgetter(1))
        profile.rows.append(RoundWork(counts.total(), 0, 0, peak, busiest))

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
    profile.rows.append(RoundWork(0, formed, deleted))

    summary.reds_removed = len(reds_in)
    summary.bridge_edges_created = formed
    summary.rounds_used = profile.rounds
    summary.messages_used = profile.messages
    return summary, profile
