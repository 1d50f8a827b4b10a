"""The live-view search as a plain relay walk, kept as the reference.

``churnskip.skiplist.search`` reads a live member's successor from the
displaced-edge index instead of relaying to it key by key. This is the walk
it replaced: every relay key is visited and checked, and the level-0 run is
scanned a second time for the answer. Both must give equal ``SearchResult``s
for every net, live set, target and ``representable``. The walk also
records its path, the ``(key, level)`` it stands on after each move, which
``search`` does not build.
"""

from churnskip.skiplist import LS, RS, SearchResult, is_sentinel


def reference_search(net, target, representable=None, live_view=False):
    return reference_walk(net, target, representable, live_view)[0]


def reference_walk(net, target, representable=None, live_view=False):
    """(the ``SearchResult``, the path) of the plain relay walk."""
    pos, lvl = LS, net.height
    h_moves = v_moves = 0
    path = [(pos, lvl)]
    stalled = [False]

    def reachable(key):
        if representable is not None and not is_sentinel(key) \
                and not representable(key):
            stalled[0] = True
            return False
        return True

    def next_member(p, l):
        z = net.right(p, l)
        hops = 1
        while live_view and z != RS and z not in net.live:
            if not reachable(z):
                return z, hops
            z = net.right(z, l)
            hops += 1
        return z, hops

    while True:
        z, hops = next_member(pos, lvl)
        if stalled[0]:
            return SearchResult(False, h_moves, v_moves, stalled=True), path
        if z < target and z != RS:
            if not reachable(z):
                return SearchResult(False, h_moves, v_moves, stalled=True), path
            pos = z
            h_moves += hops
            path.append((pos, lvl))
        elif lvl > 0:
            lvl -= 1
            v_moves += 1
            path.append((pos, lvl))
        else:
            z, _ = next_member(pos, 0)
            found = pos == target or z == target
            if found and z == target and not reachable(z):
                return SearchResult(False, h_moves, v_moves, stalled=True), path
            return SearchResult(found, h_moves, v_moves, stalled=stalled[0]), path
