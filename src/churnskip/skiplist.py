"""Skip-list substrate shared by the live, clean, and buffer networks.

Keys are integer node ids. Sentinels are simulator-owned virtual anchors
encoded as integers outside the id space so that plain ``<`` ordering works
everywhere:

    LS < BUF_LS < real keys < BUF_RS < RS

The buffer's own sentinels (BUF_LS / BUF_RS) ride through a merge as
ordinary members and are unlinked at the end, per the merge protocol.

``SkipNet`` is the linked structure the distributed phases mutate, and
``search`` walks its live view, the network a query sees. ``oracle_build``
is the independent sequential construction every equivalence test
compares against (the sequential delete, insert and merge references, and
the plain walk, live in ``tests/``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import chain

from .errors import UnsortedInput
from .params import P

LS = -2
BUF_LS = -1
BUF_RS = 10 ** 18
RS = 10 ** 18 + 1

SENTINELS = frozenset((LS, BUF_LS, BUF_RS, RS))
_NAMES = {LS: "-inf", BUF_LS: "b-inf", BUF_RS: "b+inf", RS: "+inf"}


def key_name(key: int) -> str:
    return _NAMES.get(key, str(key))


def is_sentinel(key: int) -> bool:
    return key in SENTINELS


def sample_height(rng: random.Random) -> int:
    """Tower height: number of successful promotions before the first miss."""
    h = 0
    while rng.random() < P:
        h += 1
    return h


@dataclass
class ValidationReport:
    ok: bool
    code: str = "OK"
    key: int | None = None
    level: int | None = None

    def __str__(self):
        if self.ok:
            return "OK"
        where = f" key={key_name(self.key)}" if self.key is not None else ""
        where += f" level={self.level}" if self.level is not None else ""
        return f"{self.code}{where}"


class SkipNet:
    """Doubly linked skip list with per-port labels and live-membership flags.

    ``links[key][lvl] == [left, right]``. An edge label is "11" unless its
    canonical id is in ``pending`` ("10": present in the clean network but
    not yet promoted to live). "01" and "00" are unrepresentable by design.

    ``displaced`` is a simulator-side index of the live edges a merge
    displaced, not a protocol edge: the first ``splice_run`` at (lvl, v),
    with v the left sentinel or live, records v's right neighbour at that
    moment under ``(lvl, v)``. The live set does not change during a merge,
    so that neighbour stays v's live successor at lvl until the next update,
    and a live-view search reads it in O(1) instead of relaying through the
    pending keys spliced in since. Assigning ``live`` (as ``update_phase``
    does) clears the index; keys join the live set only that way. A key
    that leaves the live set (``unlink_tower``, the delete phase) leaves the
    index exact: a record naming it is no longer live, and ``search`` then
    relays.
    """

    __slots__ = ("tag", "heights", "links", "pending", "_live", "displaced")

    def __init__(self, tag: str = "C"):
        self.tag = tag
        self.heights: dict[int, int] = {}
        self.links: dict[int, list[list[int]]] = {
            LS: [[LS, RS]],
            RS: [[LS, RS]],
        }
        self.pending: set[tuple[int, int, int]] = set()
        self._live: set[int] = set()
        self.displaced: dict[tuple[int, int], int] = {}

    @property
    def live(self) -> set[int]:
        return self._live

    @live.setter
    def live(self, keys: set[int]) -> None:
        self._live = keys
        self.displaced.clear()

    # -- construction ------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.links[LS]) - 1

    def ensure_height(self, h: int) -> None:
        while self.height < h:
            self.links[LS].append([LS, RS])
            self.links[RS].append([LS, RS])

    def add_key(self, key: int, height: int) -> None:
        self.heights[key] = height
        self.links[key] = [[None, None] for _ in range(height + 1)]

    def __contains__(self, key: int) -> bool:
        return key in self.heights

    def __len__(self) -> int:
        return len(self.heights)

    # -- link access ---------------------------------------------------------

    def right(self, key: int, lvl: int) -> int:
        return self.links[key][lvl][1]

    def height_of(self, key: int) -> int:
        if key in (LS, RS):
            return self.height
        if key in (BUF_LS, BUF_RS):
            return self.heights.get(key, self.height)
        return self.heights[key]

    def set_link(self, a: int, b: int, lvl: int, pending: bool = False) -> None:
        """Make b the right neighbor of a at lvl (both port copies)."""
        self.links[a][lvl][1] = b
        self.links[b][lvl][0] = a
        if pending and not (is_sentinel(a) and is_sentinel(b)):
            self.pending.add((lvl, a, b))

    def edge_pending(self, a: int, b: int, lvl: int) -> bool:
        if a > b:
            a, b = b, a
        return (lvl, a, b) in self.pending

    def _drop_pending(self, a: int, b: int, lvl: int) -> None:
        if a > b:
            a, b = b, a
        self.pending.discard((lvl, a, b))

    def splice_run(self, v: int, members: list[int], z: int, lvl: int) -> int:
        """Insert sorted members between adjacent v and z as pending edges;
        returns new links."""
        if self.links[v][lvl][1] != z:
            raise ValueError(f"splice target not adjacent: {v}..{z} at {lvl}")
        self._drop_pending(v, z, lvl)
        if (lvl, v) not in self.displaced and (v == LS or v in self._live):
            self.displaced[(lvl, v)] = z
        links, marks = self.links, self.pending
        a = v
        for b in chain(members, (z,)):
            links[a][lvl][1] = b
            links[b][lvl][0] = a
            if a not in SENTINELS or b not in SENTINELS:
                marks.add((lvl, a, b))
            a = b
        return len(members) + 1

    def unlink_tower(self, key: int) -> int:
        """Remove key from every level, reconnecting its neighbors."""
        removed = 0
        for lvl, (left, right) in enumerate(self.links[key]):
            self._drop_pending(left, key, lvl)
            self._drop_pending(key, right, lvl)
            self.links[left][lvl][1] = right
            self.links[right][lvl][0] = left
            removed += 2
        del self.links[key]
        del self.heights[key]
        self.live.discard(key)
        return removed

    def iter_level(self, lvl: int):
        key = self.right(LS, lvl)
        while key != RS:
            yield key
            key = self.right(key, lvl)

    def level_list(self, lvl: int) -> list[int]:
        return list(self.iter_level(lvl))

    def same_height_runs(self) -> list[list[int]]:
        """The maximal runs of keys whose height equals the level, level by
        level from 0 up and left to right within a level."""
        heights, links = self.heights, self.links
        runs: list[list[int]] = []
        for lvl in range(self.height + 1):
            run: list[int] = []
            key = links[LS][lvl][1]
            while key != RS:
                if heights[key] == lvl:
                    run.append(key)
                elif run:
                    runs.append(run)
                    run = []
                key = links[key][lvl][1]
            if run:
                runs.append(run)
        return runs

    # -- comparisons and checks -----------------------------------------------

    def same_structure(self, other: "SkipNet") -> bool:
        if self.heights != other.heights:
            return False
        hi = max(self.height, other.height)
        for lvl in range(hi + 1):
            a = self.level_list(lvl) if lvl <= self.height else []
            b = other.level_list(lvl) if lvl <= other.height else []
            if a != b:
                return False
        return True

    def validate(self) -> ValidationReport:
        keys_by_height = sorted(self.heights)
        for key, h in self.heights.items():  # taller than the net: levels no walk reaches
            if h > self.height:
                return ValidationReport(False, "height-violation", key, h)
        for lvl in range(self.height + 1):
            expect = [k for k in keys_by_height if self.height_of(k) >= lvl]
            pos, seen = LS, []
            while True:
                nxt = self.links[pos][lvl][1]
                if len(self.links.get(nxt, ())) <= lvl:  # none, or a key below lvl
                    return ValidationReport(False, "missing-link", pos, lvl)
                if self.links[nxt][lvl][0] != pos:
                    return ValidationReport(False, "doubly-linked-violation", nxt, lvl)
                if nxt == RS:
                    break
                if seen and nxt <= seen[-1]:
                    return ValidationReport(False, "order-violation", nxt, lvl)
                seen.append(nxt)
                pos = nxt
            if seen != expect:
                bad = next((k for k in seen if k not in expect), seen[0] if seen else None)
                return ValidationReport(False, "membership-violation", bad, lvl)
        for lvl, a, b in self.pending:
            if lvl >= len(self.links.get(a, ())) or self.links[a][lvl][1] != b:
                return ValidationReport(False, "stale-label", a, lvl)
        return ValidationReport(True)

    def dump_lines(self):
        yield json.dumps({"net": self.tag, "height": self.height})
        for key in sorted(self.heights):
            rec = {
                "key": key_name(key),
                "height": self.heights[key],
                "levels": [
                    {
                        "left": key_name(l),
                        "right": key_name(r),
                        "label": "10" if self.edge_pending(key, r, lvl) else "11",
                    }
                    for lvl, (l, r) in enumerate(self.links[key])
                ],
                "live": key in self.live,
            }
            yield json.dumps(rec, separators=(",", ":"))


@dataclass
class SearchResult:
    found: bool
    h_moves: int
    v_moves: int
    stalled: bool = False

    @property
    def path_rounds(self) -> int:
        return self.h_moves + self.v_moves


def search(net: SkipNet, target: int, uncovered=frozenset()) -> SearchResult:
    """Top-down search of the live view from the left-topmost sentinel.

    One round per horizontal or vertical move. ``uncovered`` holds the keys
    that nobody (node or covering committee) can answer for; the search
    stalls on one, which callers count as a protocol failure.

    The walk only stands on live members, relaying through not-yet-promoted
    keys at the same level (mid-merge buffer residents have complete links
    at every level they have merged, so the relay chain is always
    walkable). Only a move right is charged, as one round per relay hop it
    crossed; the hops relayed before a move down or the final level-0
    answer are discarded and never charged. On a net whose keys are all
    live, such as a finished run's clean list, this is the plain skip-list
    walk (``tests/search_reference.reference_walk``).

    With ``uncovered`` empty nothing can stall, so the live successor is
    read from the displaced-edge index (see ``SkipNet``) instead of relaying
    to it. The relay is still walked to count the hops of a move right, and
    whenever the candidate is neither live nor ``RS``, which keeps nets with
    arbitrary live sets exact. Otherwise every relay key is checked, as the
    protocol would.
    """
    links = net.links
    live = net.live
    pos, lvl = LS, net.height
    h_moves = v_moves = 0
    while True:
        z, hops = links[pos][lvl][1], 1
        if z != RS and z not in live:
            if not uncovered:
                z = net.displaced.get((lvl, pos), z)
            if uncovered or (z != RS and (z < target or z not in live)):
                # relay to the first live key or RS right of pos
                z = links[pos][lvl][1]
                while z != RS and z not in live:
                    if z in uncovered:
                        return SearchResult(False, h_moves, v_moves, stalled=True)
                    z, hops = links[z][lvl][1], hops + 1
        if z < target and z != RS:
            if z in uncovered:
                return SearchResult(False, h_moves, v_moves, stalled=True)
            pos = z
            h_moves += hops
        elif lvl > 0:
            lvl -= 1
            v_moves += 1
        else:
            found = pos == target or z == target
            if found and z == target and z in uncovered:
                return SearchResult(False, h_moves, v_moves, stalled=True)
            return SearchResult(found, h_moves, v_moves)


# -- sequential oracles ------------------------------------------------------


def oracle_build(keys: list[int], heights: list[int]) -> SkipNet:
    """Reference construction: level l holds exactly the keys of height >= l."""
    if list(keys) != sorted(set(keys)):
        raise UnsortedInput("keys must be strictly increasing")
    if len(keys) != len(heights):
        raise UnsortedInput("heights length mismatch")
    net = SkipNet("oracle")
    top = max(heights, default=0)
    net.ensure_height(top)
    for k, h in zip(keys, heights):
        net.add_key(k, h)
    for lvl in range(top + 1):
        chain = [LS] + [k for k, h in zip(keys, heights) if h >= lvl] + [RS]
        for a, b in zip(chain, chain[1:]):
            net.set_link(a, b, lvl)
    return net
