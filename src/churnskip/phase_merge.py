"""Wave merge: a pipelined top-down traversal that splices the buffer
skip list into the clean one, cohesive group by cohesive group.

Preprocessing identifies maximal equal-height runs (cohesive groups), elects
their minimum-key leaders, and wires the parent/children relation (nearest
taller neighbor on each side). The single top-level group then descends the
clean list; groups split cleanly at key thresholds, idle nodes track their
parents' traces ("virtual walking") and activate once each parent has either
merged down to the node's own level or provably diverged from its key.

A merge event reads as the tuple ``(cycle, round, group_leader, event,
level, *detail)``. A run keeps every event, so a ``MergeLog`` packs them in
typed arrays, with no Python object per event, and yields the tuples when
iterated. ``event_record`` names the detail fields and renders the event
as the dict that ``merge_events.jsonl`` writes.
"""

from __future__ import annotations

import math
from array import array
from bisect import insort
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import attrgetter

from .errors import SPLICE_CONFLICT, ChurnSkipError, MalformedBuffer
from .skiplist import BUF_LS, BUF_RS, LS, RS, SENTINELS, SkipNet
from .work import RoundWork, sends_row, uniform_round


class SpliceConflict(ChurnSkipError):
    kind = SPLICE_CONFLICT


@dataclass(slots=True)
class CohesiveGroup:
    members: list[int]            # sorted; leader is members[0]
    level: int                    # current working level in C
    pos: int                      # C key the group stands at (height >= level)
    top: int = 0                  # members' height; no splicing above it
    state: str = "traverse"       # traverse | merge | wait | blocked | done
    delay: int = 0                # rounds to sit out (leader handoff)
    born: int = 0                 # engine round of activation
    splits: int = 0               # lineage split count (for the time audit)
    # members[0]: a split keeps the prefix, so the leader never changes
    leader: int = field(init=False)

    def __post_init__(self):
        self.leader = self.members[0]


_by_leader = attrgetter("leader")


@dataclass(slots=True)
class _Walk:
    key: int
    height: int
    lp: int | None
    rp: int | None
    vpos: int = LS
    vlevel: int = 0
    indep_lp: bool = False
    indep_rp: bool = False


# the detail fields of each event kind, in the order _emit takes them
EVENT_DETAIL = {"move_right": ("to",), "split": ("new_leader", "at", "z"),
                "merged_at_level": ("left", "right")}
# the event kinds, by their code in a MergeLog
EVENT_KINDS = ("move_right", "split", "merged_at_level", "move_down", "done")
EVENT_CODE = {kind: code for code, kind in enumerate(EVENT_KINDS)}
_DETAILS = tuple(len(EVENT_DETAIL.get(kind, ())) for kind in EVENT_KINDS)


class MergeLog:
    """Merge events in typed arrays, one entry per event in each of rounds,
    leaders, kinds (an ``EVENT_CODE``) and levels, and each kind's details
    in one flat array. The cycle is kept once per cycle: ``open_cycle``
    marks where its events start. Iterating yields each event as the tuple
    ``(cycle, round, group_leader, event, level, *detail)``."""

    __slots__ = ("cycles", "starts", "rounds", "leaders", "kinds", "levels",
                 "details")

    def __init__(self):
        self.cycles = array("q")
        self.starts = array("q")
        self.rounds = array("i")
        self.leaders = array("q")   # BUF_RS, 10**18, can lead a group
        self.kinds = array("b")
        self.levels = array("h")
        self.details = array("q")

    def open_cycle(self, cycle: int) -> None:
        """The events appended from now on are of cycle `cycle`."""
        self.cycles.append(cycle)
        self.starts.append(len(self.kinds))

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[tuple]:
        events = zip(self.rounds, self.leaders, self.kinds, self.levels)
        details = iter(self.details)
        ends = chain(islice(self.starts, 1, None), (len(self.kinds),))
        for cycle, start, end in zip(self.cycles, self.starts, ends):
            for rnd, leader, code, level in islice(events, end - start):
                yield (cycle, rnd, leader, EVENT_KINDS[code], level,
                       *islice(details, _DETAILS[code]))


def event_record(e: tuple) -> dict:
    """A merge event as the dict ``merge_events.jsonl`` writes, keys in the
    order cycle, round, group_leader, event, level, then the details."""
    cycle, rnd, leader, event, level, *detail = e
    rec = {"cycle": cycle, "round": rnd, "group_leader": leader,
           "event": event, "level": level}
    rec.update(zip(EVENT_DETAIL.get(event, ()), detail))
    return rec


@dataclass
class Preprocessed:
    groups: list[list[int]]                 # all maximal runs, every level
    parents: dict[int, tuple[int | None, int | None]]
    # each parent's children; the wave drops a child once it activates
    children: dict[int, list[int]]
    fanout: dict[int, int]                  # len(children[u]) as wired
    top_members: list[int]
    rows: list[RoundWork]


def preprocess(buf: SkipNet) -> Preprocessed:
    """Group identification, leader election, parent discovery, state init."""
    heights, links = buf.heights, buf.links
    if not heights or BUF_LS not in heights:
        raise MalformedBuffer("buffer lacks its sentinels")
    groups = buf.same_height_runs()
    parents: dict[int, tuple[int | None, int | None]] = {}
    children: dict[int, list[int]] = {}
    for g in groups:
        h = heights[g[0]]
        lp = links[g[0]][h][0]
        rp = links[g[-1]][h][1]
        lp = None if lp == LS else lp
        rp = None if rp == RS else rp
        pair = (lp, rp)
        for key in g:
            parents[key] = pair
        if lp is not None:
            children.setdefault(lp, []).extend(g)
        if rp is not None:
            children.setdefault(rp, []).extend(g)
    top_members = buf.level_list(buf.height)

    # ID stream hops one step leftward: in round r every key after the first
    # r + 1 of its group sends once, so the row is uniform_round over those
    # keys, led by g[r + 1] of the first group g longer than r + 1
    lengths = [len(g) for g in groups]
    of_length = Counter(lengths)
    sending = sum(lengths) - len(groups)    # keys sending in round 0
    longer = len(groups) - of_length[1]     # groups with a key sending
    rows = [] if sending else [RoundWork()]
    first = 0
    for r in range(max(lengths) - 1):
        while lengths[first] <= r + 1:
            first += 1
        rows.append(RoundWork(sending, 0, 0, 1, groups[first][r + 1]))
        sending -= longer
        longer -= of_length[r + 2]
    rows.append(sends_row({g[0]: len(g) - 1 for g in groups},    # leader announcement
                          formed=sum(len(g) * (len(g) - 1) // 2 for g in groups)))
    rows.append(uniform_round(parents, 2))     # parent discovery
    rows.append(uniform_round(top_members))   # state init
    fanout = dict(zip(children, map(len, children.values())))
    return Preprocessed(groups, parents, children, fanout, top_members, rows)


@dataclass
class MergeSummary:
    groups: int = 0
    splits: int = 0
    preprocess_rounds: int = 0
    wave_rounds: int = 0


class WaveEngine:
    """Round-stepped execution of the merge wave over (clean, buffer).

    A merged key's tower moves from the buffer into clean, so the buffer is
    spent once the wave has started: only its unmerged keys stay its own.
    """

    def __init__(self, clean: SkipNet, buf: SkipNet, cycle: int = 0,
                 events: MergeLog | None = None):
        self.clean = clean
        self.buf = buf
        self.cycle = cycle
        # the run's log, when given: each event is written once, into it
        self.events = MergeLog() if events is None else events
        self.events.open_cycle(cycle)
        self.pre = preprocess(buf)
        self.parents = self.pre.parents
        self.children = self.pre.children
        self.fanout = self.pre.fanout
        clean.ensure_height(buf.height)
        parents = self.parents
        self.walks: dict[int, _Walk] = {
            key: _Walk(key, h, *parents.get(key, (None, None)), vlevel=h)
            for key, h in buf.heights.items()}
        # the top members have no parents, so no children list holds them
        top_group = CohesiveGroup(list(self.pre.top_members), buf.height, LS,
                                  top=buf.height)
        self.idle = len(self.walks) - len(top_group.members)
        self.active: list[CohesiveGroup] = [top_group]   # ordered by leader
        self.merged_level: dict[int, int] = {}
        self.round = 0
        # this round's messages per sending key, and its edge counts
        self._sends: dict[int, int] = {}
        self._formed = self._deleted = 0
        self.group_spans: list[tuple[CohesiveGroup, int, int]] = []
        self.summary = MergeSummary(groups=1, preprocess_rounds=len(self.pre.rows))
        self.absorbed = False
        self._ready: set[int] = set()
        # blocker key -> the group waiting for it. A group blocked by v
        # waits at level merged_level[v], just right of v, so v blocks at
        # most one group at a time
        self._blocked: dict[int, CohesiveGroup] = {}

    # -- events --------------------------------------------------------------

    def _emit(self, leader: int, event: str, level: int, *detail: int) -> None:
        log = self.events
        log.rounds.append(self.round)
        log.leaders.append(leader)
        log.kinds.append(EVENT_CODE[event])
        log.levels.append(level)
        log.details.extend(detail)

    # -- virtual walking -------------------------------------------------------

    def _notify(self, members, v, z, right: bool, level: int) -> None:
        """Each member tells its children that it moved right to z, or down
        from the gap (v, z) at level. With v None, each member u tells of
        its own gap, (u, its right neighbour at level). A member messages
        every child it was wired to; only the idle ones are left to visit."""
        walks, sends, children = self.walks, self._sends, self.children
        fanout = self.fanout
        own = v is None
        links = self.clean.links
        for u in members:
            fan = fanout.get(u)
            if fan is None:
                continue
            if u not in SENTINELS:
                sends[u] = sends.get(u, 0) + fan
            kids = children[u]
            if not kids:
                continue
            if own:
                v, z = u, links[u][level][1]
            for c in kids:
                walk = walks[c]
                # advance the virtual walk to the trace key left of c; below
                # its own splice entry level the walk stops
                key = z if z < c else v if v < c else None
                if key is not None and level >= walk.height and \
                        (key > walk.vpos or (key == walk.vpos and level < walk.vlevel)):
                    walk.vpos = key
                    walk.vlevel = level
                # right: u moves past c; down: u's remaining corridor is
                # left of z. Either way c no longer depends on u. Readiness
                # changes only when a flag turns on.
                if (z > c) if right else (z < c):
                    freed = False
                    if u == walk.lp and not walk.indep_lp:
                        walk.indep_lp = freed = True
                    if u == walk.rp and not walk.indep_rp:
                        walk.indep_rp = freed = True
                    if freed:
                        self._maybe_ready(c)

    def _notify_merged(self, members, level) -> None:
        sends, fanout = self._sends, self.fanout
        merged, blocked = self.merged_level, self._blocked
        for u in members:
            merged[u] = level
            waiting = blocked.pop(u, None)
            if waiting is not None:
                waiting.state = "wait"   # re-checked in its own turn
            fan = fanout.get(u)
            if fan and u not in SENTINELS:
                sends[u] = sends.get(u, 0) + fan
        # merging at `level` satisfies only the idle children reaching down
        # to it
        walks, children = self.walks, self.children
        for u in members:
            for c in children.get(u, ()):
                if walks[c].height >= level:
                    self._maybe_ready(c)

    def _parent_ok(self, walk: _Walk, parent: int | None, indep: bool) -> bool:
        if parent is None:
            return True
        if indep:
            return True
        merged = self.merged_level.get(parent)
        return merged is not None and merged <= walk.height

    def _maybe_ready(self, key: int) -> None:
        walk = self.walks[key]
        if self._parent_ok(walk, walk.lp, walk.indep_lp) and \
                self._parent_ok(walk, walk.rp, walk.indep_rp):
            self._ready.add(key)

    def _activate_ready(self) -> None:
        if not self._ready:
            return
        # only idle children are notified, so every ready key is idle
        ready, self._ready = self._ready, set()
        used: set[int] = set()
        for key in sorted(ready):
            if key in used:
                continue
            walk = self.walks[key]
            members = [key]
            used.add(key)
            cur = key
            h = walk.height
            while True:
                nxt = self.buf.right(cur, h)
                if nxt in used or nxt not in self.walks:
                    break
                other = self.walks[nxt]
                if other.height != h or nxt not in ready:
                    break
                if (other.vpos, other.vlevel) != (walk.vpos, walk.vlevel):
                    break
                members.append(nxt)
                used.add(nxt)
                cur = nxt
            group = CohesiveGroup(members, walk.vlevel, walk.vpos, top=h,
                                  born=self.round)
            # an activated key leaves its parents' children lists, which
            # so hold only the idle walks left to notify
            children = self.children
            for m in members:
                mw = self.walks[m]
                if mw.lp is not None:
                    children[mw.lp].remove(m)
                if mw.rp is not None:
                    children[mw.rp].remove(m)
            self.idle -= len(members)
            insort(self.active, group, key=_by_leader)
            self.summary.groups += 1

    # -- group actions ---------------------------------------------------------

    def _do_traverse(self, g: CohesiveGroup) -> None:
        v = g.pos
        z = self.clean.right(v, g.level)
        movers = [m for m in g.members if m > z]
        if movers:
            # split dichotomy: a single key threshold cuts prefix from suffix
            assert movers == g.members[len(g.members) - len(movers):]
        if g.leader not in SENTINELS:   # leader broadcasts z
            sends = self._sends
            sends[g.leader] = sends.get(g.leader, 0) + len(g.members)
        if movers and len(movers) == len(g.members):
            self._emit(g.leader, "move_right", g.level, z)
            self._notify(g.members, v, z, True, g.level)
            g.pos = z
        elif movers:
            stay = [m for m in g.members if m < z]
            right = CohesiveGroup(movers, g.level, z, top=g.top, delay=2,
                                  born=self.round, splits=g.splits + 1)
            self._emit(g.leader, "split", g.level, right.leader, v, z)
            self._notify(stay, v, z, False, g.level)
            self._notify(movers, v, z, True, g.level)
            g.members = stay
            g.splits += 1
            g.state = "merge" if g.level <= g.top else "descend"
            insort(self.active, right, key=_by_leader)
            self.summary.groups += 1
            self.summary.splits += 1
        else:
            self._notify(g.members, v, z, False, g.level)
            g.state = "merge" if g.level <= g.top else "descend"
        if g.state == "descend":
            # above the members' own height there is nothing to splice;
            # the group just rides the search path downward
            g.level -= 1
            g.state = "traverse"
            self._emit(g.leader, "move_down", g.level)

    def _do_merge(self, g: CohesiveGroup) -> None:
        v, lvl = g.pos, g.level
        z = self.clean.right(v, lvl)
        if g.members[-1] > z:
            # a faster group spliced into our gap since the traversal
            # decision; re-read and re-decide, as the leader would
            g.state = "traverse"
            self._do_traverse(g)
            return
        # at its first splice, at its own height, a member's tower moves
        # over from the buffer; the levels below are rewired as it descends
        heights, links = self.clean.heights, self.clean.links
        for m in g.members:
            if m not in heights:
                heights[m] = self.buf.heights[m]
                links[m] = self.buf.links[m]
        formed = self.clean.splice_run(v, g.members, z, lvl)
        self._formed += formed
        self._deleted += 1
        # the group waiting just right of v, at this level, has a new left
        # neighbour
        waiting = self._blocked.get(v)
        if waiting is not None and waiting.level == lvl:
            del self._blocked[v]
            waiting.state = "wait"   # re-checked in its own turn
        self._emit(g.leader, "merged_at_level", lvl, v, z)
        self._notify(g.members, None, None, False, lvl)
        self._notify_merged(g.members, lvl)
        if lvl == 0:
            g.state = "done"
            self._emit(g.leader, "done", 0)
            self.group_spans.append((g, g.born, self.round))
        else:
            g.state = "wait"
            self._try_descend(g)

    def _try_descend(self, g: CohesiveGroup) -> None:
        v = self.clean.links[g.leader][g.level][0]
        if v in self.walks and self.merged_level.get(v, g.level) >= g.level:
            # v has not merged below this level yet. The group sleeps until
            # v merges or a splice at v gives the leader another left
            # neighbour; each wakes it to be re-checked in its own turn
            assert v not in self._blocked, "a key blocks two groups"
            g.state = "blocked"
            self._blocked[v] = g
            return
        g.level -= 1
        g.pos = v
        g.state = "traverse"
        self._emit(g.leader, "move_down", g.level)

    # -- rounds -----------------------------------------------------------------

    def step(self) -> RoundWork:
        self._sends = {}
        self._formed = self._deleted = 0
        self.round += 1
        # groups split off in this round act from the next one
        for g in list(self.active):
            state = g.state
            if state == "done" or state == "blocked":
                continue
            if g.delay:
                g.delay -= 1
                continue
            if state == "wait":
                self._try_descend(g)   # a descent traverses from the next round
            elif state == "merge":
                self._do_merge(g)
            elif state == "traverse":
                self._do_traverse(g)
        self.active = [g for g in self.active if g.state != "done"]
        self._activate_ready()
        if not self.active and not self.idle:
            removed = 0
            for key in (BUF_LS, BUF_RS):
                if key in self.clean.heights:
                    removed += self.clean.unlink_tower(key)
            self._formed += 2 * (self.buf.height + 1)
            self._deleted += removed
            self.absorbed = True
        return sends_row(self._sends, self._formed, self._deleted)

    def rounds(self) -> Iterator[RoundWork]:
        """Step the wave until the buffer is absorbed, yielding each round's
        work; sets the summary's wave_rounds once the wave is done."""
        guard = 200 * (self.buf.height + math.ceil(math.log2(len(self.clean) + 4)) + 4)
        while not self.absorbed:
            if self.round > guard:
                raise SpliceConflict("wave failed to converge")
            yield self.step()
        self.summary.wave_rounds = self.round


def wave_merge(clean: SkipNet, buf: SkipNet
               ) -> tuple[MergeSummary, list[RoundWork], MergeLog]:
    """Run the whole merge phase; clean is mutated into the union."""
    engine = WaveEngine(clean, buf)
    rows = [*engine.pre.rows, *engine.rounds()]
    return engine.summary, rows, engine.events
