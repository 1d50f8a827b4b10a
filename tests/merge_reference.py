"""The merge wave that re-checks readiness after every advance, kept as
the reference.

``churnskip.phase_merge.WaveEngine`` re-checks an idle walk's readiness
only when it can change: when an independence flag turns on, or when a
parent merges at or below the walk's height. It counts the idle walks and
keeps the active groups ordered by leader. This is the engine it replaced:
every notification re-checks the child, every step scans all walks and
sorts the active groups, and a waiting group polls ``_try_descend`` every
round. ``preprocess`` is the one it replaced too, which walks the levels
through ``SkipNet.iter_level`` and ``height_of``. Both must give the same
preprocessing (groups, parents, children, rows), events, rows, summary,
group spans, structure and labels.

``MERGE_NARRATIVE`` is the worked merge instance's event narrative, which
the tests check the wave's events against.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from churnskip.errors import MalformedBuffer
from churnskip.phase_merge import CohesiveGroup, MergeSummary, Preprocessed, SpliceConflict
from churnskip.skiplist import BUF_LS, BUF_RS, LS, RS, SkipNet, is_sentinel
from churnskip.work import RoundWork, sends_row, uniform_round
from work_reference import RoundAcc

# Frozen event narrative for ``fixtures.merge_instance``: (event, leader,
# level) subsequence that any conforming run must produce in this order,
# derived from the protocol description independently of
# ``fixtures.MERGE_GOLDEN_TRACE``.
MERGE_NARRATIVE = [
    ("split", "b-inf", 3),            # top group splits on z=13
    ("merged_at_level", "b-inf", 3),  # left sentinel merges ahead of 13
    ("merged_at_level", "23", 3),     # {23,98,rs} between 13 and +inf
    ("merged_at_level", "23", 2),
    ("merged_at_level", "b-inf", 0),  # ls finishes its descent
    ("split", "23", 1),               # {23,98,rs} splits on z=50
    ("merged_at_level", "23", 1),     # 23 between 13 and 50
    ("merged_at_level", "1", 0),      # 1 starts at ls, inserts in O(1)
    ("merged_at_level", "23", 0),     # 23 completes; unblocks 25
    ("merged_at_level", "25", 1),     # 25 from 23's position
    ("merged_at_level", "98", 1),     # {98,rs} between 50 and +inf
    ("merged_at_level", "25", 0),
    ("merged_at_level", "55", 0),     # 55 anchored at 50
    ("merged_at_level", "98", 0),
]


def preprocess(buf: SkipNet) -> Preprocessed:
    """Group identification, leader election, parent discovery, state init."""
    if not buf.heights or BUF_LS not in buf.heights:
        raise MalformedBuffer("buffer lacks its sentinels")
    top = buf.height
    groups: list[list[int]] = []
    parents: dict[int, tuple[int | None, int | None]] = {}
    for lvl in range(top + 1):
        run: list[int] = []
        for key in buf.iter_level(lvl):
            if buf.height_of(key) == lvl:
                run.append(key)
            elif run:
                groups.append(run)
                run = []
        if run:
            groups.append(run)
    for g in groups:
        h = buf.height_of(g[0])
        lp = buf.links[g[0]][h][0]
        rp = buf.right(g[-1], h)
        lp = None if lp == LS else lp
        rp = None if rp == RS else rp
        for key in g:
            parents[key] = (lp, rp)
    children: dict[int, list[int]] = {}
    for key, (lp, rp) in parents.items():
        if lp is not None:
            children.setdefault(lp, []).append(key)
        if rp is not None:
            children.setdefault(rp, []).append(key)
    top_members = buf.level_list(top)

    longest = max(len(g) for g in groups)
    # ID stream hops one step leftward
    rows = [uniform_round([key for g in groups for key in g[r + 1:]])
            for r in range(max(1, longest - 1))]
    rows.append(sends_row({g[0]: len(g) - 1 for g in groups},    # leader announcement
                          formed=sum(len(g) * (len(g) - 1) // 2 for g in groups)))
    rows.append(uniform_round(parents, 2))     # parent discovery
    rows.append(uniform_round(top_members))   # state init
    fanout = {u: len(kids) for u, kids in children.items()}
    return Preprocessed(groups, parents, children, fanout, top_members, rows)


@dataclass
class _Walk:
    key: int
    height: int
    lp: int | None
    rp: int | None
    vpos: int = LS
    vlevel: int = 0
    indep_lp: bool = False
    indep_rp: bool = False
    activated: bool = False

    def advance(self, key: int, level: int) -> None:
        if level < self.height:
            return  # below our own splice entry level; the walk stops at it
        if key > self.vpos or (key == self.vpos and level < self.vlevel):
            self.vpos = key
            self.vlevel = level


class WaveEngine:
    """Round-stepped execution of the merge wave over (clean, buffer)."""

    def __init__(self, clean: SkipNet, buf: SkipNet, cycle: int = 0):
        self.clean = clean
        self.buf = buf
        self.cycle = cycle
        self.pre = preprocess(buf)
        self.parents = self.pre.parents
        self.children = self.pre.children
        clean.ensure_height(buf.height)
        self.walks: dict[int, _Walk] = {}
        for key, h in buf.heights.items():
            lp, rp = self.parents.get(key, (None, None))
            self.walks[key] = _Walk(key, buf.height_of(key), lp, rp,
                                    vpos=LS, vlevel=buf.height_of(key))
        top_group = CohesiveGroup(list(self.pre.top_members), buf.height, LS,
                                  top=buf.height)
        for key in top_group.members:
            self.walks[key].activated = True
        self.active: list[CohesiveGroup] = [top_group]
        self.merged_level: dict[int, int] = {}
        self.round = 0
        self.events: list[dict] = []
        self.rows: list[RoundWork] = []
        self.group_spans: list[tuple[CohesiveGroup, int, int]] = []
        self.summary = MergeSummary(groups=1, preprocess_rounds=len(self.pre.rows))
        self.absorbed = False
        self._ready: set[int] = set()

    # -- events --------------------------------------------------------------

    def _emit(self, leader: int, event: str, level: int, **detail) -> None:
        rec = {"cycle": self.cycle, "round": self.round, "group_leader": leader,
               "event": event, "level": level}
        rec.update(detail)
        self.events.append(rec)

    # -- virtual walking -------------------------------------------------------

    def _notify(self, members, v, z, kind, level, acc) -> None:
        for u in members:
            kids = self.children.get(u)
            if not kids:
                continue
            if not is_sentinel(u):
                acc.msg(u, len(kids))
            for c in kids:
                walk = self.walks[c]
                if walk.activated:
                    continue
                if kind == "right":
                    if z < c:
                        walk.advance(z, level)
                    elif v < c:
                        walk.advance(v, level)
                    if z > c:
                        if u == walk.lp:
                            walk.indep_lp = True
                        if u == walk.rp:
                            walk.indep_rp = True
                else:  # down: sender's remaining corridor is left of z
                    if z < c:
                        walk.advance(z, level)
                    elif v < c:
                        walk.advance(v, level)
                    if z < c:
                        if u == walk.lp:
                            walk.indep_lp = True
                        if u == walk.rp:
                            walk.indep_rp = True
                self._maybe_ready(c)

    def _notify_merged(self, members, level, acc) -> None:
        for u in members:
            self.merged_level[u] = level
            kids = self.children.get(u)
            if not kids:
                continue
            if not is_sentinel(u):
                acc.msg(u, len(kids))
        for u in members:
            for c in self.children.get(u, ()):
                if not self.walks[c].activated:
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
        ready = {k for k in self._ready if not self.walks[k].activated}
        self._ready.clear()
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
            for m in members:
                self.walks[m].activated = True
            self.active.append(group)
            self.summary.groups += 1

    # -- group actions ---------------------------------------------------------

    def _do_traverse(self, g: CohesiveGroup, acc: RoundAcc) -> None:
        v = g.pos
        z = self.clean.right(v, g.level)
        movers = [m for m in g.members if m > z]
        if movers:
            # split dichotomy: a single key threshold cuts prefix from suffix
            assert movers == g.members[len(g.members) - len(movers):]
        if not is_sentinel(g.leader):
            acc.msg(g.leader, len(g.members))  # leader broadcasts z
        if movers and len(movers) == len(g.members):
            self._emit(g.leader, "move_right", g.level, to=z)
            self._notify(g.members, v, z, "right", g.level, acc)
            g.pos = z
        elif movers:
            stay = [m for m in g.members if m < z]
            right = CohesiveGroup(movers, g.level, z, top=g.top, delay=2,
                                  born=self.round, splits=g.splits + 1)
            self._emit(g.leader, "split", g.level,
                       new_leader=right.leader, at=v, z=z)
            self._notify(stay, v, z, "down", g.level, acc)
            self._notify(movers, v, z, "right", g.level, acc)
            g.members = stay
            g.splits += 1
            g.state = "merge" if g.level <= g.top else "descend"
            self.active.append(right)
            self.summary.groups += 1
            self.summary.splits += 1
        else:
            self._notify(g.members, v, z, "down", g.level, acc)
            g.state = "merge" if g.level <= g.top else "descend"
        if g.state == "descend":
            # above the members' own height there is nothing to splice;
            # the group just rides the search path downward
            g.level -= 1
            g.state = "traverse"
            self._emit(g.leader, "move_down", g.level)

    def _do_merge(self, g: CohesiveGroup, acc: RoundAcc) -> None:
        v, lvl = g.pos, g.level
        z = self.clean.right(v, lvl)
        if any(m > z for m in g.members):
            # a faster group spliced into our gap since the traversal
            # decision; re-read and re-decide, as the leader would
            g.state = "traverse"
            self._do_traverse(g, acc)
            return
        for m in g.members:
            if m not in self.clean.heights:
                self.clean.add_key(m, self.buf.height_of(m)
                                   if m in (BUF_LS, BUF_RS) else self.buf.heights[m])
        formed = self.clean.splice_run(v, g.members, z, lvl)
        acc.edges(formed=formed, deleted=1)
        self._emit(g.leader, "merged_at_level", lvl, left=v, right=z)
        for m in g.members:
            y = self.clean.right(m, lvl)
            self._notify([m], m, y, "down", lvl, acc)
        self._notify_merged(g.members, lvl, acc)
        if lvl == 0:
            g.state = "done"
            self._emit(g.leader, "done", 0)
            self.group_spans.append((g, g.born, self.round))
        else:
            g.state = "wait"
            self._try_descend(g)

    def _try_descend(self, g: CohesiveGroup) -> None:
        v = self.clean.links[g.leader][g.level][0]
        blocked = (v in self.walks
                   and self.merged_level.get(v, g.level) > g.level - 1)
        if not blocked:
            g.level -= 1
            g.pos = v
            g.state = "traverse"
            self._emit(g.leader, "move_down", g.level)

    # -- rounds -----------------------------------------------------------------

    def step(self) -> None:
        acc = RoundAcc()
        self.round += 1
        for g in sorted(self.active, key=lambda g: g.leader):
            if g.state == "done":
                continue
            if g.delay:
                g.delay -= 1
                continue
            if g.state == "wait":
                self._try_descend(g)
                if g.state != "traverse":
                    continue
                # fall through to traverse in the next round
            elif g.state == "merge":
                self._do_merge(g, acc)
            elif g.state == "traverse":
                self._do_traverse(g, acc)
        self.active = [g for g in self.active if g.state != "done"]
        self._activate_ready()
        if not self.active and all(w.activated for w in self.walks.values()):
            removed = 0
            for key in (BUF_LS, BUF_RS):
                if key in self.clean.heights:
                    removed += self.clean.unlink_tower(key)
            acc.edges(formed=2 * (self.buf.height + 1), deleted=removed)
            self.absorbed = True
        self.rows.append(acc.seal())

    def rounds(self) -> Iterator[RoundWork]:
        """Step the wave until the buffer is absorbed, yielding each round's
        work; sets the summary's wave_rounds once the wave is done."""
        guard = 200 * (self.buf.height + math.ceil(math.log2(len(self.clean) + 4)) + 4)
        while not self.absorbed:
            if self.round > guard:
                raise SpliceConflict("wave failed to converge")
            self.step()
            yield self.rows[-1]
        self.summary.wave_rounds = self.round

    def run(self) -> MergeSummary:
        for _ in self.rounds():
            pass
        return self.summary
