"""Continuous maintenance: bootstrap, the four-phase cycle, and query
service over the live view.

One Simulation owns the world clock, the committee overlay, and the clean
structure (whose "11"-labeled ports and live flags are the live network).
Phases compute structural outcomes through their engines and charge their
work round by round while churn keeps arriving; covering keeps every
departed node answerable throughout.

The queries are served in the order of their stream, from its first query
at round 0 or later, so the query log is columns parallel to it: each
served query's answered round (8 B) and its answer and stalled flags (1 B
each), about 10 B a query where a QueryOutcome with its ints took about
214. x, r and s are read from the stream's arrays, and a QueryOutcome is
built only when the log is read.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from itertools import chain
from operator import itemgetter

from . import adversary
# gen_queries is looked up here by callers that give a run its queries
from .adversary import (ChurnSchedule, Query, gen_queries,  # noqa: F401
                        gen_schedule, query_stream)
from .errors import (COMMITTEE_DESTROYED, LIVE_MISMATCH, QUERY_TIMEOUT, STALLED,
                     InconsistentWorld)
from .params import SimParams
from .phase_buffer import create_buffer
from .phase_delete import delete_phase
from .phase_merge import MergeLog, WaveEngine
from .phase_update import live_equals_clean, update_phase
from .simcore import MAINTENANCE, IdMap, RecordView, World, collection_paused
from .skiplist import BUF_LS, BUF_RS, SkipNet, search
from .overlay import bootstrap_overlay, route_hops
from .work import RoundWork

@dataclass
class CycleSummary:
    cycle: int
    start_round: int
    end_round: int
    phase_rounds: list[int]
    reds: int
    joiners: int
    failures: int
    queries_served: int
    q_violations: int    # 0 until finalize counts them against q_budget()

    def as_record(self) -> dict:
        return {"cycle": self.cycle, "phase_rounds": self.phase_rounds,
                "reds": self.reds, "joiners": self.joiners,
                "failures": self.failures,
                "queries_served": self.queries_served,
                "q_violations": self.q_violations}


@dataclass(slots=True)
class QueryOutcome:
    x: int
    r: int
    s: int
    answer: bool
    answered_round: int
    stalled: bool = False

    @property
    def latency(self) -> int:
        return self.answered_round - self.r


class QueryLog(RecordView):
    """The outcomes of the served queries, as columns parallel to the query
    stream (see the module docstring): outcome i is that of stream query
    ``first + i``."""

    def __init__(self, xs: array, rs: array, ss: array, first: int):
        self._stream = xs, rs, ss
        self.first = first
        self.answered_round = array("q")
        self.answer = bytearray()
        self.stalled = bytearray()

    def __len__(self) -> int:
        return len(self.answered_round)

    def append(self, outcome: QueryOutcome) -> None:
        """Log the outcome of stream query ``first + len(self)``."""
        self.answered_round.append(outcome.answered_round)
        self.answer.append(outcome.answer)
        self.stalled.append(outcome.stalled)

    def record(self, i: int) -> QueryOutcome:
        j = self.first + i
        xs, rs, ss = self._stream
        return QueryOutcome(xs[j], rs[j], ss[j], bool(self.answer[i]),
                            self.answered_round[i], bool(self.stalled[i]))


class Simulation:
    @collection_paused
    def __init__(self, params: SimParams, schedule: ChurnSchedule | None = None,
                 queries: list[Query] | None = None):
        self.params = params
        self.world = World(params)
        horizon = params.bootstrap_rounds + \
            max(1, params.horizon_cycles) * params.cycle_budget + 8
        self.schedule = schedule if schedule is not None else gen_schedule(
            params.seed_adv, params.n, params.churn_rate, horizon,
            params.strategy)
        # the queries in the order they are served: by round, and in the
        # given order within a round. _next_query is the first not served,
        # and _query_round its round, or once all drawn are served the
        # round that draws the stream's next block (None once none is
        # left); the clock starts at round 0, so a query of a negative
        # round is never served
        drawing = queries is None
        queries = sorted(queries or (), key=itemgetter(1))
        xs, rs, ss = zip(*queries) if queries else ((), (), ())
        self.query_x, self.query_r, self.query_s = xs, rs, ss = (
            array("q", xs), array("q", rs), array("q", ss))
        # without given queries, the stream is drawn a block at a time as
        # the clock reaches it, and _queries_end is the first round not
        # drawn until it is drawn to the nominal horizon
        self._queries = self._queries_end = None
        if drawing:
            self._queries = query_stream(params.seed_adv, self.schedule,
                                         params.query_density, xs, rs, ss)
            if self._queries is not None:
                self._draw_query_block(adversary._DRAW_AHEAD)
        i = self._next_query = bisect_left(rs, 0)
        self._query_round = rs[i] if i < len(rs) else self._queries_end
        self.clean = SkipNet("C")
        self.overlay = None
        self.joiner_backlog: list[int] = []
        self.entered_live = IdMap()
        self.removed_clean = IdMap()
        self.cycles: list[CycleSummary] = []
        self.query_log = QueryLog(xs, rs, ss, self._next_query)
        # covers whose committee still had a member at the end of their
        # round; every other departure is a COMMITTEE_DESTROYED failure
        self.covering_audits = 0
        self.phase_records: list[dict] = []
        self.merge_events = MergeLog()    # phase_merge.event_record
        self._pending_covers: list[int] = []    # the round's covered nodes
        # committee -> route_hops(committee, (0, 0), k) + 1; k stays fixed
        self._hops_from: dict[tuple[int, int], int] = {}
        # departed nodes whose cover failed, until the delete phase removes
        # them: the only keys a relay can stall on
        self.uncovered: set[int] = set()
        # query_violations() as of a round: (round, list), or None
        self._violations: tuple[int, list[QueryOutcome]] | None = None

    # -- churn hooks --------------------------------------------------------------

    def _on_depart(self, node: int) -> None:
        edges = self.overlay.cover_node(node, len(self.clean.links.get(node, ())))
        if edges is None:
            self._cover_lost(node)
            return
        self.world.charge_edges(formed=edges, category="covering")
        self._pending_covers.append(node)

    def _cover_lost(self, node: int) -> None:
        """Nobody speaks for the departed node: a search checks its key
        until the delete phase removes it."""
        self.overlay.uncover(node)
        self.uncovered.add(node)
        self.world.fail(COMMITTEE_DESTROYED, f"covering node {node}")

    def _on_join(self, node: int, host: int) -> None:
        # provisional committee (the host's) until the next reassignment tick
        addr = self.overlay.address_of(host)
        if addr is None:
            addrs = self.overlay.addrs
            addr = addrs[self.world.rng_alg.randrange(len(addrs))]
        self.overlay.place(node, addr)
        self.world.charge_msgs(node, 1, category="covering")
        self.joiner_backlog.append(node)

    # -- the round pump --------------------------------------------------------------

    def _advance(self, phase: str) -> None:
        world = self.world
        world.cycle_phase = phase
        if world.round == self._query_round:
            # the round's queries, from the first not yet served; the clock
            # at the end of the drawn block first draws the next
            rnd, i = self._query_round, self._next_query
            xs, rs, ss = self.query_x, self.query_r, self.query_s
            if i == len(rs):
                self._draw_query_block(rnd + adversary._DRAW_AHEAD)
            log = self.query_log
            while i < len(rs) and rs[i] == rnd:
                log.append(self._serve_query(xs[i], rnd, ss[i]))
                i += 1
            self._next_query = i
            self._query_round = rs[i] if i < len(rs) else self._queries_end
        # bound per call: a hook stored on the world would make a cycle
        world.run_round(self.schedule, self._on_depart, self._on_join)
        if world.phase_tag == MAINTENANCE and \
                world.round % self.params.tick_period == 0:
            self.overlay.maintenance_tick(world.alive, world.rng_alg, world.round)
        # every pending cover was made during the round just run; every
        # committee member is alive, so a cover holds while its size is not 0
        overlay = self.overlay
        for node in self._pending_covers:
            if overlay.size(overlay.covered_index[node]):
                self.covering_audits += 1
            else:
                self._cover_lost(node)
        self._pending_covers.clear()

    def _draw_query_block(self, upto: int) -> None:
        """Draw the query stream through the rounds below `upto`; the
        stream and its state go once it is drawn to the nominal horizon."""
        drawn = self._queries.send(upto)
        if drawn < self.schedule.nominal:
            self._queries_end = drawn
        else:
            self._queries = self._queries_end = None

    def _play(self, rows: Iterable[RoundWork], category: str, phase: str
              ) -> tuple[int, int, int]:
        """Charge one row per world round. Returns the rounds played and the
        messages and edges formed they charged: the one count of a phase's
        cost, which its record in phases.jsonl reports."""
        played = messages = formed = 0
        for row in rows:
            self.world.play_row(row, category)
            self._advance(phase)
            played += 1
            messages += row.messages
            formed += row.edges_formed
        return played, messages, formed

    # -- bootstrap --------------------------------------------------------------------

    @collection_paused
    def bootstrap_all(self) -> None:
        params = self.params
        for node in range(params.n):
            self.world.spawn(node)
        self.overlay, overlay_rows = bootstrap_overlay(
            range(params.n), self.world.rng_alg)
        self._play(overlay_rows, "bootstrap", "-")
        keys = list(range(params.n))
        buf, summary, rows = create_buffer(keys, self.world.heights.slots)
        self._play(rows, "bootstrap", "-")
        if buf is not None:
            for key in (BUF_LS, BUF_RS):
                buf.unlink_tower(key)
            buf.tag = "C"
            self.clean = buf
        update_phase(self.clean)
        self._advance("-")
        self.entered_live.fill(keys, self.world.round)
        if self.world.round > params.bootstrap_rounds:
            raise InconsistentWorld(
                f"bootstrap took {self.world.round} rounds; raise beta "
                f"(budget {params.bootstrap_rounds})")
        while self.world.round < params.bootstrap_rounds:
            self._advance("-")

    # -- one cycle ----------------------------------------------------------------------

    @collection_paused
    def run_cycle(self) -> CycleSummary:
        world = self.world
        cycle_no = len(self.cycles)
        start_round = world.round
        fail_mark = len(world.failures)
        query_mark = len(self.query_log)
        phase_rounds = []

        # Phase 1: deletion of the departed keys present in the clean
        # structure, those whose cover failed included
        reds = sorted(k for k in chain(self.overlay.covered_index, self.uncovered)
                      if k in self.clean.heights)
        dsummary, rows = delete_phase(self.clean, reds)
        rounds, messages, _ = self._play(rows, "delete", "Delete")
        phase_rounds.append(rounds)
        for key in reds:
            self.overlay.uncover(key)
        self.removed_clean.fill(reds, world.round)
        # a deleted key can no longer stall a relay
        self.uncovered.difference_update(reds)
        # a delete's edges formed are its bridges, which the summary counts
        self.phase_records.append({"phase": "delete", "cycle": cycle_no, **asdict(dsummary),
                                   "rounds_used": rounds, "messages_used": messages})

        # Phase 2: buffer creation from the joiner backlog (cutoff now)
        joiners, self.joiner_backlog = self.joiner_backlog, []
        joiners = [j for j in joiners if j not in self.clean.heights]
        buf, bsummary, rows = create_buffer(joiners, world.heights.slots)
        rounds, messages, formed = self._play(rows, "buffer", "BufferCreate")
        phase_rounds.append(rounds)
        self.phase_records.append({"phase": "buffer", "cycle": cycle_no, **asdict(bsummary),
                                   "rounds_used": rounds, "messages_used": messages,
                                   "edges_formed": formed})

        # Phase 3: merge wave, stepped one engine round per world round
        if buf is not None:
            engine = WaveEngine(self.clean, buf, cycle_no, self.merge_events)
            rounds, messages, formed = self._play(
                chain(engine.pre.rows, engine.rounds()), "merge", "Merge")
            phase_rounds.append(rounds)
            self.phase_records.append({"phase": "merge", "cycle": cycle_no,
                                       **asdict(engine.summary), "rounds_used": rounds,
                                       "messages_used": messages, "edges_formed": formed})
        else:
            phase_rounds.append(0)

        # Phase 4: label flips only
        usummary = update_phase(self.clean)
        self.phase_records.append({"phase": "update", "cycle": cycle_no, **asdict(usummary)})
        if not live_equals_clean(self.clean):
            world.fail(LIVE_MISMATCH, f"cycle {cycle_no}")
        # the merge added the joiners, and no other key, to the clean list
        self.entered_live.fill(joiners, world.round)
        self._advance("Update")
        phase_rounds.append(1)

        summary = CycleSummary(
            cycle=cycle_no, start_round=start_round, end_round=world.round,
            phase_rounds=phase_rounds, reds=len(reds), joiners=len(joiners),
            failures=len(world.failures) - fail_mark,
            queries_served=len(self.query_log) - query_mark,
            q_violations=0,
        )
        self.cycles.append(summary)
        return summary

    def run(self) -> None:
        self.bootstrap_all()
        for _ in range(self.params.horizon_cycles):
            self.run_cycle()
        self.finalize()

    @collection_paused
    def finalize(self) -> None:
        """Count each cycle's q_violations against the final Q budget."""
        bad_rounds = {}
        for out in self.query_violations():
            bad_rounds[out.r] = bad_rounds.get(out.r, 0) + 1
        for summary in self.cycles:
            summary.q_violations = sum(
                count for rnd, count in bad_rounds.items()
                if summary.start_round <= rnd < summary.end_round)

    # -- queries ------------------------------------------------------------------------

    def _serve_query(self, x: int, r: int, s: int) -> QueryOutcome:
        world = self.world
        addr = self.overlay.address_of(s) or (0, 0)
        hops = self._hops_from.get(addr)
        if hops is None:
            hops = self._hops_from[addr] = route_hops(addr, (0, 0), self.overlay.k) + 1
        # a clean key that is neither alive nor covered is uncovered, and
        # with no failed cover the search has nothing to check
        result = search(self.clean, x, self.uncovered)
        if result.stalled:
            world.fail(STALLED, f"query {x} from {s}")
        answer = result.found and x in self.clean.live and not result.stalled
        latency = hops + result.path_rounds + 1
        answered = r + latency
        world.charge_msgs(s, 2, category="queries")
        world.charge_msgs(s, hops - 1 + result.path_rounds, category="queries")
        if latency > self.params.cycle_budget:
            world.fail(QUERY_TIMEOUT, f"query {x} took {latency}")
        return QueryOutcome(x, r, s, answer, answered, result.stalled)

    # -- ground truth -------------------------------------------------------------------

    def q_budget(self) -> int:
        """One cycle's worth of rounds; degenerate quiet cycles fall back to
        the nominal cycle budget (the bitonic-regime cycle scale)."""
        longest = max((c.end_round - c.start_round for c in self.cycles),
                      default=0)
        return max(longest, self.params.cycle_budget)

    def classify_query(self, x: int, r: int, budget: int) -> str:
        """present / absent / mixed for a query of x at round r over
        [r, r+Q], from effective lifetimes, where Q is budget
        (``q_budget()``)."""
        window_end = r + budget
        start, end = self.schedule.lifetime(x)
        if not self.schedule.ever_known(x):
            return "absent"
        live_from = self.entered_live.get(x)
        if live_from is not None and live_from <= r and \
                (end is None or end > window_end):
            return "present"
        removed = self.removed_clean.get(x)
        if end is not None and end <= r and removed is not None and removed <= r:
            return "absent"
        if live_from is None and start > window_end:
            return "absent"
        return "mixed"

    def query_violations(self) -> list[QueryOutcome]:
        """The served queries that broke their class or the Q budget. The
        list is kept until the clock moves, so finalize, whp_report and the
        summary line classify each query once; callers must not change it."""
        kept = self._violations
        if kept is not None and kept[0] == self.world.round:
            return kept[1]
        bad = []
        budget = self.q_budget()
        log = self.query_log
        first = log.first
        served = zip(self.query_x[first:], self.query_r[first:],
                     log.answered_round, log.answer)
        for i, (x, r, answered, answer) in enumerate(served):
            cls = self.classify_query(x, r, budget)
            if answered - r > budget or (cls == "present" and not answer) or \
                    (cls == "absent" and answer):
                bad.append(log[i])
        self._violations = (self.world.round, bad)
        return bad
