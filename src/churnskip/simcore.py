"""Deterministic round-synchronous execution core.

The world owns the global clock, the alive set, the attachment edges, and
the append-only work ledger. An alive node's attachment edges are a short
list of peers, and a node with none has no entry, so departures leave no
empty records behind. Protocol phases charge their work by playing
back their work rows, one per round (play_row); churn plumbing and queries charge
single messages and edges directly (charge_msgs/charge_edges/form_edge).
Both paths check the per-node send cap, and every charge lands in the row
of the round the clock is in: five running totals on the world, which
run_round seals into the ledger as one entry per column. The ledger keeps
no row objects: each field is a column of prefix sums (8 B a round) and
the phase tag and cycle phase a byte code each, about 42 B a round in all
where a LedgerRow took about 141. A window's work and churn and the run's
totals are O(1) differences, and ``ledger.rows`` builds a LedgerRow only
when one is read. The churn hooks that react to a departure or a join are
passed to each run_round call, never stored on the world, so a world and
its owner hold no reference cycle. What the world keeps per id, its
height, is an IdMap: one int array indexed by id, since ids are dense.
"""

from __future__ import annotations

import gc
import json
import random
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import wraps

from .errors import FailureEvent, InconsistentWorld, MessageBudgetExceeded, PeerDeparted
from .params import SimParams
from .skiplist import sample_height
from .work import RoundWork

BOOTSTRAP = "Bootstrap"
MAINTENANCE = "Maintenance"

WORK_CATEGORIES = ("bootstrap", "delete", "buffer", "merge", "update",
                   "covering", "queries", "other")


@dataclass(slots=True)
class LedgerRow:
    round: int
    messages_sent: int = 0
    edges_formed: int = 0
    edges_deleted: int = 0
    churn_in: int = 0
    churn_out: int = 0
    phase_tag: str = BOOTSTRAP
    cycle_phase: str = "-"

    def as_record(self) -> dict:
        return {
            "round": self.round,
            "churn_in": self.churn_in,
            "churn_out": self.churn_out,
            "messages_sent": self.messages_sent,
            "edges_formed": self.edges_formed,
            "edges_deleted": self.edges_deleted,
            "phase_tag": self.phase_tag,
            "cycle_phase": self.cycle_phase,
        }


class RecordView(Sequence):
    """A read-only sequence of records held as columns: ``record(i)``
    builds record i on every read and nothing keeps it."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self.record(i) for i in range(len(self))[key]]
        return self.record(range(len(self))[key])

    def __iter__(self):
        return map(self.record, range(len(self)))


# the ledger's columns, in LedgerRow's order: each holds the running sum of
# its field over the rounds sealed, from 0 before round 0
_FIELDS = ("messages_sent", "edges_formed", "edges_deleted", "churn_in", "churn_out")


class _Codes(dict):
    """Phase name -> byte code; a name not seen before takes the next code,
    so the names in insertion order are the codes' names."""

    def __missing__(self, name: str) -> int:
        code = self[name] = len(self)
        return code


class WorkLedger(RecordView):
    """One sealed row per round, held as columns (see the module
    docstring); ``rows`` is the ledger itself."""

    def __init__(self):
        self.sums = tuple(array("q", (0,)) for _ in _FIELDS)
        self.phase_tags = bytearray()
        self.cycle_phases = bytearray()
        self._codes = _Codes()
        self.category_totals: dict[str, int] = {c: 0 for c in WORK_CATEGORIES}

    @property
    def rows(self) -> "WorkLedger":
        return self

    def __len__(self) -> int:
        return len(self.phase_tags)

    def seal(self, messages_sent: int, edges_formed: int, edges_deleted: int,
             churn_in: int, churn_out: int, phase_tag: str, cycle_phase: str) -> None:
        """Append the next round's row, given each field's running total
        through that round: the columns' next prefix sums."""
        msgs, formed, deleted, ins, outs = self.sums
        msgs.append(messages_sent)
        formed.append(edges_formed)
        deleted.append(edges_deleted)
        ins.append(churn_in)
        outs.append(churn_out)
        self.phase_tags.append(self._codes[phase_tag])
        self.cycle_phases.append(self._codes[cycle_phase])

    def record(self, i: int) -> LedgerRow:
        names = list(self._codes)
        return LedgerRow(i, *(column[i + 1] - column[i] for column in self.sums),
                         names[self.phase_tags[i]], names[self.cycle_phases[i]])

    def between(self, start: int, stop: int) -> tuple[int, int]:
        """(work, churn) of the rows start..stop-1 that are sealed, where
        work is messages plus edges formed and deleted."""
        n = len(self)
        a = min(max(0, start), n)
        b = min(max(a, stop), n)
        diffs = [column[b] - column[a] for column in self.sums]
        return sum(diffs[:3]), sum(diffs[3:])

    def totals(self) -> dict[str, int]:
        return {name: column[-1] for name, column in zip(_FIELDS, self.sums)}

    def work_total(self) -> int:
        return self.between(0, len(self))[0]


class IdMap:
    """A map from ids to non-negative ints, held in one ``array('i')``
    indexed by id with -1 for no entry: 4 bytes per id where a dict entry
    took about 34. Ids are dense (0..n-1, then n + event index), so the
    array is as long as the largest id set, about the ids allocated.
    ``get`` answers as a dict's does: a negative id (a sentinel) or one
    past the end (a ghost) has no entry, and a read never grows the array.
    ``fill`` is the one write. A hot path may read ``slots`` directly for
    an id that has an entry."""

    __slots__ = ("slots",)

    def __init__(self):
        self.slots = array("i")

    def get(self, key: int, default=None):
        slots = self.slots
        if 0 <= key < len(slots) and slots[key] >= 0:
            return slots[key]
        return default

    def fill(self, keys: Iterable[int], value: int) -> None:
        """Set every key in keys to value, growing the array once."""
        keys = list(keys)
        if not keys:
            return
        if min(keys) < 0 or value < 0:
            raise ValueError(f"IdMap holds non-negative ids and values, "
                             f"not {min(keys)}: {value}")
        slots = self.slots
        grow = max(keys) + 1 - len(slots)
        if grow > 0:
            slots.frombytes(b"\xff" * (slots.itemsize * grow))   # -1s
        for key in keys:
            slots[key] = value



def collection_paused(fn):
    """Run fn with automatic cyclic collection off, and restore the
    collector's state on return or raise. The simulator's object graph is
    acyclic, so reference counting frees all its garbage. The pause is
    process-wide: another thread's cyclic garbage waits for the return."""
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class World:
    def __init__(self, params: SimParams):
        self.params = params
        self.round = 0
        self.phase_tag = BOOTSTRAP
        self.cycle_phase = "-"
        self.rng_alg = random.Random(params.seed_alg)
        self.alive: set[int] = set()
        self.heights = IdMap()
        self.ledger = WorkLedger()
        self.failures: list[FailureEvent] = []
        self.attach_adj: dict[int, list[int]] = {}
        # each ledger field's running total through the open round, which
        # run_round seals as the ledger's next prefix sums
        self._messages = self._formed = self._deleted = 0
        self._churn_in = self._churn_out = 0
        self._sent_this_round: dict[int, int] = {}

    # -- population -------------------------------------------------------------

    def spawn(self, node: int) -> None:
        """The only way into ``alive``: a node joins once, and an id that
        departed never comes back. Every node spawned has a height, so an
        id with one is alive or departed."""
        heights = self.heights.slots
        if 0 <= node < len(heights) and heights[node] >= 0:
            raise InconsistentWorld(f"node {node} already alive" if node in self.alive
                                    else f"departed node {node} rejoins")
        self.alive.add(node)
        if node == len(heights):    # the next id, as ids are dense
            heights.append(sample_height(self.rng_alg))
        else:
            self.heights.fill((node,), sample_height(self.rng_alg))

    # -- charging -----------------------------------------------------------------

    @property
    def message_cap(self) -> int:
        return self.params.message_cap

    def fail(self, kind: str, detail: str = "") -> None:
        self.failures.append(FailureEvent(self.round, kind, detail))

    def charge_msgs(self, node: int, n: int = 1, category: str = "other") -> None:
        if n <= 0:
            return
        count = self._sent_this_round.get(node, 0) + n
        if count > self.message_cap:
            raise MessageBudgetExceeded(node, count, self.message_cap)
        self._sent_this_round[node] = count
        self._messages += n
        self.ledger.category_totals[category] += n

    def charge_edges(self, formed: int = 0, deleted: int = 0,
                     category: str = "other") -> None:
        self._formed += formed
        self._deleted += deleted
        self.ledger.category_totals[category] += formed + deleted

    def play_row(self, row: RoundWork, category: str) -> None:
        """Charge one round of bulk phase work.

        The row's busiest node is held to the send cap together with what
        charge_msgs already charged it this round, and the sum is recorded
        for later charges in the same round.
        """
        if row.busiest is not None:
            count = self._sent_this_round.get(row.busiest, 0) + row.max_node_messages
            if count > self.message_cap:
                raise MessageBudgetExceeded(row.busiest, count, self.message_cap)
            self._sent_this_round[row.busiest] = count
        self._messages += row.messages
        self._formed += row.edges_formed
        self._deleted += row.edges_deleted
        self.ledger.category_totals[category] += (
            row.messages + row.edges_formed + row.edges_deleted)

    # -- attachment edges -------------------------------------------------------------

    def form_edge(self, a: int, b: int, category: str = "other") -> None:
        """Idempotent bidirectional attachment; a no-op edge is free."""
        if a not in self.alive or b not in self.alive:
            raise PeerDeparted(f"edge ({a},{b}) needs both endpoints alive")
        adj = self.attach_adj
        if b in adj.get(a, ()):
            return
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
        self.charge_edges(formed=1, category=category)

    # -- the round loop --------------------------------------------------------------

    def run_round(self, adversary=None, on_depart=None, on_join=None) -> "World":
        """Apply the round's churn, the leaves and (node, host) joins that
        adversary.churn_events(round) gives, calling on_depart(node) after each
        departure and on_join(node, host) after each join, then seal the
        round's row and advance the clock."""
        # (1) churn
        leaves, joins = ((), ())
        if adversary is not None:
            leaves, joins = adversary.churn_events(self.round)
        for node in leaves:
            if node not in self.alive:
                continue
            self.alive.discard(node)
            self._churn_out += 1
            for peer in self.attach_adj.pop(node, ()):
                peers = self.attach_adj[peer]
                peers.remove(node)
                if not peers:
                    del self.attach_adj[peer]
                self._deleted += 1
                self.ledger.category_totals["other"] += 1
            if on_depart is not None:
                on_depart(node)
        for node, host in joins:
            self.spawn(node)
            self._churn_in += 1
            if host in self.alive:
                self.form_edge(node, host, category="covering")
            if on_join is not None:
                on_join(node, host)

        # (2) seal row, advance
        self.ledger.seal(self._messages, self._formed, self._deleted,
                         self._churn_in, self._churn_out,
                         self.phase_tag, self.cycle_phase)
        self.round += 1
        self.phase_tag = (BOOTSTRAP if self.round < self.params.bootstrap_rounds
                          else MAINTENANCE)
        self._sent_this_round = {}
        return self

    # -- trace --------------------------------------------------------------------

    def trace_lines(self):
        for row in self.ledger.rows:
            yield json.dumps(row.as_record(), separators=(",", ":"))
