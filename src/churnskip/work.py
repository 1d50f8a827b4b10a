"""Per-round work accounting shared by the phase engines.

Phases compute their structural outcome eagerly but report work as a
round-by-round profile so the simulator can charge the ledger while the
global clock advances, and so per-node message budgets stay checkable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter


@dataclass
class RoundWork:
    messages: int = 0
    edges_formed: int = 0
    edges_deleted: int = 0
    max_node_messages: int = 0
    busiest: int | None = None


class RoundAcc:
    """Accumulates one round's work; seal() compresses per-node counts."""

    __slots__ = ("counts", "edges_formed", "edges_deleted")

    def __init__(self):
        self.counts: dict[int, int] = {}
        self.edges_formed = 0
        self.edges_deleted = 0

    def msg(self, key: int, n: int = 1) -> None:
        if n:
            self.counts[key] = self.counts.get(key, 0) + n

    def edges(self, formed: int = 0, deleted: int = 0) -> None:
        self.edges_formed += formed
        self.edges_deleted += deleted

    def seal(self) -> RoundWork:
        total = sum(self.counts.values())
        if self.counts:
            busiest = max(self.counts, key=self.counts.__getitem__)
            peak = self.counts[busiest]
        else:
            busiest, peak = None, 0
        return RoundWork(total, self.edges_formed, self.edges_deleted, peak, busiest)


class ParallelSends:
    """Rounds of trees that run side by side: per round, how many messages
    each key sends in it over all trees, and the edges dropped in it."""

    def __init__(self):
        self.sent: list[Counter] = []
        self.dropped: list[int] = []

    def add(self, rounds, dropped: int = 0) -> None:
        """One tree: rounds[i] lists the keys that send in its round i, a
        key once per message. Its dropped edges are charged to the last
        round counted so far."""
        for i, keys in enumerate(rounds):
            if i == len(self.sent):
                self.sent.append(Counter())
                self.dropped.append(0)
            self.sent[i].update(keys)
        if self.sent:
            self.dropped[-1] += dropped

    def rows(self) -> list[RoundWork]:
        """One row per round; a tied peak goes to the key counted first."""
        out = []
        for counts, dropped in zip(self.sent, self.dropped):
            busiest, peak = max(counts.items(), key=itemgetter(1))
            out.append(RoundWork(counts.total(), 0, dropped, peak, busiest))
        return out


def uniform_round(nodes, k: int = 1, formed: int = 0) -> RoundWork:
    """One round in which every listed node sends k messages.

    The nodes must be distinct. The row equals what RoundAcc.seal() gives
    after msg(node, k) for each node in order: the busiest node is the
    first one listed.
    """
    if not (nodes and k):
        return RoundWork(0, formed)
    return RoundWork(k * len(nodes), formed, 0, k, next(iter(nodes)))


@dataclass
class WorkProfile:
    """One RoundWork per simulated round of a phase."""

    rows: list[RoundWork] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.rows)

    @property
    def messages(self) -> int:
        return sum(r.messages for r in self.rows)

    @property
    def edges_formed(self) -> int:
        return sum(r.edges_formed for r in self.rows)

    @property
    def edges_deleted(self) -> int:
        return sum(r.edges_deleted for r in self.rows)

    @property
    def work(self) -> int:
        return self.messages + self.edges_formed + self.edges_deleted

    def add(self, acc: RoundAcc) -> None:
        self.rows.append(acc.seal())

    def pad_to(self, rounds: int) -> None:
        while len(self.rows) < rounds:
            self.rows.append(RoundWork())

    def append(self, other: "WorkProfile") -> None:
        self.rows.extend(other.rows)
