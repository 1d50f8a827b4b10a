"""Per-round work accounting shared by the phase engines.

Phases compute their structural outcome eagerly but report work as a
round-by-round profile so the simulator can charge the ledger while the
global clock advances, and so per-node message budgets stay checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
