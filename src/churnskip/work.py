"""Per-round work accounting shared by the phase engines.

A phase computes its structural outcome eagerly but reports its work as a
plain list of RoundWork rows, one per simulated round, so the simulator can
charge the ledger while the global clock advances and hold each round's
busiest sender to the per-node send cap.

There is one row builder: `sends_row` turns per-key send counts plus edge
counts into a row. `ParallelSends` stacks the rounds of trees that run side
by side into per-round counts and seals them with it, and `uniform_round`
is its closed form for a round in which every listed node sends the same
number of messages.

A phase does not add its rows up: `Simulation._play` charges them to the
ledger one per round and counts the phase's rounds, messages and edges
formed as it goes, the one place a phase's cost is counted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress


@dataclass(slots=True)
class RoundWork:
    messages: int = 0
    edges_formed: int = 0
    edges_deleted: int = 0
    max_node_messages: int = 0
    busiest: int | None = None


def sends_row(sends, formed: int = 0, deleted: int = 0) -> RoundWork:
    """The row of a round in which each key of `sends` sent sends[key]
    messages. A tied peak goes to the key counted first; a key with a count
    of 0 is not a sender, so with no senders `busiest` is None."""
    if sends:
        counts = sends.values()
        peak = max(counts)
        if peak:
            busiest = next(compress(sends, map(peak.__eq__, counts)))
            return RoundWork(sum(counts), formed, deleted, peak, busiest)
    return RoundWork(0, formed, deleted)


class ParallelSends:
    """Rounds of trees that run side by side: per round, how many messages
    each key sends in it over all trees, and the edges dropped in it."""

    def __init__(self):
        # per round: the sender lists of the trees, in the order added
        self.sent: list[list] = []
        self.dropped: list[int] = []

    def add(self, rounds, dropped: int = 0) -> None:
        """One tree: rounds[i] lists the keys that send in its round i, a
        key once per message. Its dropped edges are charged to the last
        round counted so far."""
        for i, keys in enumerate(rounds):
            if i == len(self.sent):
                self.sent.append([])
                self.dropped.append(0)
            self.sent[i].append(keys)
        if self.sent:
            self.dropped[-1] += dropped

    def rows(self) -> list[RoundWork]:
        """One row per round. Counting a round's lists in the order added
        keeps each key where it was first counted, and so the tie-break."""
        return [sends_row(Counter(chain.from_iterable(lists)), 0, dropped)
                for lists, dropped in zip(self.sent, self.dropped)]


def uniform_round(nodes, k: int = 1, formed: int = 0) -> RoundWork:
    """One round in which every listed node sends k messages.

    The nodes must be distinct. The row equals sends_row({node: k for node
    in nodes}, formed): the busiest node is the first one listed.
    """
    if not (nodes and k):
        return RoundWork(0, formed)
    return RoundWork(k * len(nodes), formed, 0, k, next(iter(nodes)))

