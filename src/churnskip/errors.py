"""Exceptions and counted protocol-failure events."""

from __future__ import annotations

from dataclasses import dataclass


class ChurnSkipError(Exception):
    """Base for all package errors."""


class InconsistentWorld(ChurnSkipError):
    pass


class MessageBudgetExceeded(ChurnSkipError):
    def __init__(self, node, count, cap):
        super().__init__(f"node {node} at {count} messages, cap {cap}")
        self.node = node
        self.count = count
        self.cap = cap


class PeerDeparted(ChurnSkipError):
    pass


class RateTooHigh(ChurnSkipError):
    pass


class HorizonTooShort(ChurnSkipError):
    pass


class UnsortedInput(ChurnSkipError):
    pass


class MalformedBuffer(ChurnSkipError):
    pass


class NoJoiners(ChurnSkipError):
    pass


class DirtyLabels(ChurnSkipError):
    pass


class EmptyWindow(ChurnSkipError):
    pass


class ConfigError(ChurnSkipError):
    """Config validation failure; carries the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


# Failure kinds recorded (not raised) during a run by World.fail; the
# resilience audit counts them and the CLI exit code reflects them.
# COMMITTEE_DESTROYED: a departed node's committee had no member left when
# the node left or at the end of that round; its key stalls searches until
# the delete phase removes it.
COMMITTEE_DESTROYED = "CommitteeDestroyed"
STALLED = "Stalled"
QUERY_TIMEOUT = "QueryTimeout"
LIVE_MISMATCH = "LiveMismatch"

# Kinds of the delete and merge errors of these names. They are raised out
# of run_cycle, like MessageBudgetExceeded, and nothing in the simulation
# catches them, so such a run stops instead of recording a failure.
ORPHAN_LEAF = "OrphanLeaf"
SPLICE_CONFLICT = "SpliceConflict"


@dataclass(frozen=True)
class FailureEvent:
    round: int
    kind: str
    detail: str = ""
