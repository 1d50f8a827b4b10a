"""Span tracer for the benchmark's traced run.

The tracer wraps churnskip functions from outside, at the name the caller
looks up: `maintenance` imports its phase drivers by name, so those are
patched on `churnskip.maintenance`; the buffer sub-stages on
`churnskip.phase_buffer`; `preprocess` on `churnskip.phase_merge`; methods
on their classes. Nothing under `src/` changes, and `patched()` restores
every original on exit.

Each span charges its duration to its parent's child time, so a span's
self time is its duration minus the time of the wrapped calls it made.
Spans are keyed by the stage the runner sets ("setup" for the constructor
and `bootstrap_all`, "run" for the cycles and `finalize`), so bootstrap
work never lands in the cycle figures. Hot helpers such as `RoundAcc.msg`
are not wrapped; their cost shows in the self time of the phase calling
them.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from churnskip import maintenance, phase_buffer, phase_merge
from churnskip.maintenance import Simulation
from churnskip.overlay import CommitteeOverlay
from churnskip.phase_merge import WaveEngine
from churnskip.simcore import World

clock = time.process_time_ns

# (span name, owner the caller looks the attribute up on, attribute)
SPANS = (
    ("adversary.gen_schedule", maintenance, "gen_schedule"),
    ("adversary.gen_queries", maintenance, "gen_queries"),
    ("maintenance.init", Simulation, "__init__"),
    ("maintenance.bootstrap_all", Simulation, "bootstrap_all"),
    ("maintenance.run_cycle", Simulation, "run_cycle"),
    ("maintenance.finalize", Simulation, "finalize"),
    ("maintenance.serve_query", Simulation, "_serve_query"),
    ("maintenance.churn_hooks", Simulation, "_on_depart"),
    ("maintenance.churn_hooks", Simulation, "_on_join"),
    ("overlay.bootstrap_overlay", maintenance, "bootstrap_overlay"),
    ("overlay.route_hops", maintenance, "route_hops"),
    ("overlay.maintenance_tick", CommitteeOverlay, "maintenance_tick"),
    ("overlay.cover_node", CommitteeOverlay, "cover_node"),
    ("skiplist.search", maintenance, "search"),
    ("phase_delete.delete_phase", maintenance, "delete_phase"),
    ("phase_buffer.create_buffer", maintenance, "create_buffer"),
    ("phase_buffer.build_sorting_overlay", phase_buffer, "build_sorting_overlay"),
    ("phase_buffer.run_network_sort", phase_buffer, "run_network_sort"),
    ("phase_buffer.raise_levels", phase_buffer, "raise_levels"),
    ("phase_merge.init", WaveEngine, "__init__"),
    ("phase_merge.preprocess", phase_merge, "preprocess"),
    ("phase_merge.step", WaveEngine, "step"),
    ("phase_update.update_phase", maintenance, "update_phase"),
    ("phase_update.live_equals_clean", maintenance, "live_equals_clean"),
    ("simcore.run_round", World, "run_round"),
    ("simcore.play_row", World, "play_row"),
)


class Tracer:
    """Self time and call counts per (stage, span), plus the simulated
    work each phase played into the ledger during the "run" stage."""

    def __init__(self):
        self.stage = "setup"
        self.self_ns: dict[tuple[str, str], int] = defaultdict(int)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.search_ns: list[int] = []
        self.search_path_rounds = 0
        # (ledger category, "rounds" | "messages" | "edges") -> total
        self.played: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[list[int]] = []

    def seconds(self, stage: str, span: str) -> float:
        return self.self_ns[(stage, span)] / 1e9

    def stage_seconds(self, stage: str, prefix: str = "") -> float:
        return sum(ns for (st, span), ns in self.self_ns.items()
                   if st == stage and span.startswith(prefix)) / 1e9

    def _observe_search(self, args, result, elapsed_ns) -> None:
        self.search_ns.append(elapsed_ns)
        self.search_path_rounds += result.path_rounds

    def _observe_play_row(self, args, result, elapsed_ns) -> None:
        _world, row, category = args
        self.played[(category, "rounds")] += 1
        self.played[(category, "messages")] += row.messages
        self.played[(category, "edges")] += row.edges_formed + row.edges_deleted

    def _wrap(self, name: str, fn, observe=None):
        stack = self._stack

        def span(*args, **kwargs):
            child = [0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                key = (self.stage, name)
                self.self_ns[key] += elapsed - child[0]
                self.calls[key] += 1
            if observe is not None and self.stage == "run":
                observe(args, result, elapsed)
            return result

        return span

    @contextmanager
    def patched(self):
        observers = {"skiplist.search": self._observe_search,
                     "simcore.play_row": self._observe_play_row}
        saved = [(owner, attr, vars(owner)[attr]) for _, owner, attr in SPANS]
        try:
            for (name, owner, attr), (_, _, original) in zip(SPANS, saved):
                setattr(owner, attr, self._wrap(name, original, observers.get(name)))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
