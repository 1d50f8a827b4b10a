"""Simulation parameters and the constants derived from the network size.

Every polylog constant of the protocol and its audits is a module constant
here, so that runs are reproducible and the acceptance tolerances are frozen
in one place; ``SimParams`` holds only what a run sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

from .errors import ConfigError

# the churn strategies of adversary.gen_schedule
STRATEGIES = ("uniform_random", "targeted_committee", "burst")

P = 0.5                 # level-promotion coin
C_MSG = 4.0             # per-node per-round message cap factor (x log^2 n)
C_COMM = 2.0            # committee size target factor (x log n)
C_LO = 1.0              # committee lower audit bound factor (x log n)
C_HI_MEAN = 2.0         # committee upper audit bound factor (x mean size)
BETA_BOOTSTRAP = 16.0   # bootstrap rounds B = beta * log2 n
C_CHURN = 1.0           # admissible churn-rate cap factor (x n / log n)
C_CYCLE = 4.0           # cycle round budget factor (x log^2 n)


def log2n(n: int) -> float:
    return math.log2(max(2, n))


def ceil_log2(n: int) -> int:
    return max(1, math.ceil(log2n(n)))


def butterfly_k(n: int) -> int:
    """Largest k with k * 2^k committees of ~C_COMM*log2(n) members, or 0.

    k = 0 means the degenerate single-committee overlay used below the
    smallest viable size.
    """
    budget = n / (C_COMM * log2n(n))
    k = 0
    while (k + 1) * 2 ** (k + 1) <= budget:
        k += 1
    return k


@dataclass(frozen=True)
class SimParams:
    n: int
    seed_adv: int = 1
    seed_alg: int = 2
    strategy: str = "uniform_random"
    churn_rate: int = 0
    horizon_cycles: int = 10
    query_density: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n", "must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ConfigError("strategy", f"unknown strategy {self.strategy!r}, "
                              f"expected one of {', '.join(STRATEGIES)}")
        if self.churn_rate < 0:
            raise ConfigError("churn_rate", "must be >= 0")
        if self.churn_rate > self.churn_cap:
            raise ConfigError("churn_rate", f"{self.churn_rate} exceeds cap {self.churn_cap}")
        if self.horizon_cycles < 0:
            raise ConfigError("horizon_cycles", "must be >= 0")
        if not 0.0 <= self.query_density <= 1.0:
            raise ConfigError("query_density", "must be in [0, 1]")

    # -- derived quantities -------------------------------------------------
    # computed once per instance; a frozen instance never changes, and
    # with_overrides builds a new one

    @cached_property
    def message_cap(self) -> int:
        """Per-node per-round send cap."""
        return max(16, int(C_MSG * log2n(self.n) ** 2))

    @cached_property
    def churn_cap(self) -> int:
        return math.floor(C_CHURN * self.n / log2n(self.n))

    @cached_property
    def bootstrap_rounds(self) -> int:
        return math.ceil(BETA_BOOTSTRAP * log2n(self.n))

    @cached_property
    def k(self) -> int:
        return butterfly_k(self.n)

    @cached_property
    def committee_count(self) -> int:
        k = self.k
        return k * 2 ** k if k >= 1 else 1

    @cached_property
    def committee_mean(self) -> float:
        return self.n / self.committee_count

    @cached_property
    def committee_lo(self) -> int:
        return max(1, math.floor(C_LO * log2n(self.n)))

    @cached_property
    def committee_hi(self) -> int:
        return math.ceil(C_HI_MEAN * self.committee_mean)

    @cached_property
    def tick_period(self) -> int:
        return max(1, math.ceil(2 * math.log2(max(2.0, log2n(self.n)))))

    @cached_property
    def id_space(self) -> int:
        return max(64, self.n ** 3)

    @cached_property
    def alpha_window(self) -> int:
        """Back-shift of the competitiveness window, alpha = 2 log2 n."""
        return 2 * ceil_log2(self.n)

    @cached_property
    def beta_bound(self) -> float:
        """Competitiveness ratio bound, log2(n)^3."""
        return log2n(self.n) ** 3

    @cached_property
    def cycle_budget(self) -> int:
        return math.ceil(C_CYCLE * log2n(self.n) ** 2)

    def with_overrides(self, **kw) -> "SimParams":
        return replace(self, **kw)
