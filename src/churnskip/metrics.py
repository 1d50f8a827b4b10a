"""Work-vs-churn competitiveness audit, distributional checks, and report
emission.

The competitiveness ratio for a window [t_s, t_e] divides the ledger work
(messages + edges formed + edges deleted) by the churn absorbed in the
back-shifted window [t_s - alpha, t_e]; the back-shift credits work that
lags the churn spike that caused it. Both sums are differences of the
ledger's prefix sums, so a window costs O(1) whatever its length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import mean

from .errors import EmptyWindow
from .params import P
from .simcore import WorkLedger


@dataclass
class CompetitivenessReport:
    t_s: int
    t_e: int
    work: int
    churn_shifted: int
    alpha: int
    beta_bound: float

    @property
    def ratio(self) -> float:
        return self.work / max(1, self.churn_shifted)

    @property
    def flagged(self) -> bool:
        return self.ratio > self.beta_bound

    def as_record(self) -> dict:
        return {"t_s": self.t_s, "t_e": self.t_e, "work": self.work,
                "churn_shifted": self.churn_shifted, "alpha": self.alpha,
                "ratio": round(self.ratio, 3), "beta_bound": round(self.beta_bound, 3),
                "flagged": self.flagged}


def competitiveness(ledger: WorkLedger, t_s: int, t_e: int, alpha: int,
                    beta_bound: float) -> CompetitivenessReport:
    if t_e <= t_s or t_s < 0 or alpha < 0:
        raise EmptyWindow(f"bad window [{t_s}, {t_e}] with back-shift {alpha}")
    work = ledger.between(t_s, t_e + 1)[0]
    churn = ledger.between(t_s - alpha, t_e + 1)[1]
    return CompetitivenessReport(t_s, t_e, work, churn, alpha, beta_bound)


def cycle_windows(sim) -> list[CompetitivenessReport]:
    """One report per completed cycle of a finished simulation."""
    params = sim.params
    return [
        competitiveness(sim.world.ledger, c.start_round, c.end_round,
                        params.alpha_window, params.beta_bound)
        for c in sim.cycles if c.end_round > c.start_round
    ]


def ledger_complete(sim) -> bool:
    """No uncharged work: category totals tile the ledger totals."""
    return sum(sim.world.ledger.category_totals.values()) == \
        sim.world.ledger.work_total()


# -- distributional checks (the statistical test oracle suite) ---------------


def max_height_ok(net, n: int) -> bool:
    bound = 4 * math.log(max(2, n), 1 / P) + 1
    return all(h <= bound for h in net.heights.values())


def mean_run_length(net) -> float:
    """The mean length of the maximal same-height runs, sentinels excluded."""
    runs = [len(run) for run in net.same_height_runs()]
    return mean(runs) if runs else 0.0


@dataclass
class WhpReport:
    seeds: int
    failures: int
    committee_excursions: int
    height_violations: int
    search_tail_violations: int
    searches: int
    run_length_mean: float
    q_violations: int
    stalled: int

    def as_record(self) -> dict:
        return self.__dict__.copy()

    def lines(self):
        rec = self.as_record()
        width = max(len(k) for k in rec)
        for k, v in rec.items():
            yield f"{k.ljust(width)}  {v}"


def whp_report(sims, search_probe: int = 0) -> WhpReport:
    """Aggregate empirical rates over >= 20 seeded finished runs."""
    import random

    from .skiplist import search as do_search

    sims = list(sims)
    failures = 0
    excursions = 0
    height_viol = 0
    tail_viol = 0
    searches = 0
    runs = []
    q_viol = 0
    stalled = 0
    for sim in sims:
        params = sim.params
        failures += len(sim.world.failures)
        lo, hi = params.committee_lo, params.committee_hi
        for census in sim.overlay.census_log:
            if census.min_size < lo or census.max_size > hi:
                excursions += 1
        if not max_height_ok(sim.clean, params.n):
            height_viol += 1
        runs.append(mean_run_length(sim.clean))
        q_viol += len(sim.query_violations())
        stalled += sum(sim.query_log.stalled)
        if search_probe:
            rng = random.Random(params.seed_alg ^ 0xA5)
            keys = sorted(sim.clean.heights)
            bound = 16 * math.log2(max(2, params.n))
            for _ in range(search_probe):
                target = keys[rng.randrange(len(keys))]
                res = do_search(sim.clean, target)
                searches += 1
                if res.h_moves > bound:
                    tail_viol += 1
    return WhpReport(
        seeds=len(sims),
        failures=failures,
        committee_excursions=excursions,
        height_violations=height_viol,
        search_tail_violations=tail_viol,
        searches=searches,
        run_length_mean=round(mean(runs), 4) if runs else 0.0,
        q_violations=q_viol,
        stalled=stalled,
    )


def csv_rows(sims) -> list[str]:
    """Plot-ready rows: n, seed, cycle, rounds, ratio."""
    out = ["n,seed,cycle,rounds,ratio"]
    for sim in sims:
        for report, cyc in zip(cycle_windows(sim), sim.cycles):
            out.append(f"{sim.params.n},{sim.params.seed_adv},{cyc.cycle},"
                       f"{cyc.end_round - cyc.start_round},{report.ratio:.3f}")
    return out
