import pytest

from churnskip import metrics
from churnskip.errors import EmptyWindow
from churnskip.maintenance import Simulation
from churnskip.params import SimParams
from churnskip.simcore import LedgerRow, WorkLedger
from churnskip.skiplist import oracle_build, sample_height
import metrics_reference
import random


def ledger_from(rows):
    """A ledger that sealed rows in order, through its own seal path, which
    takes each field's running total through the round."""
    ledger = WorkLedger()
    totals = [0] * 5
    for i, row in enumerate(rows):
        assert row.round == i
        totals = [t + v for t, v in zip(totals, (
            row.messages_sent, row.edges_formed, row.edges_deleted,
            row.churn_in, row.churn_out))]
        ledger.seal(*totals, row.phase_tag, row.cycle_phase)
    assert list(ledger.rows) == rows
    return ledger


def test_zero_window_ratio():
    ledger = ledger_from([LedgerRow(i) for i in range(10)])
    report = metrics.competitiveness(ledger, 2, 5, alpha=2, beta_bound=8.0)
    assert report.work == 0
    assert report.ratio == 0.0
    assert not report.flagged


def test_empty_window_rejected():
    ledger = ledger_from([LedgerRow(0)])
    with pytest.raises(EmptyWindow):
        metrics.competitiveness(ledger, 5, 5, 1, 1.0)
    with pytest.raises(EmptyWindow):
        metrics.competitiveness(ledger, 0, 5, -1, 1.0)


def test_backshift_captures_prior_spike():
    # churn spike at rounds 2-3, work during 6-9: alpha=0 flags, alpha=4 passes
    rows = []
    for i in range(12):
        row = LedgerRow(i)
        if i in (2, 3):
            row.churn_in = row.churn_out = 5
        if 6 <= i <= 9:
            row.messages_sent = 40
        rows.append(row)
    ledger = ledger_from(rows)
    flat = metrics.competitiveness(ledger, 6, 9, alpha=0, beta_bound=10.0)
    assert flat.flagged
    shifted = metrics.competitiveness(ledger, 6, 9, alpha=4, beta_bound=10.0)
    assert not shifted.flagged
    assert shifted.churn_shifted == 20


def test_window_reads_only_its_rows():
    # the result equals a scan of every row and the row walk kept as the
    # reference, for windows clipped at round 0, inside the ledger, ending
    # at its last row and running past it, and for random windows
    rng = random.Random(4)
    rows = [LedgerRow(i, messages_sent=rng.randrange(50), edges_formed=rng.randrange(9),
                      edges_deleted=rng.randrange(9), churn_in=rng.randrange(4),
                      churn_out=rng.randrange(4)) for i in range(30)]
    ledger = ledger_from(rows)
    windows = [(0, 5, 3), (2, 9, 6), (1, 4, 0), (10, 20, 4),
               (20, 29, 5), (25, 40, 2), (31, 35, 3), (3, 50, 40)]
    for _ in range(300):
        t_s = rng.randrange(40)
        windows.append((t_s, t_s + 1 + rng.randrange(30), rng.randrange(45)))
    assert any(t_s - alpha < 0 for t_s, _, alpha in windows)
    assert any(t_e + 1 > len(rows) for _, t_e, _ in windows)
    for t_s, t_e, alpha in windows:
        report = metrics.competitiveness(ledger, t_s, t_e, alpha, 1.0)
        work = sum(r.messages_sent + r.edges_formed + r.edges_deleted
                   for r in rows if t_s <= r.round <= t_e)
        churn = sum(r.churn_in + r.churn_out for r in rows if t_s - alpha <= r.round <= t_e)
        assert (report.work, report.churn_shifted) == (work, churn), (t_s, t_e, alpha)
        assert report == metrics_reference.competitiveness(ledger, t_s, t_e, alpha, 1.0)
    # the prefix sums give the totals the rows sum to
    assert ledger.totals() == {name: sum(getattr(r, name) for r in rows) for name in (
        "messages_sent", "edges_formed", "edges_deleted", "churn_in", "churn_out")}


def test_cycle_window_reports():
    params = SimParams(n=128, seed_adv=2, seed_alg=3, churn_rate=2,
                       horizon_cycles=4)
    sim = Simulation(params)
    sim.run()
    reports = metrics.cycle_windows(sim)
    assert len(reports) == len(sim.cycles)
    for rep in reports:
        assert rep.ratio <= params.beta_bound
        assert rep == metrics_reference.competitiveness(
            sim.world.ledger, rep.t_s, rep.t_e, rep.alpha, rep.beta_bound)


def test_height_and_run_length_checks():
    rng = random.Random(0)
    keys = list(range(4096))
    net = oracle_build(keys, [sample_height(rng) for _ in keys])
    assert metrics.max_height_ok(net, 4096)
    m = metrics.mean_run_length(net)
    assert 1.8 <= m <= 2.2


def test_whp_report_and_csv():
    sims = []
    for seed in (1, 2):
        params = SimParams(n=128, seed_adv=seed, seed_alg=seed + 50,
                           churn_rate=2, horizon_cycles=3, query_density=0.005)
        sim = Simulation(params)
        sim.run()
        sims.append(sim)
    report = metrics.whp_report(sims, search_probe=50)
    assert report.seeds == 2
    assert report.failures == 0
    assert report.height_violations == 0
    assert report.search_tail_violations == 0
    assert report.searches == 100
    rows = metrics.csv_rows(sims)
    assert rows[0] == "n,seed,cycle,rounds,ratio"
    assert len(rows) == 1 + sum(len(s.cycles) for s in sims)
