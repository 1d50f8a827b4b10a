"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
pass lines; tolerances are frozen here and nowhere else.
"""

import math
import multiprocessing
import os
import random
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from itertools import product

import pytest

from churnskip import metrics
from churnskip.errors import COMMITTEE_DESTROYED
from churnskip.fixtures import MERGE_GOLDEN_TRACE, delete_instance, merge_instance
from churnskip.maintenance import Simulation
from churnskip.params import SimParams
from churnskip.phase_buffer import raise_levels
from churnskip.phase_delete import delete_phase
from churnskip.phase_merge import WaveEngine, wave_merge
from churnskip.phase_update import live_equals_clean
from churnskip.skiplist import (
    LS,
    RS,
    key_name,
    oracle_build,
    sample_height,
    search,
)
from churnskip.overlay import bootstrap_overlay
from buffer_reference import build_bitonic
from delete_reference import expected_bridges
from merge_reference import MERGE_NARRATIVE
from overlay_reference import assignment, validate_cliques
from overlay_reshape import committee_opinions, reshape
from skiplist_reference import oracle_delete, oracle_merge


def verdict(num, ok, text):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


# -- shared corpora -----------------------------------------------------------


N5 = 1024
RATE5 = N5 // (10 * math.ceil(math.log2(N5)) ** 2)   # bitonic-regime rate
SEEDS5 = 20
CYCLES5 = 50


def corpus_figures(seed: int) -> dict:
    """Run seed `seed` of the churn corpus and return what criteria 5-8
    read of it."""
    params = SimParams(n=N5, seed_adv=100 + seed, seed_alg=500 + seed,
                       churn_rate=RATE5, horizon_cycles=CYCLES5,
                       query_density=0.0006)
    sim = Simulation(params)
    sim.run()
    budget = sim.q_budget()
    reports = metrics.cycle_windows(sim)
    return {
        "failures": len(sim.world.failures),
        "stalled": sum(1 for q in sim.query_log if q.stalled),
        "violations": len(sim.query_violations()),
        "queries": len(sim.query_log),
        "classes": Counter(sim.classify_query(q.x, q.r, budget) for q in sim.query_log),
        "worst_ratio": max((r.ratio for r in reports), default=0.0),
        "flagged": sum(1 for r in reports if r.flagged),
        "ledger_complete": metrics.ledger_complete(sim),
        "update_work": sim.world.ledger.category_totals["update"],
        "live_equals_clean": live_equals_clean(sim.clean),
        "audits": sim.covering_audits,
        "lost_covers": sum(1 for f in sim.world.failures
                           if f.kind == COMMITTEE_DESTROYED),
        "departures": sim.world.ledger.totals()["churn_out"],
    }


@pytest.fixture(scope="module")
def churn_corpus():
    """The figures of each seed, from runs built in at most two worker
    processes, and the wall time of building them all."""
    start = time.time()
    workers = min(2, os.cpu_count() or 1)
    # spawned workers import this module afresh and share no state with
    # the test process
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
        figures = list(pool.map(corpus_figures, range(SEEDS5)))
    elapsed = time.time() - start
    return figures, elapsed


# -- criterion 1: sorting network ----------------------------------------------


def test_criterion_1_sorting_network():
    t0 = time.time()
    for m in range(1, 17):
        net = build_bitonic(m)
        for bits in product((0, 1), repeat=m):
            assert net.apply(list(bits)) == sorted(bits)
    rng = random.Random(0)
    for m in (32, 128, 512):
        net = build_bitonic(m)
        for _ in range(500):
            values = rng.sample(range(4 * m), m)
            assert net.apply(values) == sorted(values)
    elapsed = time.time() - t0
    verdict(1, elapsed < 5.0,
            f"0-1 principle exhaustive to width 16 and 1500 random "
            f"permutations sorted exactly ({elapsed:.1f}s < 5s)")


# -- criterion 2: batch delete ---------------------------------------------------


def test_criterion_2_batch_delete():
    t0 = time.time()
    checked = 0
    for n in (64, 512):
        for seed in range(100):
            rng = random.Random(1000 * n + seed)
            keys = sorted(rng.sample(range(10 * n), n))
            heights = [sample_height(rng) for _ in keys]
            net = oracle_build(keys, heights)
            reds = set(rng.sample(keys, n // 5))
            per_level = {
                lvl: expected_bridges([LS, *net.iter_level(lvl), RS], reds)
                for lvl in range(net.height + 1)
            }
            reference = oracle_build(keys, heights)
            oracle_delete(reference, reds)
            delete_phase(net, reds)
            assert net.same_structure(reference)
            assert net.validate().ok
            blacks = {k: h for k, h in zip(keys, heights) if k not in reds}
            for lvl, pairs in per_level.items():
                level = [LS] + [k for k in sorted(blacks)
                                if blacks[k] >= lvl] + [RS]
                rank = {k: i for i, k in enumerate(level)}
                for a, b in pairs:
                    assert rank[b] == rank[a] + 1   # level-consecutive blacks
            checked += 1
    # the worked deletion instance reproduces the post-deletion structure
    net, reds = delete_instance()
    keys = sorted(k for k in net.heights if k not in reds)
    reference = oracle_build(keys, [net.heights[k] for k in keys])
    delete_phase(net, reds)
    assert net.same_structure(reference)
    elapsed = time.time() - t0
    verdict(2, checked == 200 and elapsed < 10.0,
            f"200 seeded deletions link-for-link equal to the sequential "
            f"oracle, bridges level-consecutive, worked instance exact "
            f"({elapsed:.1f}s < 10s)")


# -- criterion 3: wave merge -----------------------------------------------------


def test_criterion_3_wave_equivalence():
    t0 = time.time()
    splits_seen = 0
    for seed in range(200):
        rng = random.Random(seed)
        pool = rng.sample(range(20480), 1024)
        c_keys, b_keys = sorted(pool[:512]), sorted(pool[512:])
        heights = {k: sample_height(rng) for k in pool}
        clean = oracle_build(c_keys, [heights[k] for k in c_keys])
        buf, _ = raise_levels(b_keys, {k: heights[k] for k in b_keys})
        summary, _, events = wave_merge(clean, buf)
        reference = oracle_merge(
            oracle_build(c_keys, [heights[k] for k in c_keys]), b_keys, heights)
        assert clean.same_structure(reference)
        assert clean.validate().ok
        splits_seen += summary.splits
    clean, heights = merge_instance()
    buf, _ = raise_levels(sorted(heights), heights)
    _, _, events = wave_merge(clean, buf)
    got = [e[1:5] for e in events]      # round, group_leader, event, level
    assert got == MERGE_GOLDEN_TRACE     # event-for-event golden trace
    narrative = [(e, key_name(leader), lv) for _, leader, e, lv in got]
    idx = 0
    for want in MERGE_NARRATIVE:
        while idx < len(narrative) and narrative[idx] != want:
            idx += 1
        assert idx < len(narrative), f"missing narrative event {want}"
        idx += 1
    elapsed = time.time() - t0
    verdict(3, splits_seen > 0 and elapsed < 30.0,
            f"200 seeded 512+512 merges exactly equal the fixed-height "
            f"insertion oracle; split dichotomy asserted on {splits_seen} "
            f"splits; golden trace event-for-event ({elapsed:.1f}s < 30s)")


# -- criterion 4: merge round scaling ----------------------------------------------


def test_criterion_4_merge_round_scaling():
    t0 = time.time()
    per_log = {}
    for n in (256, 512, 1024, 2048, 4096):
        rounds = []
        for seed in range(3):
            rng = random.Random(seed)
            pool = rng.sample(range(20 * n), 2 * n)
            c_keys, b_keys = sorted(pool[:n]), sorted(pool[n:])
            heights = {k: sample_height(rng) for k in pool}
            clean = oracle_build(c_keys, [heights[k] for k in c_keys])
            buf, _ = raise_levels(b_keys, {k: heights[k] for k in b_keys})
            engine = WaveEngine(clean, buf)
            rounds.append(len([*engine.pre.rows, *engine.rounds()]))
        per_log[n] = sum(rounds) / len(rounds) / math.log2(n)
    fit = per_log[256]
    worst = max(per_log.values())
    elapsed = time.time() - t0
    verdict(4, worst <= 2 * fit and elapsed < 120.0,
            f"wave rounds per log2(n) stay within factor 2 of the n=256 fit "
            f"({fit:.2f}) across the sweep (max {worst:.2f}; {elapsed:.1f}s < 2min)")


# -- criteria 5-8: the churn corpus ---------------------------------------------------


def test_criterion_5_end_to_end_churn(churn_corpus):
    figures, elapsed = churn_corpus
    failures = sum(f["failures"] for f in figures)
    stalled = sum(f["stalled"] for f in figures)
    violations = sum(f["violations"] for f in figures)
    queries = sum(f["queries"] for f in figures)
    assert queries >= 10_000
    # the correctness claim is not vacuous: both checked classes occur often
    classes = figures[0]["classes"]
    assert classes["present"] > 100 and classes["absent"] > 100
    verdict(5, failures == 0 and stalled == 0 and violations == 0
            and elapsed < 300.0,
            f"20 seeds x 50 cycles at n={N5}, rate {RATE5}/round: "
            f"0 protocol failures, 0 stalled, {queries} queries all correct "
            f"within one cycle ({elapsed:.0f}s < 5min)")


def test_criterion_6_competitiveness(churn_corpus):
    figures, _ = churn_corpus
    t0 = time.time()
    worst = 0.0
    for f in figures:
        worst = max(worst, f["worst_ratio"])
        assert not f["flagged"]
        assert f["ledger_complete"]

    # burst schedule: a quiet window bearing delayed work flags at alpha=0
    # and passes with the back-shift
    n = 256
    rate = n // (10 * math.ceil(math.log2(n)))
    params = SimParams(n=n, seed_adv=77, seed_alg=78, churn_rate=rate,
                       horizon_cycles=12, strategy="burst")
    sim = Simulation(params)
    sim.run()
    rows = sim.world.ledger.rows
    alpha = params.alpha_window
    beta = params.beta_bound
    demo = None
    for start in range(params.bootstrap_rounds + 1, len(rows) - 8):
        window = rows[start:start + 8]
        if any(r.churn_in or r.churn_out for r in window):
            continue
        before = rows[max(0, start - alpha):start]
        if not any(r.churn_in or r.churn_out for r in before):
            continue
        flat = metrics.competitiveness(sim.world.ledger, start, start + 7,
                                       0, beta)
        shifted = metrics.competitiveness(sim.world.ledger, start, start + 7,
                                          alpha, beta)
        if flat.flagged and not shifted.flagged:
            demo = (start, flat.ratio, shifted.ratio)
            break
    elapsed = time.time() - t0
    bound = math.log2(N5) ** 3
    verdict(6, worst <= bound and demo is not None,
            f"all one-cycle windows satisfy W/C <= log2(n)^3 (worst "
            f"{worst:.0f} vs {bound:.0f}); burst window at round {demo and demo[0]} "
            f"flags at alpha=0 (ratio {demo and round(demo[1])}) and passes "
            f"back-shifted (ratio {demo and round(demo[2], 1)}) "
            f"({elapsed:.1f}s < 1min)")


def test_criterion_7_update_zero_work(churn_corpus):
    figures, _ = churn_corpus
    # every charge is non-negative, so a run total of 0 is 0 in every cycle
    ok = all(f["update_work"] == 0 and f["live_equals_clean"] for f in figures)
    verdict(7, ok, "update phase charged 0 messages and 0 edges in every "
                   "cycle; live equals clean as labeled edge sets")


def test_criterion_8_covering_latency(churn_corpus):
    figures, _ = churn_corpus
    total = sum(f["audits"] for f in figures)
    bad = sum(f["lost_covers"] for f in figures)
    departures = sum(f["departures"] for f in figures)
    verdict(8, total > 0 and bad == 0 and total + bad == departures,
            f"every one of {total} departures had its committee speaker "
            f"alive at the end of its departure round (reachability from "
            f"its former neighbors is not checked)")


# -- criterion 9: statistical suite ------------------------------------------------


def test_criterion_9_statistical_suite():
    t0 = time.time()
    n = 4096
    bound_h = 4 * math.log2(n) + 1
    bound_search = 16 * math.log2(n)
    height_viol = run_viol = search_viol = searches = 0
    for seed in range(50):
        rng = random.Random(seed)
        keys = list(range(n))
        heights = [sample_height(rng) for _ in keys]
        net = oracle_build(keys, heights)
        net.live = set(keys)      # a finished run's clean list: every key live
        if max(heights) > bound_h:
            height_viol += 1
        mean_run = metrics.mean_run_length(net)
        if not 1.8 <= mean_run <= 2.2:
            run_viol += 1
        for _ in range(200):
            res = search(net, rng.randrange(n))
            searches += 1
            if res.h_moves > bound_search:
                search_viol += 1
    elapsed = time.time() - t0
    verdict(9, height_viol == 0 and run_viol == 0 and search_viol == 0
            and elapsed < 60.0,
            f"50 seeds at n=4096: heights <= {bound_h:.0f}, run-length means "
            f"in [1.8, 2.2], 0/{searches} searches over {bound_search:.0f} "
            f"horizontal moves ({elapsed:.1f}s < 1min)")


# -- criterion 10: reshaping -----------------------------------------------------------


def test_criterion_10_reshaping():
    t0 = time.time()
    n = 256
    state, _ = bootstrap_overlay(range(n), random.Random(0))
    k0 = state.k
    rng = random.Random(9)
    addrs = state.addresses(state.k)
    for node in range(n, 2 * n):
        state.place(node, addrs[node % len(addrs)])
    opinions = committee_opinions(state, n)
    assert set(opinions.values()) == {"grow"}
    grown, rounds_g, _ = reshape(state, opinions, rng, 2 * n)
    ok = grown.k == k0 + 1
    ok &= validate_cliques(grown) == "OK"
    ok &= rounds_g <= 8 * math.log2(2 * n)
    target = math.ceil(0.75 * math.log2(2 * n))
    ok &= min(grown.sizes()) >= target - 1

    for node in range(n, 2 * n):
        grown.remove_member(node)
    # scripted shrink: the population is back at n, every committee votes
    opinions = {addr: "shrink" for addr in grown.addrs}
    shrunk, rounds_s, _ = reshape(grown, opinions, rng, n)
    ok &= shrunk.k == k0
    ok &= validate_cliques(shrunk) == "OK"
    ok &= rounds_s <= 8 * math.log2(n)
    ok &= min(shrunk.sizes()) >= math.ceil(0.75 * math.log2(n)) - 1
    ok &= set(assignment(shrunk)) == set(range(n))
    elapsed = time.time() - t0
    verdict(10, ok and elapsed < 30.0,
            f"grow k={k0}->{k0 + 1} then shrink back: "
            f"cliques validate at each k, committees reach Theta(log n') "
            f"within {rounds_g} and {rounds_s} rounds ({elapsed:.1f}s < 30s)")
