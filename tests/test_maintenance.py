import gc
import os
from array import array
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from churnskip import adversary, cli, maintenance, metrics
from churnskip.adversary import Query, gen_queries, gen_schedule
from churnskip.errors import (COMMITTEE_DESTROYED, LIVE_MISMATCH, STALLED, DirtyLabels,
                              RateTooHigh)
from churnskip.maintenance import Simulation
from churnskip.phase_merge import MergeLog, WaveEngine
from churnskip.overlay import CommitteeOverlay
from churnskip.params import STRATEGIES, SimParams
from churnskip.phase_update import UpdateSummary, live_equals_clean, update_phase
from churnskip.skiplist import is_sentinel, oracle_build, search
import adversary_reference
from overlay_reference import members
from search_reference import reference_search
from world_reference import IdDict


def small_sim(n=64, rate=1, cycles=4, density=0.0, seed=1, **kw):
    params = SimParams(n=n, seed_adv=seed, seed_alg=seed + 1, churn_rate=rate,
                       horizon_cycles=cycles, query_density=density, **kw)
    return Simulation(params)


def test_bootstrap_builds_live_and_clean():
    sim = small_sim(n=64, rate=0, cycles=0)
    sim.bootstrap_all()
    assert sim.clean.validate().ok
    assert set(sim.clean.heights) == set(range(64))
    assert live_equals_clean(sim.clean)
    assert not sim.clean.pending          # all labels already "11"
    assert sim.world.round == sim.params.bootstrap_rounds


def test_bootstrap_single_node():
    sim = small_sim(n=1, rate=0, cycles=0)
    sim.bootstrap_all()
    assert list(sim.clean.heights) == [0]
    assert sim.clean.validate().ok


def test_zero_churn_cycle_is_noop():
    sim = small_sim(n=64, rate=0, cycles=3)
    sim.run()
    for c in sim.cycles:
        assert c.reds == 0 and c.joiners == 0
        assert c.phase_rounds[0] == 0 and c.phase_rounds[1] == 0
    assert set(sim.clean.heights) == set(range(64))


def test_cycle_boundary_key_sets_match():
    sim = small_sim(n=128, rate=2, cycles=6)
    sim.run()
    # at every cycle boundary live == clean as labeled edge sets and keys
    assert live_equals_clean(sim.clean)
    assert sim.clean.validate().ok


def test_churned_keys_eventually_leave_clean():
    sim = small_sim(n=128, rate=2, cycles=6)
    sim.run()
    alive = sim.world.alive
    keys = set(sim.clean.heights)
    # a key departing in cycle c is out of the structure by end of c+1
    for key in IdDict(sim.world.heights):
        _, left = sim.schedule.lifetime(key)
        if left is not None and left < sim.cycles[-2].start_round:
            assert key not in keys
    # a key joining in cycle c that survives is live by end of cycle c+1
    for key in alive:
        joined, _ = sim.schedule.lifetime(key)
        if joined < sim.cycles[-2].start_round:
            assert key in sim.clean.live


def test_queries_served_during_phases():
    sim = small_sim(n=128, rate=2, cycles=6, density=0.01, seed=5)
    sim.run()
    assert sim.query_log
    assert not sim.query_violations()
    phases = {"Delete", "BufferCreate", "Merge", "Update"}
    rows = {r.round: r.cycle_phase for r in sim.world.ledger.rows}
    served_phases = {rows.get(q.r, "-") for q in sim.query_log}
    assert served_phases & phases   # queries interleave with phase traffic


def test_serve_query_answers_present_and_ghost_keys():
    sim = small_sim(n=64, rate=0, cycles=1)
    sim.run()
    out = sim._serve_query(*Query(x=10, r=sim.world.round, s=0))
    assert out.answer is True
    ghost = sim._serve_query(*Query(x=999_999, r=sim.world.round, s=0))
    assert ghost.answer is False


def test_update_phase_flips_and_rejects_stale():
    net = oracle_build([1, 2, 3], [0, 1, 0])
    net.set_link(1, 2, 0, pending=True)
    summary = update_phase(net)
    assert summary.labels_flipped == 1
    assert live_equals_clean(net)
    assert update_phase(net).labels_flipped == 0   # fixpoint
    net.pending.add((0, 7, 9))
    with pytest.raises(DirtyLabels):
        update_phase(net)


def test_skipped_update_is_recorded_as_live_mismatch(monkeypatch):
    sim = small_sim(n=64, rate=1, cycles=1)
    sim.bootstrap_all()
    monkeypatch.setattr(maintenance, "update_phase", lambda net: UpdateSummary())
    while not sim.world.failures:   # the first cycle may have no joiners to merge
        assert len(sim.cycles) < 4
        sim.run_cycle()
    assert not live_equals_clean(sim.clean)
    assert [f.kind for f in sim.world.failures] == [LIVE_MISMATCH]


def test_update_category_work_is_zero():
    sim = small_sim(n=128, rate=2, cycles=5)
    sim.run()
    assert sim.world.ledger.category_totals["update"] == 0


def test_covering_latency_audit_all_ok():
    sim = small_sim(n=128, rate=2, cycles=5)
    sim.run()
    assert sim.covering_audits > 0
    assert COMMITTEE_DESTROYED not in {f.kind for f in sim.world.failures}
    assert not sim._pending_covers


def test_ledger_completeness():
    sim = small_sim(n=128, rate=2, cycles=5, density=0.01)
    sim.run()
    assert metrics.ledger_complete(sim)


def test_cycle_round_budget():
    sim = small_sim(n=256, rate=2, cycles=8)
    sim.run()
    for c in sim.cycles:
        assert c.end_round - c.start_round <= sim.params.cycle_budget


def test_replayed_schedule_gives_identical_run():
    # the second run goes past its nominal horizon of 1100 rounds, to 1241,
    # and its queries come from the rounds to the nominal horizon only
    for params in (SimParams(n=128, seed_adv=9, seed_alg=10, churn_rate=2,
                             horizon_cycles=4, query_density=0.005),
                   SimParams(n=128, seed_adv=1, seed_alg=2, churn_rate=3,
                             horizon_cycles=5, query_density=0.05)):
        a = Simulation(params)
        a.run()
        text = a.schedule.serialize()
        replay = adversary_reference.deserialize(text)
        assert replay.serialize() == text
        b = Simulation(params, schedule=replay)
        b.run()
        assert list(a.world.trace_lines()) == list(b.world.trace_lines())
        assert a.clean.same_structure(b.clean)


def test_targeted_strategy_full_run():
    sim = small_sim(n=256, rate=3, cycles=6, density=0.004, seed=21,
                    strategy="targeted_committee")
    sim.run()
    assert not sim.world.failures
    assert not sim.query_violations()
    assert sim.clean.validate().ok


def test_burst_strategy_full_run():
    sim = small_sim(n=256, rate=3, cycles=6, density=0.004, seed=22,
                    strategy="burst")
    sim.run()
    assert not sim.world.failures
    assert not sim.query_violations()
    assert sim.clean.validate().ok
    churny = [r for r in sim.world.ledger.rows if r.churn_out]
    quiet = [r for r in sim.world.ledger.rows
             if not r.churn_out and r.phase_tag == "Maintenance"]
    assert churny and quiet


def test_odd_sizes_survive():
    for n in (17, 100):
        sim = small_sim(n=n, rate=1, cycles=3, density=0.01, seed=n)
        sim.run()
        assert not sim.world.failures
        assert not sim.query_violations()
        assert sim.clean.validate().ok


def test_committee_destroyed_is_counted_not_fatal():
    # white-box: wipe one committee entirely, then let another member of it
    # depart; covering has nobody left, the event is counted, the run goes on
    sim = small_sim(n=64, rate=1, cycles=1)
    sim.bootstrap_all()
    addr = sim.overlay.addrs[0]
    victim, *rest = sorted(members(sim.overlay, addr))
    for node in rest:
        sim.overlay.remove_member(node)
    sim.world.alive.discard(victim)
    sim._on_depart(victim)
    kinds = [f.kind for f in sim.world.failures]
    assert "CommitteeDestroyed" in kinds
    sim.run_cycle()   # still operable
    assert sim.clean.validate().ok


def test_cover_lost_within_its_round_fails_and_stalls(monkeypatch):
    # white-box: cover a departed member of a committee, then empty that
    # committee before the round's end; the end-of-round check finds no
    # speaker, and the key stalls a search until the delete phase
    sim = small_sim(n=64, rate=0, cycles=1)
    sim.bootstrap_all()
    # a reassignment tick would run before the check and refill the committee
    while (sim.world.round + 1) % sim.params.tick_period == 0:
        sim._advance("-")
    addr = sim.overlay.addrs[0]
    victim, *rest = sorted(members(sim.overlay, addr))
    sim.world.alive.discard(victim)
    sim._on_depart(victim)
    assert victim in sim.overlay.covered_index
    for node in rest:
        sim.overlay.remove_member(node)
    sim._advance("-")
    assert [f.kind for f in sim.world.failures] == [COMMITTEE_DESTROYED]
    assert victim in sim.uncovered
    assert victim not in sim.overlay.covered_index
    assert sim.covering_audits == 0
    _serve_both_ways(sim, monkeypatch)
    out = sim._serve_query(*Query(x=victim, r=sim.world.round, s=0))
    assert out.stalled and out.answer is False
    sim.run_cycle()
    assert victim not in sim.clean.heights and not sim.uncovered


def test_covered_key_answers_until_deleted():
    # a departed-but-covered key is still answerable (its committee speaks);
    # after the next delete phase it is gone and answers No
    sim = small_sim(n=64, rate=0, cycles=1)
    sim.bootstrap_all()
    key = 33
    sim.world.alive.discard(key)
    sim._on_depart(key)
    assert key in sim.overlay.covered_index
    before = sim._serve_query(*Query(x=key, r=sim.world.round, s=0))
    assert before.answer is True and not before.stalled
    sim.run_cycle()
    after = sim._serve_query(*Query(x=key, r=sim.world.round, s=0))
    assert after.answer is False
    assert key not in sim.clean.heights


def test_targeted_strategy_at_scale():
    params = SimParams(n=1024, seed_adv=31, seed_alg=32, churn_rate=3,
                       horizon_cycles=10, query_density=0.001,
                       strategy="targeted_committee")
    sim = Simulation(params)
    sim.run()
    assert not sim.world.failures
    assert not sim.query_violations()
    assert sim.clean.validate().ok


def test_final_content_matches_lifecycle_bookkeeping():
    for seed in (3, 4, 5):
        sim = small_sim(n=128, rate=2, cycles=6, seed=seed)
        sim.run()
        expected = set(IdDict(sim.entered_live)) - set(IdDict(sim.removed_clean))
        assert set(sim.clean.heights) == expected
        # and everything integrated kept its join-time tower height
        heights = IdDict(sim.world.heights)
        for key in sim.clean.heights:
            assert sim.clean.heights[key] == heights[key]


def test_simulation_imports_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = ("import sys\n"
            "from churnskip import SimParams, Simulation\n"
            "Simulation(SimParams(n=32, churn_rate=1, horizon_cycles=1,"
            " query_density=0.01)).run()\n"
            "assert 'scipy' not in sys.modules, 'scipy imported at run time'\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _serve_both_ways(sim, monkeypatch):
    """Serve every query with the fast search and check it against the
    reference relay walk, which always checks representability."""
    served = []

    def both(net, target, representable=None):
        fast = search(net, target, representable)
        ref = reference_search(net, target, sim._representable, live_view=True)
        assert fast == ref, (sim.world.round, target)
        served.append((representable is not None, bool(net.displaced), ref.stalled))
        return fast

    monkeypatch.setattr(maintenance, "search", both)
    return served


def test_served_queries_match_reference_walk(monkeypatch):
    sim = small_sim(n=128, rate=3, cycles=4, density=0.05, seed=3)
    served = _serve_both_ways(sim, monkeypatch)
    sim.run()
    assert not sim.world.failures
    assert len(served) == len(sim.query_log) > 1000
    assert not any(checked for checked, _, _ in served)
    # many queries were served mid-merge, with the displaced-edge index in use
    assert sum(mid_merge for _, mid_merge, _ in served) > 100


@pytest.mark.parametrize("strategy,seed", [("uniform_random", 11),
                                           ("targeted_committee", 12),
                                           ("burst", 13)])
def test_clean_keys_stay_answerable_every_round(monkeypatch, strategy, seed):
    # the stall checks are skipped on this invariant: with no failed cover,
    # every clean key is alive or covered after every round
    sim = small_sim(n=128, rate=3, cycles=4, seed=seed, strategy=strategy)
    advance = sim._advance
    rounds = []

    def checked(phase):
        advance(phase)
        rounds.append(sim.world.round)
        for key in sim.clean.heights:
            assert is_sentinel(key) or sim._representable(key), (key, sim.world.round)

    monkeypatch.setattr(sim, "_advance", checked)
    sim.run()
    assert COMMITTEE_DESTROYED not in {f.kind for f in sim.world.failures}
    assert not sim.uncovered
    # every departure is one cover that passed its end-of-round check
    departures = sim.world.ledger.totals()["churn_out"]
    assert rounds and sim.covering_audits == departures > 0


def _fail_one_merged_cover(sim, monkeypatch) -> list[int]:
    """Make cover_node fail for the first merged joiner that departs while
    a buffer is built, so that queries reach it before the next delete."""
    cover_node = CommitteeOverlay.cover_node
    victim = []

    def failing_cover(overlay, node, links):
        if not victim and node >= sim.params.n and node in sim.clean.live \
                and sim.world.cycle_phase == "BufferCreate":
            victim.append(node)          # a merged joiner: its cover fails
            overlay.remove_member(node)
            return None
        return cover_node(overlay, node, links)

    monkeypatch.setattr(CommitteeOverlay, "cover_node", failing_cover)
    return victim


def test_failed_cover_takes_checking_path_and_stalls_like_reference(monkeypatch):
    sim = small_sim(n=128, rate=3, cycles=5, density=0.05, seed=3)
    victim = _fail_one_merged_cover(sim, monkeypatch)
    served = _serve_both_ways(sim, monkeypatch)
    sim.run()
    # the next delete phase removed the key, and with it the need to check
    assert victim and not sim.uncovered and victim[0] in IdDict(sim.removed_clean)
    kinds = [f.kind for f in sim.world.failures]
    assert kinds.count(COMMITTEE_DESTROYED) == 1
    first = kinds.index(COMMITTEE_DESTROYED)
    # no query checks before the failure or after the deletion; every
    # query in between does
    checks = [checked for checked, _, _ in served]
    start = checks.index(True)
    end = len(checks) - checks[::-1].index(True)
    assert not any(checks[:start]) and all(checks[start:end]) and not any(checks[end:])
    assert end < len(checks)
    stalls = sum(stalled for _, _, stalled in served)
    assert stalls > 0
    assert kinds.count(STALLED) == stalls
    assert STALLED not in kinds[:first]


def test_key_whose_cover_failed_is_deleted_at_next_delete_phase(monkeypatch):
    sim = small_sim(n=128, rate=3, cycles=5, density=0.05, seed=3)
    victim = _fail_one_merged_cover(sim, monkeypatch)
    sim.run()
    assert victim
    key = victim[0]
    departed = sim.schedule.lifetime(key)[1]
    cycle = next(c for c in sim.cycles if c.start_round > departed)
    removed = IdDict(sim.removed_clean)
    assert removed[key] == cycle.start_round + cycle.phase_rounds[0]
    assert key not in sim.clean.heights and key not in sim.clean.live
    assert not sim.uncovered
    assert sim.clean.validate().ok and live_equals_clean(sim.clean)
    stalls = [f.round for f in sim.world.failures if f.kind == STALLED]
    assert stalls and max(stalls) < removed[key]


def test_run_records_stay_compact(monkeypatch):
    # what a run keeps for its whole length: merge events in typed arrays,
    # with no Python object per event, that iterate as the tuples emitted;
    # and attachment edges with no empty entry
    emitted = []
    emit = WaveEngine._emit

    def recording(engine, leader, event, level, *detail):
        emitted.append((engine.cycle, engine.round, leader, event, level, *detail))
        emit(engine, leader, event, level, *detail)

    monkeypatch.setattr(WaveEngine, "_emit", recording)
    sim = small_sim(n=256, rate=2, cycles=3)
    sim.run()
    log = sim.merge_events
    assert len(log) == len(emitted) > 0
    assert list(log) == emitted
    assert all(type(event) is tuple for event in log)
    held = [part for part in gc.get_referents(log) if part is not MergeLog]
    assert held and all(type(part) is array for part in held)
    assert sim.world.attach_adj
    assert all(sim.world.attach_adj.values())
    schedule = sim.schedule
    allocated = 256 + sum(len(rc.joins) for rc in adversary_reference.rounds(schedule))
    assert schedule.ever_known(allocated - 1) and not schedule.ever_known(allocated)


def _held(build):
    """What build() returns, and the bytes it still holds (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept, held


def test_schedule_and_query_store_hold_few_bytes_per_event():
    # a run's inputs are flat integer arrays: no tuple per round, join or
    # query. This schedule, with its draw state, holds about 41 B per churn
    # event (a leave and a join) and the query store 24 B per query; held
    # as tuples, they took about 314 B and 249 B
    params = SimParams(n=1024, seed_adv=100, churn_rate=1)
    horizon = 20_168

    def drawn_whole():
        schedule = gen_schedule(100, 1024, 1, horizon)
        assert schedule.ever_known(0)       # reads it whole: draws every round
        return schedule

    schedule, held = _held(drawn_whole)
    events = horizon - params.bootstrap_rounds
    assert adversary_reference.horizon(schedule) == horizon
    assert held / events < 48, held / events
    _, empty = _held(lambda: Simulation(params, schedule, []))
    _, held = _held(lambda: Simulation(params, schedule,
                                       gen_queries(100, schedule, 0.0006)))
    queries = len(gen_queries(100, schedule, 0.0006))
    assert queries > 10_000
    assert (held - empty) / queries < 40, (held - empty) / queries


def test_run_records_hold_few_bytes_per_event():
    # a merge event takes about 24 B in the run's MergeLog (a tuple in a
    # list took about 94) and an id-keyed round map about 4 B per id
    # allocated (a dict took 11-55 B per id). The ledger's columns take
    # about 45 B per round, prefix sums included (a LedgerRow took about
    # 138), the query log 10 B per served query (a QueryOutcome with its
    # ints about 173) and the census log 35 B per census (a Census about
    # 133). A full collection also empties the free lists, so what a record
    # held is what dropping it frees
    sim = small_sim(n=512, rate=2, cycles=4, density=0.01)

    def dropped(owner, name):
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        setattr(owner, name, None)
        gc.collect()
        return before - tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        sim.run()
        events, ids = len(sim.merge_events), len(IdDict(sim.world.heights))
        held = dropped(sim, "merge_events")
        maps = [dropped(owner, name) for owner, name in (
            (sim.world, "heights"),
            (sim, "entered_live"), (sim, "removed_clean"))]
        rounds, queries = len(sim.world.ledger.rows), len(sim.query_log)
        censuses = len(sim.overlay.census_log)
        ledger = dropped(sim.world, "ledger")
        query_log = dropped(sim, "query_log")
        census_log = dropped(sim.overlay, "census_log")
    finally:
        tracemalloc.stop()
    assert events > 1000 and ids > 1000
    assert held / events < 32, held / events
    for size in maps:
        assert size / ids < 8, (size / ids, maps)
    assert rounds > 500 and queries > 1000 and censuses > 50
    assert ledger / rounds <= 48, ledger / rounds
    assert query_log / queries <= 16, query_log / queries
    assert census_log / censuses <= 48, census_log / censuses


def test_simulation_makes_no_cyclic_garbage():
    # reference counting frees everything a simulation makes, so the
    # collector can stay paused while it builds and runs; the schedule is
    # drawn as the run reaches it, from state that holds no reference back.
    # At density 0, every round is drawn in the run
    for density in (0.01, 0.0):
        gc.collect()
        sim = small_sim(n=256, rate=2, cycles=3, density=density)
        assert bool(sim.query_r) == (density > 0)
        assert gc.collect() == 0
        sim.bootstrap_all()
        assert gc.collect() == 0
        for _ in range(3):
            sim.run_cycle()
            assert gc.collect() == 0
        sim.finalize()
        assert gc.collect() == 0
        assert bool(sim.query_log) == (density > 0)
        del sim
        assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_entry_points_leave_the_collector_as_found(monkeypatch, enabled):
    params = SimParams(n=64, seed_adv=1, seed_alg=2, churn_rate=1,
                       horizon_cycles=1, query_density=0.05)
    during = []
    on_depart = Simulation._on_depart

    def recording(self, node):
        during.append(gc.isenabled())
        on_depart(self, node)

    monkeypatch.setattr(Simulation, "_on_depart", recording)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        sim = Simulation(params)
        assert gc.isenabled() is enabled
        schedule = gen_schedule(1, 64, 1, adversary_reference.horizon(sim.schedule))
        assert gc.isenabled() is enabled
        assert gen_queries(1, schedule, 0.05)
        assert gc.isenabled() is enabled
        for step in (sim.bootstrap_all, sim.run_cycle, sim.finalize):
            step()
            assert gc.isenabled() is enabled
        with pytest.raises(RateTooHigh):
            gen_schedule(1, 64, params.churn_cap + 1,
                         adversary_reference.horizon(sim.schedule))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    # the churn hooks ran inside run_cycle, with collection paused
    assert during and not any(during)


def test_query_free_run_draws_only_the_rounds_it_reaches():
    params = SimParams(n=1024, seed_adv=3, seed_alg=4, churn_rate=1,
                       horizon_cycles=500)
    sim = Simulation(params)
    nominal = adversary_reference.horizon(sim.schedule)
    assert nominal == params.bootstrap_rounds + 500 * params.cycle_budget + 8
    sim.bootstrap_all()
    for _ in range(3):
        sim.run_cycle()
    reached = sim.world.round
    # what the schedule holds, read without drawing it whole: the rounds
    # reached and at most one block past them
    drawn = sim.schedule.drawn
    assert reached <= drawn < reached + adversary._DRAW_AHEAD
    assert drawn < nominal // 50
    assert params.n + len(sim.schedule._hosts) == \
        params.n + params.churn_rate * (drawn - params.bootstrap_rounds)


def test_query_free_simulation_schedule_gives_the_eager_queries():
    # perfbench's reads workload draws its queries this way, from the
    # schedule of a query-free simulation, which has drawn no round yet
    params = SimParams(n=128, seed_adv=100, seed_alg=500, churn_rate=3,
                       horizon_cycles=3, query_density=0.05)
    schedule = Simulation(params.with_overrides(query_density=0.0)).schedule
    assert not schedule.drawn
    queries = maintenance.gen_queries(7, schedule, params.query_density)
    horizon = params.bootstrap_rounds + 3 * params.cycle_budget + 8
    eager = adversary_reference.gen_schedule(100, 128, 3, horizon)
    assert queries
    assert queries == adversary_reference.gen_queries(7, eager, params.query_density)
    assert adversary_reference.rounds(Simulation(params).schedule) == eager.rounds


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_served_queries_are_the_drawn_list(strategy):
    sim = small_sim(n=128, rate=3, cycles=3, density=0.05, seed=5,
                    strategy=strategy)
    p = sim.params
    eager = gen_schedule(p.seed_adv, p.n, p.churn_rate,
                         adversary_reference.horizon(sim.schedule),
                         p.strategy)
    drawn = gen_queries(p.seed_adv, eager, p.query_density)
    sim.run()
    served = [Query(q.x, q.r, q.s) for q in sim.query_log]
    assert served
    assert served == [q for q in drawn if q.r < sim.world.round]


@pytest.mark.parametrize("ahead", [1, 7, adversary._DRAW_AHEAD])
@pytest.mark.parametrize("strategy, seed", [*((s, 5) for s in STRATEGIES),
                                            ("uniform_random", 1)])
def test_queries_drawn_in_blocks_are_the_stream_to_the_last_block(
        monkeypatch, strategy, seed, ahead):
    # a run draws its queries a block of `ahead` rounds at a time, when the
    # clock reaches the end of the last block, so the blocks end at
    # multiples of `ahead` and at the nominal horizon (1100). What the run
    # holds is the whole stream up to the end of its last block. At seed 5
    # the runs stop 125-425 rounds before the nominal horizon, and burst's
    # quiet rounds have queries and no churn; at seed 1 the run goes on to
    # round 1241 and holds the whole stream
    monkeypatch.setattr(adversary, "_DRAW_AHEAD", ahead)
    params = SimParams(n=128, seed_adv=seed, seed_alg=seed + 1, churn_rate=3,
                       horizon_cycles=5, query_density=0.05, strategy=strategy)
    sim = Simulation(params)
    nominal = sim.schedule.nominal
    assert all(r < ahead for r in sim.query_r)
    sim.run()
    reached = sim.world.round          # the rounds run: 0 to reached - 1
    end = min(nominal, ((reached - 1) // ahead + 1) * ahead)
    whole = gen_queries(seed, gen_schedule(seed, 128, 3, nominal, strategy), 0.05)
    reference = adversary_reference.gen_queries(seed, adversary_reference.gen_schedule(
        seed, 128, 3, nominal, strategy), 0.05)
    held = [Query(*q) for q in zip(sim.query_x, sim.query_r, sim.query_s)]
    assert held == [q for q in whole if q.r < end]
    assert held == [q for q in reference if q.r < end]
    served = [Query(q.x, q.r, q.s) for q in sim.query_log]
    assert served == [q for q in whole if q.r < reached]
    if seed == 1:
        assert reached > nominal and held == whole
    else:
        assert end < nominal and len(held) < len(whole)


def test_simulation_draws_one_query_block_from_little_state():
    # configs/churny.cfg's settings: the constructor draws the queries of
    # the first block only, not the stream to the nominal horizon (12,278
    # queries over 20,168 rounds). The stream's state, the replayed alive
    # set with each id's index in it and the pools, takes about 8.4 B per
    # schedule id, both when primed and once drawn to its last round
    cfg = Path(__file__).resolve().parents[1] / "configs" / "churny.cfg"
    params = cli.params_from_config(cli.parse_config(cfg.read_text()))
    ahead = adversary._DRAW_AHEAD
    sim = Simulation(params)
    schedule = sim.schedule
    whole = gen_queries(params.seed_adv, schedule, params.query_density)
    assert len(whole) > 10_000
    assert sim.query_r and max(sim.query_r) < ahead
    assert len(sim.query_r) == sum(q.r < ahead for q in whole) < len(whole) // 10
    ids = params.n + len(schedule._hosts)
    drawn = [], [], []      # kept: dropping the stream frees only its state
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stream = adversary.query_stream(params.seed_adv, schedule,
                                        params.query_density, *drawn)
        held = tracemalloc.get_traced_memory()[0] - before
        stream.send(schedule.nominal - 1)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        del stream
        gc.collect()
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(drawn[1]) == len(whole) - sum(q.r == schedule.nominal - 1 for q in whole)
    assert held / ids < 10, held / ids
    assert freed / ids < 10, freed / ids
