import math
import random
from itertools import count
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import adversary_reference
from adversary_reference import churn_for, deserialize, horizon, rounds, validate
from churnskip import adversary
from churnskip.adversary import gen_queries, gen_schedule
from churnskip.errors import HorizonTooShort, RateTooHigh
from churnskip.maintenance import Simulation
from churnskip.params import STRATEGIES, SimParams
from churnskip.skiplist import BUF_LS, BUF_RS, LS, RS


def test_zero_rate_schedule_is_empty():
    sched = gen_schedule(1, 64, 0, horizon=120)
    assert all(not rc.leaves and not rc.joins for rc in rounds(sched))
    assert validate(sched) == "OK"


def test_uniform_schedule_properties():
    n = 1024
    rate = n // (10 * math.ceil(math.log2(n)))  # 10 per round
    sched = gen_schedule(7, n, rate, horizon=400, strategy="uniform_random")
    assert validate(sched) == "OK"
    maintenance = [rc for i, rc in enumerate(rounds(sched)) if i >= sched.bootstrap]
    assert all(len(rc.leaves) == 10 and len(rc.joins) == 10 for rc in maintenance)
    for rc in maintenance:
        hosts = [h for _, h in rc.joins]
        assert len(set(hosts)) == 10
    # the lifetimes are indexed by id, and the joined ids run on from n
    joined = [node for rc in rounds(sched) for node, _ in rc.joins]
    joins, leaves = join_rounds(sched), leave_rounds(sched)
    assert joined == list(range(n, len(joins)))
    for rnd, rc in enumerate(rounds(sched)):
        assert all(joins[node] == rnd for node, _ in rc.joins)
        assert all(leaves[node] == rnd for node in rc.leaves)


def test_rate_cap_enforced():
    with pytest.raises(RateTooHigh):
        gen_schedule(1, 64, 64, horizon=200)
    with pytest.raises(HorizonTooShort):
        gen_schedule(1, 64, 1, horizon=3)


def test_targeted_respects_rate():
    n = 1024
    sched = gen_schedule(3, n, 10, horizon=300, strategy="targeted_committee")
    assert validate(sched) == "OK"
    for rc in rounds(sched)[sched.bootstrap:]:
        assert len(rc.leaves) <= 10


def test_burst_alternates_blocks():
    n = 256
    sched = gen_schedule(5, n, 8, horizon=400, strategy="burst")
    assert validate(sched) == "OK"
    tail = rounds(sched)[sched.bootstrap:]
    amounts = {len(rc.leaves) for rc in tail}
    assert amounts == {0, 8}


def test_schedule_serialization_roundtrip():
    sched = gen_schedule(11, 128, 4, horizon=200, strategy="uniform_random")
    text = sched.serialize()
    again = deserialize(text)
    assert again.serialize() == text
    assert validate(again) == "OK"
    assert rounds(again) == rounds(sched)
    assert join_rounds(again) == join_rounds(sched)
    assert leave_rounds(again) == leave_rounds(sched)


def test_deserialize_reads_header_fields_in_any_order():
    sched = gen_schedule(3, 64, 1, horizon=150)
    text = sched.serialize()
    body = text.split("\n", 1)[1]
    # seed= and strategy= lead: stripping "#schedule " as a set of
    # characters, not as a prefix, would eat their first letters
    head = f"#schedule seed=3 horizon=150 n=64 strategy={sched.strategy} " \
           f"rate=1 bootstrap={sched.bootstrap}\n"
    again = deserialize(head + body)
    assert again.serialize() == text
    assert rounds(again) == rounds(sched)
    with pytest.raises(ValueError, match="seed="):
        deserialize(text.replace(" seed=3", "", 1))
    with pytest.raises(ValueError, match="horizon="):
        deserialize(text.replace(" horizon=150", "", 1))
    with pytest.raises(ValueError, match="unknown strategy"):
        deserialize(text.replace("uniform_random", "uniform", 1))
    with pytest.raises(ValueError, match="#schedule"):
        deserialize(body)


def test_deserialize_rejects_a_joiner_out_of_id_order():
    # or any other round that is not the one the header draws: an edited
    # joiner, leave or host, or a text that stops short of the horizon
    sched = gen_schedule(11, 128, 4, horizon=200)
    lines = sched.serialize().splitlines()
    first = sched.bootstrap             # the first round with churn
    rnd, leaves, joins = lines[1 + first].split("|")
    leave = leaves.split(",")[0]
    joiner, host = joins.split(",")[0].split("@")
    assert joiner == "128"
    for edited in (f"{rnd}|{leaves}|999@{joins[len(joiner) + 1:]}",
                   f"{rnd}|{int(leave) ^ 1}{leaves[len(leave):]}|{joins}",
                   f"{rnd}|{leaves}|{joiner}@{int(host) ^ 1}"
                   f"{joins[len(joiner) + 1 + len(host):]}"):
        text = "\n".join([*lines[:1 + first], edited, *lines[2 + first:]])
        with pytest.raises(ValueError, match=f"round {first} of the schedule text"):
            deserialize(text)
    with pytest.raises(ValueError, match="round 150 of the schedule text"):
        deserialize("\n".join(lines[:1 + 150]))


def test_schedule_frozen_after_replay():
    sched = gen_schedule(2, 128, 4, horizon=200)
    before = sched.serialize()
    for rnd in range(horizon(sched)):
        churn_for(sched, rnd)
    assert sched.serialize() == before


def test_queries_density_zero_empty():
    sched = gen_schedule(1, 64, 1, horizon=150)
    assert gen_queries(1, sched, 0.0) == []


def test_queries_sources_alive_and_after_bootstrap():
    sched = gen_schedule(9, 256, 4, horizon=300)
    queries = gen_queries(9, sched, 0.02)
    assert queries
    alive = set(range(256))
    by_round = {}
    for i, rc in enumerate(rounds(sched)):
        alive -= set(rc.leaves)
        alive |= {n for n, _ in rc.joins}
        by_round[i] = set(alive)
    for q in queries:
        assert q.r >= sched.bootstrap
        assert q.s in by_round[q.r]


def test_queries_cover_ground_truth_classes():
    sched = gen_schedule(13, 256, 4, horizon=400)
    queries = gen_queries(13, sched, 0.05)
    ghosts = 0
    gone_at_issue = 0
    alive_at_issue = 0
    for q in queries:
        if not sched.ever_known(q.x):
            ghosts += 1
            continue
        start, end = sched.lifetime(q.x)
        if end is not None and end <= q.r:
            gone_at_issue += 1
        elif start <= q.r:
            alive_at_issue += 1
    assert ghosts and gone_at_issue and alive_at_issue


def test_schedule_oblivious_to_algorithm_seed():
    # pure function of (seed_adv, config): the algorithm stream never leaks in
    a = gen_schedule(21, 128, 4, horizon=240)
    b = gen_schedule(21, 128, 4, horizon=240)
    assert a.serialize() == b.serialize()
    s1 = Simulation(SimParams(n=64, seed_adv=5, seed_alg=1, churn_rate=1,
                              horizon_cycles=2))
    s2 = Simulation(SimParams(n=64, seed_adv=5, seed_alg=999, churn_rate=1,
                              horizon_cycles=2))
    assert s1.schedule.serialize() == s2.schedule.serialize()


def join_rounds(sched) -> list[int | None]:
    """The join round of each id the schedule allocates when read whole,
    None for an original node."""
    return [None if key < sched.n else sched.lifetime(key)[0]
            for key in range(_allocated(sched))]


def leave_rounds(sched) -> list[int | None]:
    """Each allocated id's leave round, None where it never left."""
    return [sched.lifetime(key)[1] for key in range(_allocated(sched))]


def _allocated(sched) -> int:
    # joined ids run consecutively from n, so the first unknown id ends them
    return next(key for key in count(sched.n) if not sched.ever_known(key))


def _keyed(rounds: list[int | None]) -> dict[int, int]:
    """An id-indexed lifetime list as the reference's dict of the ids that
    have a round."""
    return {key: r for key, r in enumerate(rounds) if r is not None}


def _generate(module, seed, n, rate, horizon, strategy):
    try:
        return module.gen_schedule(seed, n, rate, horizon, strategy)
    except RateTooHigh as exc:     # tiny n runs out of ids
        return str(exc)


# n spans both regimes of Random.sample: its pool holds up to 21 nodes for
# a sample of at most 5 and up to 85 for one of 6 to 21 (rates above 5 need
# n >= 32, where the cap n / log2 n reaches 6)
@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 160),
       rate=st.integers(0, 12), extra=st.integers(0, 120),
       strategy=st.sampled_from(STRATEGIES))
@example(seed=1, n=21, rate=5, extra=40, strategy="uniform_random")
@example(seed=1, n=22, rate=5, extra=40, strategy="uniform_random")
@example(seed=2, n=85, rate=8, extra=40, strategy="burst")
@example(seed=2, n=86, rate=8, extra=40, strategy="burst")
@example(seed=3, n=128, rate=12, extra=40, strategy="targeted_committee")
def test_generators_match_reference(seed, n, rate, extra, strategy):
    rate = min(rate, SimParams(n=n).churn_cap, n // 2)
    horizon = SimParams(n=n).bootstrap_rounds + extra
    new = _generate(adversary, seed, n, rate, horizon, strategy)
    old = _generate(adversary_reference, seed, n, rate, horizon, strategy)
    if isinstance(old, str):
        assert new == old
        return
    assert rounds(new) == old.rounds
    assert _keyed(leave_rounds(new)) == old.leave_round
    assert _keyed(join_rounds(new)) == old.join_round
    assert len(join_rounds(new)) == len(leave_rounds(new)) == n + len(old.join_round)
    for density in (0.01, 0.3, 1.0):
        assert gen_queries(seed, new, density) == \
            adversary_reference.gen_queries(seed, old, density)


def test_generators_call_no_random_library_draw(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the generators draw from getrandbits directly")

    for name in ("sample", "randrange", "choices", "_randbelow"):
        monkeypatch.setattr(random.Random, name, forbidden)
    for n, rate in ((16, 2), (1024, 4)):     # pool and set regime of a sample
        sched = gen_schedule(5, n, rate, horizon=SimParams(n=n).bootstrap_rounds + 50)
        assert validate(sched) == "OK"
        assert gen_queries(5, sched, 0.05)


def test_round_past_the_end_extends_the_schedule():
    for strategy in STRATEGIES:
        short = gen_schedule(4, 128, 3, horizon=200, strategy=strategy)
        long = gen_schedule(4, 128, 3, horizon=900, strategy=strategy)
        # a lifetime read before each draw past the end indexes the events
        # drawn so far, so the reads below extend the index twice
        short.lifetime(0)
        assert churn_for(short, 300) == rounds(long)[300]
        assert horizon(short) == 301             # drawn through the round read
        short.lifetime(0)
        assert churn_for(short, 650) == rounds(long)[650]
        assert horizon(short) == 651
        assert rounds(short) == rounds(long)[:651]
        assert _keyed(join_rounds(short)) == \
            {k: r for k, r in _keyed(join_rounds(long)).items() if r < 651}
        assert _keyed(leave_rounds(short)) == \
            {k: r for k, r in _keyed(leave_rounds(long)).items() if r < 651}
        assert len(join_rounds(short)) == len(leave_rounds(short)) == \
            128 + sum(len(rc.joins) for rc in rounds(short))


def test_query_stream_reads_only_the_schedule_interface():
    # a stand-in with nothing of the schedule but its header fields and
    # the two reads the stream may make draws the schedule's own queries
    for strategy in STRATEGIES:
        real = gen_schedule(8, 128, 3, horizon=400, strategy=strategy)
        drawn_by = gen_schedule(8, 128, 3, horizon=400, strategy=strategy)
        stand_in = SimpleNamespace(
            n=drawn_by.n, bootstrap=drawn_by.bootstrap, nominal=drawn_by.nominal,
            churn_events=drawn_by.churn_events, leaves_before=drawn_by.leaves_before)
        queries = gen_queries(8, stand_in, 0.05)
        assert queries and queries == gen_queries(8, real, 0.05), strategy


def test_run_past_the_nominal_horizon_completes_every_cycle():
    # the cycles run 1/148/162/227/591 rounds against a budget of 196, past
    # the 1100 rounds the schedule is first drawn for
    params = SimParams(n=128, seed_adv=1, seed_alg=2, churn_rate=3,
                       horizon_cycles=5, query_density=0.05)
    sim = Simulation(params)
    nominal = horizon(sim.schedule)
    # the stream to round 1100, drawn over the same schedule header
    queries = len(gen_queries(params.seed_adv, gen_schedule(
        params.seed_adv, params.n, params.churn_rate, nominal), params.query_density))
    sim.bootstrap_all()
    for _ in range(params.horizon_cycles):
        sim.run_cycle()
    sim.finalize()
    assert len(sim.cycles) == 5 and not sim.world.failures
    assert sim.world.round > nominal
    assert len(rounds(sim.schedule)) == sim.world.round
    assert validate(sim.schedule) == "OK"
    assert len(sim.query_log) == queries


def test_lifetime_lookups_match_reference_at_the_edges():
    # every id up to the last, the four sentinels, every ghost id and ids
    # past the end: a bare list index would answer a negative sentinel from
    # the end of the lists and raise past it
    n = 64
    horizon = SimParams(n=n).bootstrap_rounds + 200
    for strategy in STRATEGIES:
        new = gen_schedule(8, n, 3, horizon, strategy)
        old = adversary_reference.gen_schedule(8, n, 3, horizon, strategy)
        last = len(join_rounds(new))
        assert last == n + len(old.join_round) > n
        ghost = SimParams(n=n).id_space
        keys = [*range(last), LS, BUF_LS, BUF_RS, RS,
                *range(ghost, ghost + n), last, last + 1, 2 * last, 10 ** 9]
        for key in keys:
            assert new.lifetime(key) == old.lifetime(key), (strategy, key)
            assert new.ever_known(key) == old.ever_known(key), (strategy, key)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_schedule_drawn_on_demand_reads_whole_like_reference(strategy):
    n, rate = 128, 3
    ahead = adversary._DRAW_AHEAD
    nominal = SimParams(n=n).bootstrap_rounds + 3 * ahead
    old = adversary_reference.gen_schedule(6, n, rate, nominal, strategy)
    new = gen_schedule(6, n, rate, nominal, strategy)
    # round by round as a run reads it: only the first block is drawn
    reached = new.bootstrap + 40
    for rnd in range(reached):
        assert churn_for(new, rnd) == old.rounds[rnd]
    assert new.drawn == ahead
    assert horizon(new) == nominal
    # a jump ahead draws through the block from there; a look back, then
    # the whole schedule
    jump = reached + ahead + 150
    assert churn_for(new, jump) == old.rounds[jump]
    assert new.drawn == jump + ahead < nominal
    assert churn_for(new, 3) == old.rounds[3]
    assert rounds(new) == old.rounds
    assert _keyed(leave_rounds(new)) == old.leave_round
    assert _keyed(join_rounds(new)) == old.join_round
    # the lifetimes and the queries read a partly drawn schedule whole
    for reader in ("lifetime", "queries"):
        fresh = gen_schedule(6, n, rate, nominal, strategy)
        churn_for(fresh, fresh.bootstrap + 10)
        if reader == "lifetime":
            for key in range(n + len(old.join_round) + 2):
                assert fresh.lifetime(key) == old.lifetime(key), (strategy, key)
                assert fresh.ever_known(key) == old.ever_known(key), (strategy, key)
        else:
            assert gen_queries(6, fresh, 0.05) == \
                adversary_reference.gen_queries(6, old, 0.05)
        assert rounds(fresh) == old.rounds
        assert fresh.serialize() == new.serialize()


def test_id_space_exhaustion_is_raised_at_construction():
    # no round is drawn: the ids the nominal horizon allocates are counted
    n = 64
    params = SimParams(n=n)
    last = params.bootstrap_rounds + params.id_space - n   # one id per round
    assert horizon(gen_schedule(1, n, 1, horizon=last)) == last
    with pytest.raises(RateTooHigh, match="id space exhausted"):
        gen_schedule(1, n, 1, horizon=last + 1)
    # burst churns in only half the rounds, so the same horizon has ids left
    gen_schedule(1, n, 1, horizon=last + 1, strategy="burst")


@pytest.mark.parametrize("n,rate,cycles", [(8, 2, 4), (12, 3, 6)])
def test_ghost_targets_are_never_allocated(n, rate, cycles):
    # these schedules allocate ids past n**3 // 2, so ghosts drawn from
    # there would be real ids; the never-allocated class must still occur
    params = SimParams(n=n, churn_rate=rate, horizon_cycles=cycles,
                       query_density=0.5)
    sched = Simulation(params).schedule
    queries = gen_queries(params.seed_adv, sched, params.query_density)
    assert sched.ever_known(n ** 3 // 2 + n - 1)
    ghosts = [q.x for q in queries if not sched.ever_known(q.x)]
    assert ghosts
    assert all(x >= params.id_space for x in ghosts)
