import pytest
from hypothesis import given, strategies as st

from churnskip.errors import InconsistentWorld, MessageBudgetExceeded, PeerDeparted
from churnskip.params import SimParams
from churnskip.simcore import IdMap, World
from churnskip.work import RoundWork
from world_reference import IdDict, validate_world


def fresh_world(n=16, **kw):
    params = SimParams(n=n, **kw)
    world = World(params)
    for node in range(n):
        world.spawn(node)
    return world


class StaticChurn:
    def __init__(self, rounds):
        self.rounds = rounds

    def churn_events(self, rnd):
        if rnd < len(self.rounds):
            return self.rounds[rnd]
        return (), ()


def test_empty_round_all_zero():
    world = World(SimParams(n=1))   # no nodes spawned: truly empty
    world.run_round()
    row = world.ledger.rows[0]
    assert (row.messages_sent, row.edges_formed, row.edges_deleted,
            row.churn_in, row.churn_out) == (0, 0, 0, 0, 0)
    assert world.round == 1


def test_derived_constants_follow_overrides():
    small = SimParams(n=1024)
    names = ("message_cap", "cycle_budget", "bootstrap_rounds", "tick_period",
             "churn_cap", "committee_count")
    before = {name: getattr(small, name) for name in names}
    assert before == {"message_cap": 400, "cycle_budget": 400, "bootstrap_rounds": 160,
                      "tick_period": 7, "churn_cap": 102, "committee_count": 24}
    big = small.with_overrides(n=16384)
    assert {name: getattr(big, name) for name in names} == {
        "message_cap": 784, "cycle_budget": 784, "bootstrap_rounds": 224,
        "tick_period": 8, "churn_cap": 1170, "committee_count": 384}
    assert {name: getattr(small, name) for name in names} == before
    assert big == SimParams(n=16384)


def test_rejoin_of_departed_id_raises_in_its_round():
    world = fresh_world(16)
    quiet = ((), ())
    adv = StaticChurn([quiet] * 3 + [((5,), ((100, 0),))] + [quiet] * 6 +
                      [((), ((5, 1),))])
    for _ in range(10):
        world.run_round(adv)
    validate_world(world)
    with pytest.raises(InconsistentWorld, match="departed node 5"):
        world.run_round(adv)
    assert world.round == 10 and 5 not in world.alive


def test_budget_arithmetic_allows_small_payload():
    # budget at n=1024 is 4*log2(1024)^2 = 400 message slots per node and round
    params = SimParams(n=1024)
    world = World(params)
    world.spawn(0)
    assert world.message_cap == 400
    world.charge_msgs(0, 1)
    assert world.ledger.category_totals["other"] == 1


def test_send_over_cap_raises():
    world = fresh_world(16)
    cap = world.message_cap
    for _ in range(cap):
        world.charge_msgs(0, 1)
    with pytest.raises(MessageBudgetExceeded):
        world.charge_msgs(0, 1)
    world.charge_msgs(1, cap)      # the cap is per node
    world.run_round()
    world.charge_msgs(0, cap)      # and per round


def test_send_cap_holds_on_charges_plus_played_row():
    # n=1024, cap 400: node 0 may not send 400 direct messages and then be
    # the busiest node of a 400-message row in the same round, either way round
    row = RoundWork(messages=400, max_node_messages=400, busiest=0)
    world = fresh_world(1024)
    assert world.message_cap == 400
    world.charge_msgs(0, 400)
    with pytest.raises(MessageBudgetExceeded):
        world.play_row(row, "other")
    world.run_round()
    world.play_row(row, "other")
    with pytest.raises(MessageBudgetExceeded):
        world.charge_msgs(0, 1)
    world.charge_msgs(1, 400)      # other nodes keep their own budget
    world.run_round()
    world.play_row(row, "other")   # and the next round starts afresh


def test_churn_keeps_size_and_counts():
    world = fresh_world(16)
    adv = StaticChurn([((1, 2), ((16, 0), (17, 3)))])
    world.run_round(adv)
    row = world.ledger.rows[0]
    assert row.churn_in == 2 and row.churn_out == 2
    assert len(world.alive) == 16
    assert not world.is_alive(1) and world.is_alive(16)


def test_form_edge_idempotent_and_roundtrip():
    world = fresh_world(4)
    world.run_round()
    world.form_edge(0, 1)
    world.form_edge(1, 0)          # idempotent, no extra charge
    world.run_round()
    formed = sum(r.edges_formed for r in world.ledger.rows)
    assert formed == 1
    assert world.attach_adj == {0: [1], 1: [0]}


def test_edge_auto_removed_on_departure():
    world = fresh_world(4)
    world.run_round()
    world.form_edge(0, 1)
    world.run_round(StaticChurn([((), ()), ((1,), ((9, 2),))]))
    deleted = sum(r.edges_deleted for r in world.ledger.rows)
    assert deleted == 1
    # 0 lost its only peer, so it keeps no empty entry
    assert world.attach_adj == {2: [9], 9: [2]}


def test_form_edge_to_departed_peer():
    world = fresh_world(4)
    world.run_round(StaticChurn([((2,), ((7, 0),))]))
    with pytest.raises(PeerDeparted):
        world.form_edge(0, 2)


def test_determinism_bit_identical_traces():
    def run():
        world = fresh_world(16, seed_adv=5, seed_alg=6)
        adv = StaticChurn([((i % 16,), ((100 + i, (i + 1) % 16),)) for i in range(8)])
        for rnd in range(8):
            world.charge_msgs(rnd % 16, 2)
            world.run_round(adv)
        return "\n".join(world.trace_lines())

    assert run() == run()


def test_message_conservation_per_round():
    world = fresh_world(16)
    world.charge_msgs(0, 1, category="queries")
    world.charge_msgs(2, 3, category="covering")
    world.run_round()
    world.charge_msgs(0, 1)
    world.run_round()
    assert [r.messages_sent for r in world.ledger.rows] == [4, 1]
    assert world.ledger.category_totals["queries"] == 1
    assert world.ledger.category_totals["covering"] == 3


# ids as the simulator meets them: dense ones, the skip list's sentinels
# (-2, -1, 10**18, 10**18 + 1) and ghosts from the id space, n**3, up
_ids = st.one_of(st.integers(0, 200), st.sampled_from([-2, -1, 10**18, 10**18 + 1]),
                 st.integers(-(2**40), -1), st.integers(5 * 10**5, 2**62))


@given(st.lists(st.tuples(st.integers(0, 200), st.integers(0, 2**31 - 1)), max_size=60),
       st.lists(_ids, max_size=40))
def test_id_map_answers_like_a_dict(writes, reads):
    m, d = IdMap(), {}
    for key, value in writes:
        m.fill((key,), value)
        d[key] = value
    size = len(m.slots)
    view = IdDict(m)
    for key in reads + [key for key, _ in writes]:
        assert m.get(key) == d.get(key)
        assert m.get(key, "none") == d.get(key, "none")
        assert (key in view) == (key in d)
        if key in d:
            assert view[key] == d[key]
        else:
            with pytest.raises(KeyError):
                view[key]
    # a read, of a sentinel or a ghost too, never grows the array
    assert len(m.slots) == size
    assert len(view) == len(d)
    assert list(view.items()) == sorted(d.items())
    assert list(view) == sorted(d)
    for key, value in ((-1, 0), (-2, 5), (0, -1)):
        with pytest.raises(ValueError):
            m.fill((key,), value)
    assert list(view.items()) == sorted(d.items()) and len(m.slots) == size
