import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.stats import chi2

from churnskip.maintenance import Simulation
from churnskip.params import SimParams, butterfly_k
from churnskip.overlay import (
    CommitteeOverlay,
    bootstrap_overlay,
    butterfly_edge_set,
    route_hops,
)
from overlay_reference import (
    assignment,
    eager_bootstrap,
    members,
    sizes_within_band,
    validate_cliques,
)
from overlay_reshape import NoAgreement, committee_opinions, reshape


def test_k_derivation_examples():
    assert butterfly_k(16) == 1
    # n=1024: k*2^k <= 1024/20 = 51.2 -> k=3, 24 committees
    assert butterfly_k(1024) == 3
    p = SimParams(n=1024)
    assert p.committee_count == 24
    assert abs(p.committee_mean - 1024 / 24) < 1e-9


def test_butterfly_edge_rule():
    edges = butterfly_edge_set(2)
    # 4 rows x 2 levels; every committee links straight and cross to the
    # next level, levels wrapping
    assert frozenset(((0, 0), (0, 1))) in edges
    assert frozenset(((0, 0), (2, 1))) in edges      # bit 1 cross edge
    assert frozenset(((0, 1), (1, 0))) in edges      # wrap back to level 0
    for e in edges:
        (r1, l1), (r2, l2) = sorted(e)
        assert (l2 - l1) % 2 == 1


def test_bootstrap_small_and_too_few():
    state, _ = bootstrap_overlay(range(16), random.Random(0))
    assert state.k == 1
    assert len(state.addrs) == 2
    assert sorted(len(members(state, a)) for a in state.addrs) != [0, 16]
    assert validate_cliques(state) == "OK"
    degenerate, _ = bootstrap_overlay(range(8), random.Random(0))
    assert degenerate.k == 0
    assert len(members(degenerate, (0, 0))) == 8


def test_bootstrap_1024_sizes():
    params = SimParams(n=1024)
    state, rows = bootstrap_overlay(range(1024), random.Random(3))
    assert len(state.addrs) == 24
    assert sizes_within_band(state, params)
    assert len(rows) <= 4 * math.log2(1024) + 4


def test_tick_keeps_sizes_in_band():
    params = SimParams(n=1024)
    state, _ = bootstrap_overlay(range(1024), random.Random(1))
    rng = random.Random(11)
    alive = set(range(1024))
    for tick in range(100):
        census = state.maintenance_tick(alive, rng, round_no=tick)
        assert params.committee_lo <= census.min_size
        assert census.max_size <= params.committee_hi
        assert census.committee_count == 24


def test_tick_reassignment_uniformity_chi_square():
    state, _ = bootstrap_overlay(range(1024), random.Random(2))
    rng = random.Random(5)
    alive = set(range(1024))
    counts = {addr: 0 for addr in state.addrs}
    ticks = 200
    for t in range(ticks):
        state.maintenance_tick(alive, rng, t)
        for addr in state.addrs:
            counts[addr] += state.size(addr)
    n_cells = len(counts)
    expected = 1024 * ticks / n_cells
    stat = sum((obs - expected) ** 2 / expected for obs in counts.values())
    assert stat < chi2.ppf(0.99, n_cells - 1)


def test_cover_and_uncover():
    state, _ = bootstrap_overlay(range(64), random.Random(0))
    node = 17
    addr = state.address_of(node)
    edges = state.cover_node(node, 2)
    assert edges == 2 * state.size(addr)
    assert state.covered_index[node] == addr
    assert state.covering_speaker(node) == state.speaker(addr)
    assert state.covering_speaker(node) in members(state, addr)
    state.uncover(node)
    assert node not in state.covered_index


def test_two_departures_same_committee():
    state, _ = bootstrap_overlay(range(64), random.Random(0))
    addr = state.addrs[0]
    pair = sorted(members(state, addr))[:2]
    for m in pair:
        assert state.cover_node(m, 1) is not None
    assert [state.covered_index[m] for m in pair] == [addr, addr]


def test_targeted_churn_never_empties_committee():
    # An oblivious targeted adversary fixes a victim node set in advance; it
    # cannot read current membership, and the periodic uniform reassignment
    # keeps every committee populated at the admissible rate.
    params = SimParams(n=1024)
    failures = 0
    rate = 1024 // (10 * 10)
    for seed in range(50):
        state, _ = bootstrap_overlay(range(1024), random.Random(seed))
        adv = random.Random(seed + 1000)
        alg = random.Random(seed + 2000)
        alive = set(range(1024))
        next_id = 1024
        victims = adv.sample(sorted(alive), 20)
        pending_joins = []
        for rnd in range(2 * 10 * 10):  # one full (bitonic-regime) cycle
            leaves = [v for v in victims if v in alive][:rate]
            pool = sorted(alive - set(leaves))
            while len(leaves) < rate:
                leaves.append(pool.pop(adv.randrange(len(pool))))
            for node in leaves:
                alive.discard(node)
                addr = state.remove_member(node)
                if addr is not None and not state.size(addr):
                    failures += 1
            joins = [next_id + i for i in range(rate)]
            next_id += rate
            alive.update(joins)
            pending_joins.extend(joins)
            victims = [v for v in victims if v in alive] + joins[: 20 - len(victims)]
            if rnd % params.tick_period == 0:
                state.maintenance_tick(alive, alg, rnd)
                pending_joins.clear()
                assert set(assignment(state)) == alive
    assert failures == 0


def test_route_hops_bounds():
    for k in (1, 2, 3, 4):
        addrs = CommitteeOverlay.addresses(k)
        for a in addrs:
            for b in addrs:
                h = route_hops(a, b, k)
                assert 0 <= h <= 2 * k + 2
                if a == b:
                    assert h == 0


def test_reshape_stay_and_mixed():
    state, _ = bootstrap_overlay(range(256), random.Random(0))
    opinions = {addr: "stay" for addr in state.addrs}
    new, rounds, _ = reshape(state, opinions, random.Random(1), 256)
    assert new is state
    opinions[next(iter(opinions))] = "grow"
    with pytest.raises(NoAgreement):
        reshape(state, opinions, random.Random(1), 512)


def _assert_addresses(state, nodes):
    # the lookup agrees with the member sets, None for a node in none
    where = {v: addr for addr in state.addrs for v in members(state, addr)}
    for node in nodes:
        assert state.address_of(node) == where.get(node), node


def test_reshape_grow_then_shrink_roundtrip():
    state, _ = bootstrap_overlay(range(256), random.Random(0))
    k0 = state.k
    rng = random.Random(42)
    # double the population: everyone opines grow
    alive = list(range(512))
    for node in range(256, 512):
        state.place(node, (0, 0) if state.k < 1 else
                    state.addrs[node % len(state.addrs)])
    opinions = {addr: "grow" for addr in state.addrs}
    grown, rounds, _ = reshape(state, opinions, rng, 512)
    assert grown.k == k0 + 1
    assert validate_cliques(grown) == "OK"
    assert rounds <= 8 * math.log2(512)
    lo = math.ceil(0.75 * math.log2(512)) - 1
    assert min(grown.sizes()) >= max(2, lo - 1)
    assert set(assignment(grown)) == set(alive)
    _assert_addresses(grown, range(600))

    # halve it again
    opinions = {addr: "shrink" for addr in grown.addrs}
    for node in range(256, 512):
        grown.remove_member(node)
    _assert_addresses(grown, range(600))
    shrunk, rounds, _ = reshape(grown, opinions, rng, 256)
    assert shrunk.k == k0
    assert validate_cliques(shrunk) == "OK"
    assert rounds <= 8 * math.log2(256)
    assert set(assignment(shrunk)) == set(range(256))
    _assert_addresses(shrunk, range(600))
    assert min(shrunk.sizes()) >= 2


def test_reshape_carries_covers():
    # a covered node stays with its committee through a grow and a shrink,
    # and is spoken for wherever that committee has members
    state, _ = bootstrap_overlay(range(256), random.Random(0))
    for node in range(256, 512):
        state.place(node, state.addrs[node % len(state.addrs)])
    covered = {}
    for node in range(0, 256, 23):
        covered[node] = state.address_of(node)
        assert state.cover_node(node, 2) is not None
    rng = random.Random(42)
    grown, _, _ = reshape(state, {a: "grow" for a in state.addrs}, rng, 512)
    assert grown.covered_index == {key: (r, lvl + 1) for key, (r, lvl) in covered.items()}
    for node in range(256, 512):
        grown.remove_member(node)
    half = 2 ** (grown.k - 1)
    shrunk, _, _ = reshape(grown, {a: "shrink" for a in grown.addrs}, rng, 256)
    assert shrunk.covered_index == {key: (r % half, max(0, lvl - 1))
                                    for key, (r, lvl) in grown.covered_index.items()}
    for overlay in (grown, shrunk):
        for key, addr in overlay.covered_index.items():
            assert overlay.size(addr) and overlay.covering_speaker(key) == overlay.speaker(addr)
            assert overlay.speaker(addr) in members(overlay, addr)

    # growing out of the single committee keeps covers in (0, 0)
    single, _ = bootstrap_overlay(range(8), random.Random(0))
    single.cover_node(3, 1)
    grown, _, _ = reshape(single, {(0, 0): "grow"}, rng, 16)
    assert grown.k == 1 and grown.covered_index == {3: (0, 0)}
    assert grown.covering_speaker(3) in members(grown, (0, 0))


def test_opinions_thresholds():
    state, _ = bootstrap_overlay(range(256), random.Random(0))
    ops = committee_opinions(state, 256)
    assert set(ops.values()) <= {"grow", "shrink", "stay"}
    # mean size 32 vs grow threshold 1.5*2*8 = 24: everyone says grow
    assert set(ops.values()) == {"grow"}


def _assert_same_membership(state, ref, speakers, pool):
    assert assignment(state) == ref.assignment
    # never placed, departed, placed since the tick, placed then removed
    for node in pool:
        assert state.address_of(node) == ref.assignment.get(node), node
    assert state.sizes() == ref.sizes()
    assert state.addrs == ref.addrs
    for addr in ref.addrs:
        assert members(state, addr) == ref.members[addr], addr
        assert state.size(addr) == len(ref.members[addr])
    for addr in speakers:
        assert state.speaker(addr) == ref.speaker(addr), addr
    assert state.covered_index == ref.covered_index
    assert list(state.census_log) == ref.census_log


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.sampled_from([8, 16, 40, 130]), st.integers(0, 2 ** 16), st.data())
def test_membership_matches_eager_reference(n, seed, data):
    # ticks interleaved with placements, removals, covers and uncovers;
    # after every step the draw-plus-deltas membership equals the eager one
    boot, ref_boot = random.Random(seed), random.Random(seed)
    state, _ = bootstrap_overlay(range(n), boot)
    ref = eager_bootstrap(range(n), state.k, ref_boot)
    assert boot.getstate() == ref_boot.getstate()
    rng, ref_rng = random.Random(seed + 1), random.Random(seed + 1)
    addrs = ref.addrs
    pool = range(3 * n)
    _assert_same_membership(state, ref, addrs, pool)
    for step in range(data.draw(st.integers(1, 40), label="steps")):
        op = data.draw(st.sampled_from(["tick", "place", "remove", "cover", "uncover"]))
        assigned = sorted(ref.assignment)
        if op == "tick":
            got = state.maintenance_tick(set(ref.assignment), rng, step)
            assert got == ref.maintenance_tick(set(ref.assignment), ref_rng, step)
        elif op == "place":
            free = [v for v in pool if v not in ref.assignment]
            node = data.draw(st.sampled_from(free))
            addr = data.draw(st.sampled_from(addrs))
            state.place(node, addr)
            ref.place(node, addr)
        elif op in ("remove", "cover"):
            # a committee's speaker, any assigned node, or one that has none
            how = data.draw(st.integers(0, 5)) if assigned else 0
            if how >= 3:
                speaker = ref.speaker(data.draw(st.sampled_from(addrs)))
                node = assigned[0] if speaker is None else speaker
            else:
                node = data.draw(st.sampled_from(assigned if how else pool))
            if op == "remove":
                assert state.remove_member(node) == ref.remove_member(node)
            else:
                links = data.draw(st.integers(0, 3))
                edges = state.cover_node(node, links)
                expect = ref.cover_node(node, links)
                if expect is None:
                    assert edges is None
                else:
                    assert (state.covered_index[node], state.covering_speaker(node),
                            edges) == expect
        else:
            covered = sorted(ref.covered_index)
            if covered:
                node = data.draw(st.sampled_from(covered))
                state.uncover(node)
                ref.uncover(node)
        speakers = data.draw(st.lists(st.sampled_from(addrs), max_size=4))
        _assert_same_membership(state, ref, speakers, pool)
        for node in ref.covered_index:
            assert state.covering_speaker(node) == ref.covering_speaker(node)
        assert validate_cliques(state) == "OK"
        assert rng.getstate() == ref_rng.getstate()


def test_speaker_skips_placed_nodes_only_when_they_are_larger():
    # the speaker is read from the draw when every node placed since the
    # tick is larger than its first drawn member, and found among the
    # placed nodes otherwise; both must match the eager reference
    n = 64
    state, _ = bootstrap_overlay(range(n), random.Random(3))
    ref = eager_bootstrap(range(n), state.k, random.Random(3))
    alive = set(range(10, n + 10))
    state.maintenance_tick(alive, random.Random(4), 1)
    ref.maintenance_tick(alive, random.Random(4), 1)
    addr, other = ref.addrs[0], ref.addrs[1]
    drawn = min(ref.members[addr])
    assert drawn >= 10 and ref.members[other]
    # a larger joiner leaves the drawn speaker in place
    for overlay in (state, ref):
        overlay.place(n + 10, other)
    assert state.speaker(other) == ref.speaker(other) == min(ref.members[other])
    # a node smaller than every drawn member becomes the speaker
    for overlay in (state, ref):
        overlay.place(0, addr)
    assert state.speaker(addr) == ref.speaker(addr) == 0
    for overlay in (state, ref):
        assert overlay.remove_member(0) == addr
    assert state.speaker(addr) == ref.speaker(addr) == drawn
    # covering a member of that committee: its speaker is a current member
    covered = max(ref.members[addr])
    assert covered != drawn
    edges = state.cover_node(covered, 2)
    assert (addr, state.covering_speaker(covered), edges) == ref.cover_node(covered, 2)
    assert state.covering_speaker(covered) == drawn
    assert drawn in members(state, addr)
    assert validate_cliques(state) == "OK"


def test_hot_path_builds_no_assignment_map(monkeypatch):
    # joins, departures and queries look nodes up one at a time; no code
    # path of a run builds the per-node map
    lookups = {"placed since the tick": 0, "not placed": 0}
    address_of = CommitteeOverlay.address_of

    def checked(self, node):
        got = address_of(self, node)
        where = [addr for addr in self.addrs if node in members(self, addr)]
        assert got == (where[0] if where else None), node
        lookups["placed since the tick" if node in self._placed else "not placed"] += 1
        return got

    assert not hasattr(CommitteeOverlay, "assignment")
    monkeypatch.setattr(CommitteeOverlay, "address_of", checked)
    sim = Simulation(SimParams(n=128, seed_adv=1, seed_alg=2, churn_rate=2,
                               horizon_cycles=3, query_density=0.05))
    sim.run()
    assert len(sim.query_log) > 100 and not sim.world.failures
    assert all(lookups.values())
