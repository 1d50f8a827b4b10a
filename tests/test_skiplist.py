import random

import pytest
from hypothesis import given, settings, strategies as st

from churnskip.errors import UnsortedInput
from churnskip.skiplist import (
    LS,
    RS,
    SkipNet,
    oracle_build,
    sample_height,
    search,
)
from search_reference import reference_search, reference_walk
from skiplist_reference import oracle_delete, oracle_insert, oracle_merge


def test_height_law_small_probabilities():
    rng = random.Random(7)
    n = 200_000
    ge1 = sum(sample_height(rng) >= 1 for _ in range(n))
    rng = random.Random(7)
    ge4 = sum(sample_height(rng) >= 4 for _ in range(n))
    assert abs(ge1 / n - 0.5) < 0.01
    assert abs(ge4 / n - 1 / 16) < 0.005


def test_height_empirical_mean():
    rng = random.Random(11)
    n = 1_000_000
    mean = sum(sample_height(rng) for _ in range(n)) / n
    assert abs(mean - 1.0) <= 0.01


def test_height_max_bound_at_1024():
    # 4*log2(1024) + 1 = 41; violation probability ~ n * 2^-41 per trial.
    violations = 0
    for seed in range(50):
        rng = random.Random(seed)
        if max(sample_height(rng) for _ in range(1024)) > 41:
            violations += 1
    assert violations == 0


def test_oracle_build_empty():
    net = oracle_build([], [])
    assert net.validate().ok
    assert net.level_list(0) == []
    assert net.height == 0


def test_oracle_build_level0_order():
    keys = [1, 5, 23, 25, 50, 98]
    rng = random.Random(3)
    heights = [sample_height(rng) for _ in keys]
    net = oracle_build(keys, heights)
    assert net.level_list(0) == keys
    assert net.validate().ok


def test_oracle_build_rejects_unsorted():
    with pytest.raises(UnsortedInput):
        oracle_build([5, 1], [0, 0])


def test_validate_reports_reversed_link():
    net = oracle_build([10, 20, 30], [1, 0, 2])
    net.links[20][0][0] = 30  # corrupt 20's left pointer at level 0
    report = net.validate()
    assert not report.ok
    assert report.code == "doubly-linked-violation"
    assert (report.key, report.level) == (20, 0)


def test_search_for_left_sentinel_is_vertical_only():
    net = oracle_build([4, 13, 26], [0, 3, 1])
    net.live = set(net.heights)
    res = search(net, LS)
    assert res.found
    assert res.h_moves == 0
    assert res.v_moves == net.height
    assert res.path_rounds == net.height


def test_search_insertion_path_fixture():
    # Insertion-style search for 88 descends top-down, moving right below
    # each tall tower it clears; expected visit sequence derived by hand.
    keys = [7, 13, 26, 44, 50, 60, 75, 90]
    heights = [0, 1, 3, 0, 2, 0, 1, 0]
    net = oracle_build(keys, heights)
    net.live = set(keys)
    res, path = reference_walk(net, 88)
    assert search(net, 88) == res
    assert not res.found
    assert path == [
        (LS, 3), (26, 3),
        (26, 2), (50, 2),
        (50, 1), (75, 1),
        (75, 0),
    ]


def test_search_membership():
    keys = list(range(0, 600, 3))
    rng = random.Random(5)
    net = oracle_build(keys, [sample_height(rng) for _ in keys])
    net.live = set(keys)
    assert search(net, 300).found
    assert not search(net, 301).found
    assert search(net, RS).found  # right sentinel is always present


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 10_000), max_size=80), st.randoms(use_true_random=False))
def test_build_satisfies_invariants(keyset, rnd):
    keys = sorted(keyset)
    heights = [sample_height(rnd) for _ in keys]
    net = oracle_build(keys, heights)
    assert net.validate().ok
    for lvl in range(net.height + 1):
        assert net.level_list(lvl) == [k for k, h in zip(keys, heights) if h >= lvl]


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.integers(0, 10_000), min_size=2, max_size=60),
    st.randoms(use_true_random=False),
)
def test_insert_delete_roundtrip_matches_rebuild(keyset, rnd):
    keys = sorted(keyset)
    heights = {k: sample_height(rnd) for k in keys}
    half = keys[::2]
    net = oracle_build(half, [heights[k] for k in half])
    for k in keys[1::2]:
        oracle_insert(net, k, heights[k])
    assert net.validate().ok
    reference = oracle_build(keys, [heights[k] for k in keys])
    assert net.same_structure(reference)
    oracle_delete(net, keys[1::2])
    assert net.same_structure(oracle_build(half, [heights[k] for k in half]))


def test_oracle_merge_equals_filter_build():
    rng = random.Random(9)
    c_keys = sorted(rng.sample(range(0, 5000), 120))
    b_keys = sorted(set(rng.sample(range(5000, 9000), 80)))
    hs = {k: sample_height(rng) for k in c_keys + b_keys}
    clean = oracle_build(c_keys, [hs[k] for k in c_keys])
    merged = oracle_merge(clean, b_keys, hs)
    every = sorted(c_keys + b_keys)
    assert merged.same_structure(oracle_build(every, [hs[k] for k in every]))


def test_unlink_tower_counts_ports():
    net = oracle_build([10, 20], [2, 0])
    removed = net.unlink_tower(10)
    assert removed == 2 * 3  # three levels, two ports each
    assert net.level_list(0) == [20]
    assert net.validate().ok


def test_search_stalls_on_unrepresentable_relay():
    net = oracle_build([10, 20, 30], [0, 2, 0])
    net.live = set(net.heights)
    res = search(net, 30, representable=lambda k: k != 20)
    assert res.stalled and not res.found


def test_live_view_search_stalls_on_unrepresentable_relay_key():
    # 20 sits between live keys and is not live: the walk relays through it
    # and never stands on it, so only the relay check can stall
    net = oracle_build([10, 20, 30], [0, 0, 0])
    net.live = {10, 30}
    res = search(net, 30, representable=lambda k: k != 20)
    assert res.stalled and not res.found
    ref, path = reference_walk(net, 30, lambda k: k != 20, live_view=True)
    assert res == ref
    assert path == [(LS, 0), (10, 0)]
    assert search(net, 30).found


def test_live_view_search_reads_displaced_edge():
    # live 10 and 20; a merge splices the pending tail 21..29 after 20
    net = oracle_build([10, 20], [1, 0])
    net.live = {10, 20}
    tail = list(range(21, 30))
    for key in tail:
        net.add_key(key, 0)
    net.splice_run(20, tail, RS, 0)
    assert net.displaced == {(0, 20): RS}
    for target in (15, 20, 25, 30, RS):
        assert search(net, target) == \
            reference_search(net, target, live_view=True)
    net.live = {10, 20, 25}
    assert not net.displaced          # a new live set clears the index
    res, path = reference_walk(net, 30, live_view=True)
    assert search(net, 30) == res
    assert path[-1] == (25, 0)


def _splice_mid_merge(net: SkipNet, heights: dict, lowest: dict, rnd) -> None:
    """Splice the new keys at their levels lowest[k]..heights[k], in random
    order, some as multi-member runs, as a merge wave part way done does."""
    ops = [(lvl, k) for k in lowest for lvl in range(lowest[k], heights[k] + 1)]
    rnd.shuffle(ops)
    for key in lowest:
        net.add_key(key, heights[key])
    done = set()
    for lvl, key in ops:
        if (lvl, key) in done:
            continue
        net.ensure_height(lvl)
        v = LS
        while net.right(v, lvl) != RS and net.right(v, lvl) < key:
            v = net.right(v, lvl)
        z = net.right(v, lvl)
        run = [key]
        if rnd.random() < 0.5:
            run = sorted(k for (l, k) in ops
                         if l == lvl and v < k < z and (l, k) not in done)
        net.splice_run(v, run, z, lvl)
        done.update((lvl, k) for k in run)


@settings(max_examples=150, deadline=None)
@given(
    st.sets(st.integers(0, 400), max_size=40),
    st.sets(st.integers(0, 400), max_size=40),
    st.randoms(use_true_random=False),
)
def test_live_view_search_matches_reference_mid_merge(clean_keys, new_keys, rnd):
    clean_keys = sorted(clean_keys)
    new_keys = sorted(new_keys - set(clean_keys))
    heights = {k: sample_height(rnd) for k in clean_keys + new_keys}
    net = oracle_build(clean_keys, [heights[k] for k in clean_keys])
    net.live = {k for k in clean_keys if rnd.random() < 0.8}
    lowest = {k: rnd.randint(0, heights[k]) for k in new_keys
              if rnd.random() < 0.9}
    _splice_mid_merge(net, heights, lowest, rnd)
    merged = [k for k in lowest if lowest[k] == 0]
    roll = rnd.random()
    if merged and roll < 0.15:
        net.unlink_tower(rnd.choice(merged))
    elif net.live and roll < 0.3:
        net.unlink_tower(rnd.choice(sorted(net.live)))
    elif net.live and roll < 0.4:
        net.live.discard(rnd.choice(sorted(net.live)))
    elif merged and roll < 0.5:
        net.live = net.live | set(rnd.sample(merged, len(merged) // 2 + 1))
    bad = {k for k in net.heights if rnd.random() < 0.1}
    targets = [LS, RS, *rnd.sample(range(-1, 403), 30), *net.heights]
    # only the live view is defined mid-merge: a plain walk may stand on a
    # key whose lower levels are not spliced yet
    for target in targets:
        for rep in (None, lambda k: k not in bad):
            assert search(net, target, rep) == \
                reference_search(net, target, rep, live_view=True), \
                (target, rep is None)
