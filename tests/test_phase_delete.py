import math
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from churnskip.phase_delete import (
    MessageShapeViolation,
    _merge_pairs,
    delete_phase,
    fold_pairs,
    fold_tree,
    form_tree,
)
from churnskip.skiplist import LS, RS, oracle_build, sample_height
from buffer_reference import bridge_chain
from skiplist_reference import oracle_delete
import delete_reference as reference
from delete_reference import expected_bridges, leaf_pair
from work_reference import totals


def build_random(n, seed):
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(10 * n), n))
    heights = [sample_height(rng) for _ in keys]
    return oracle_build(keys, heights), keys, heights, rng


def test_minimal_black_red_red_black():
    net = oracle_build([10, 20, 30, 40], [0, 0, 0, 0])
    summary, _ = delete_phase(net, {20, 30})
    assert summary.reds_removed == 2
    assert summary.bridge_edges_created == 1
    assert net.level_list(0) == [10, 40]
    assert net.validate().ok


def test_no_reds_is_free():
    net = oracle_build([1, 2, 3], [0, 1, 0])
    summary, rows = delete_phase(net, set())
    assert summary.reds_removed == 0
    assert rows == []


def test_single_red_tower_bridges_every_level():
    net = oracle_build([10, 20, 30], [3, 2, 3])
    summary, rows = delete_phase(net, {20})
    # one bridge per level of the removed tower
    assert summary.bridge_edges_created == 3
    assert net.validate().ok
    n = 3
    assert totals(rows)[0] <= 40 * (2 + 1) * math.log2(8)


@pytest.mark.parametrize("n", [64, 512])
def test_oracle_equivalence_seeded(n):
    for seed in range(100):
        net, keys, heights, rng = build_random(n, seed)
        reds = set(rng.sample(keys, n // 5))
        reference = oracle_build(keys, heights)
        oracle_delete(reference, reds)
        summary, _ = delete_phase(net, reds)
        assert net.same_structure(reference), f"seed {seed}"
        assert net.validate().ok
        assert summary.reds_removed == len(reds)


def test_bridges_connect_level_consecutive_blacks_only():
    net, keys, heights, rng = build_random(256, 77)
    reds = set(rng.sample(keys, 60))
    blacks = {k: h for k, h in zip(keys, heights) if k not in reds}
    # capture adjacency expectations per level before mutation
    expect = {}
    for lvl in range(net.height + 1):
        chain = [LS, *net.iter_level(lvl), RS]
        expect[lvl] = expected_bridges(chain, reds)
    delete_phase(net, reds)
    for lvl, pairs in expect.items():
        level_blacks = [LS] + [k for k in sorted(blacks) if blacks[k] >= lvl] + [RS]
        rank = {k: i for i, k in enumerate(level_blacks)}
        for a, b in pairs:
            assert rank[b] == rank[a] + 1


def test_tree_shape_and_leaves():
    net, keys, heights, rng = build_random(512, 5)
    reds = set(rng.sample(keys, 100))
    lvl = 0
    tree = reference.tree_formation(net, lvl, reds)
    chain = [LS, *net.iter_level(lvl), RS]
    leaves = set()
    for i, key in enumerate(chain):
        if key in reds:
            continue
        if (i and chain[i - 1] in reds) or (i + 1 < len(chain) and chain[i + 1] in reds):
            leaves.add(key)
    assert set(tree.leaves) == leaves
    assert tree.root == (LS, net.height)
    assert tree.depth <= 8 * math.log2(512)
    # every recorded parent chain terminates at the root
    for node in tree.parents:
        cur, hops = node, 0
        while cur != tree.root:
            cur = tree.parents[cur]
            hops += 1
            assert hops < 10_000
    leaves, depths, layers = form_tree(net, lvl, reds)
    assert leaves == tree.leaves
    assert len(layers) - 1 == tree.depth
    assert _depth_map(depths) == tree.depth_map


def _depth_map(depths):
    """The per-level maps of form_tree as one (key, level) -> depth dict."""
    return {(key, lvl): d for lvl, level in enumerate(depths) for key, d in level.items()}


def _layer_keys(layers):
    return Counter((key, d) for d, layer in enumerate(layers) for key in layer)


def _layer_keys_of(depth_map):
    return Counter((key, d) for (key, _lvl), d in depth_map.items())


def test_work_proportional_to_reds():
    net, keys, heights, rng = build_random(512, 31)
    reds = set(rng.sample(keys, 20))
    summary, rows = delete_phase(net, reds)
    polylog = math.log2(512) ** 3
    assert sum(totals(rows)) <= polylog * len(reds)
    assert len(rows) <= 8 * math.log2(512)


def test_merge_pairs_shape_violation():
    with pytest.raises(MessageShapeViolation):
        _merge_pairs((1, False, 2, True), (3, False, 4, False), [], 0)


def test_bridge_chain_matches_scan():
    rng = random.Random(4)
    for _ in range(50):
        keys = sorted(rng.sample(range(1000), rng.randint(2, 60)))
        reds = {k for k in keys if rng.random() < 0.4}
        chain = [LS, *keys, RS]
        # the blacks next to a red run, left to right, are the fold's leaves
        red = [False, *(k in reds for k in chain), False]
        leaves = [leaf_pair(k, red[i], red[i + 2]) for i, k in enumerate(chain)
                  if not red[i + 1] and (red[i] or red[i + 2])]
        bridges, senders = fold_pairs(leaves)
        bridges.sort()
        assert bridges == expected_bridges(chain, reds)
        assert (bridges, senders) == bridge_chain(chain, reds)
        if bridges:
            assert len(senders) <= math.ceil(math.log2(len(chain))) + 2


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(
    st.sets(st.integers(0, 2000), min_size=1, max_size=50),
    st.randoms(use_true_random=False),
)
def test_delete_matches_oracle_property(keyset, rnd):
    keys = sorted(keyset)
    heights = [sample_height(rnd) for _ in keys]
    reds = {k for k in keys if rnd.random() < 0.5}
    net = oracle_build(keys, heights)
    reference = oracle_build(keys, heights)
    oracle_delete(reference, reds)
    delete_phase(net, reds)
    assert net.same_structure(reference)
    assert net.validate().ok


def test_worked_instance_tree_shape():
    # backtracking tree of the worked deletion instance at level 0: each
    # leaf climbs its own tower while it is the tallest and hops left
    # through shorter nodes, meeting at the left-topmost sentinel
    from churnskip.fixtures import delete_instance

    net, reds = delete_instance()
    tree = reference.tree_formation(net, 0, reds)
    assert sorted(tree.leaves) == [LS, 13, 26, 50, 60, RS]
    expected = {
        (LS, 0): (LS, 1), (LS, 1): (LS, 2), (LS, 2): (LS, 3),
        (13, 0): (13, 1), (13, 1): (13, 2), (13, 2): (13, 3),
        (13, 3): (LS, 3),
        (26, 0): (26, 1), (26, 1): (13, 1),
        (35, 1): (35, 2), (35, 2): (13, 2),
        (50, 0): (50, 1), (50, 1): (35, 1),
        (60, 0): (50, 0),
        (RS, 0): (RS, 1), (RS, 1): (RS, 2), (RS, 2): (RS, 3),
        (RS, 3): (13, 3),
    }
    assert tree.parents == expected
    assert tree.root == (LS, 3)
    # the level-major maps hold the same nodes at the same depths
    leaves, depths, layers = form_tree(net, 0, reds)
    assert leaves == tree.leaves
    assert _depth_map(depths) == tree.depth_map
    assert sorted(depths[3]) == [LS, 13, RS]
    assert _layer_keys(layers) == _layer_keys_of(tree.depth_map)


def test_delete_everything_leaves_sentinel_pair():
    net = oracle_build([1, 2, 3, 4], [0, 2, 1, 0])
    delete_phase(net, {1, 2, 3, 4})
    assert net.level_list(0) == []
    assert net.validate().ok


def _assert_true_peaks(rows, recount):
    # every row but the last (the apply row) is a message round whose
    # busiest key is the one that sends the most over all level trees
    assert len(rows) == len(recount) + (1 if rows else 0)
    for row, counts in zip(rows, recount):
        assert row.messages == counts.total()
        assert row.max_node_messages == max(counts.values())
        assert counts[row.busiest] == row.max_node_messages
    if rows:
        assert rows[-1].messages == 0


def _same_delete_as_reference(keys, heights, reds, pending=()):
    """Run the delete and the level-walking reference on equal nets and
    compare the trees, the bridges, every row field, the structure and
    the pending edges."""
    net = oracle_build(keys, heights)
    ref = oracle_build(keys, heights)
    for lvl in range(net.height + 1):
        chain = [LS, *net.iter_level(lvl), RS]
        for i, (a, b) in enumerate(zip(chain, chain[1:])):
            if i in pending:
                net.set_link(a, b, lvl, pending=True)
                ref.set_link(a, b, lvl, pending=True)
    level_red = {k for k in reds if k in net.heights}
    for lvl in range(net.height + 1):
        level_red = {k for k in level_red if net.heights[k] >= lvl}
        if not level_red:
            break
        leaves, depths, layers = form_tree(net, lvl, level_red)
        expect = reference.tree_formation(ref, lvl, level_red)
        assert (leaves, len(layers) - 1) == (expect.leaves, expect.depth)
        assert _depth_map(depths) == expect.depth_map
        assert _layer_keys(layers) == _layer_keys_of(expect.depth_map)
        bridges, _ = fold_tree(net, lvl, level_red, leaves, depths)
        assert bridges == reference.propagate_and_bridge(ref, expect, level_red)[0]
    recount = reference.sender_counts(ref, reds)
    summary, rows = delete_phase(net, reds)
    ref_summary, ref_rows, _ = reference.delete_phase(ref, reds)
    assert summary == ref_summary
    assert [(r.messages, r.edges_formed, r.edges_deleted) for r in rows] == \
        [(r.messages, r.edges_formed, r.edges_deleted) for r in ref_rows]
    _assert_true_peaks(rows, recount)
    assert net.same_structure(ref)
    assert net.pending == ref.pending
    assert net.live == ref.live
    return summary


@pytest.mark.parametrize("keys,heights,reds", [
    ([10, 20], [2, 0], {10}),                    # LS is a leaf at the top level
    ([10, 20, 30], [0, 1, 2], {30}),             # RS is a leaf
    ([10, 20, 30, 40], [1, 0, 3, 2], {10, 20, 30, 40}),   # every key red
    ([10], [0], {10}),                           # a single key
    ([10], [3], set()),
    ([10, 20, 30, 40, 50], [0, 2, 1, 2, 0], {20, 40}),    # reds only at the top
    ([10, 20, 30, 40, 50], [0, 2, 1, 2, 0], {20}),
])
def test_delete_matches_reference_edge_cases(keys, heights, reds):
    summary = _same_delete_as_reference(keys, heights, reds, pending={0, 2})
    assert summary.reds_removed == len(reds)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(
    st.sets(st.integers(0, 3000), min_size=1, max_size=120),
    st.floats(0.0, 1.0),
    st.sets(st.integers(0, 40)),
    st.randoms(use_true_random=False),
)
def test_delete_matches_reference_property(keyset, red_share, pending, rnd):
    keys = sorted(keyset)
    heights = [sample_height(rnd) for _ in keys]
    reds = {k for k in keys if rnd.random() < red_share}
    _same_delete_as_reference(keys, heights, reds, pending)


def test_delete_rows_report_true_per_key_peak():
    # one key sends in several level trees in the same round; the row
    # reports what it sends over all of them, not the peak of one tree
    net, keys, heights, rng = build_random(512, 9)
    reds = set(rng.sample(keys, 100))
    recount = reference.sender_counts(net, reds)
    _, rows = delete_phase(net, reds)
    _assert_true_peaks(rows, recount)
    assert max(row.max_node_messages for row in rows) > 1
