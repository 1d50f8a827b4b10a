import math
import random
from itertools import product

import pytest

from churnskip import phase_buffer
from churnskip.errors import NoJoiners
from churnskip.maintenance import Simulation
from churnskip.params import SimParams
from churnskip.phase_buffer import (
    build_sorting_overlay,
    create_buffer,
    raise_levels,
    run_network_sort,
)
from churnskip.skiplist import BUF_LS, BUF_RS, oracle_build, sample_height
import buffer_reference as reference
from buffer_reference import build_bitonic
from work_reference import rewire_recount, totals


def test_width_four_matches_reference_shape():
    net = build_bitonic(4)
    assert net.depth == 3
    assert reference.comparator_count(net) == 6
    assert all(i < j for layer in net.layers for i, j in layer)


def test_width_one_is_empty():
    net = build_bitonic(1)
    assert net.depth == 0
    assert net.apply([42]) == [42]


def test_depth_formula():
    for m in (2, 3, 8, 100, 128, 512):
        net = build_bitonic(m)
        q = math.ceil(math.log2(m))
        assert net.padded_width == 1 << q
        assert net.depth == q * (q + 1) // 2


@pytest.mark.parametrize("m", range(2, 13))
def test_zero_one_principle_exhaustive_small(m):
    net = build_bitonic(m)
    for bits in product((0, 1), repeat=m):
        assert net.apply(list(bits)) == sorted(bits)


def test_sorts_random_permutations():
    rng = random.Random(1)
    for m in (5, 32, 100):
        net = build_bitonic(m)
        for _ in range(50):
            values = rng.sample(range(10 * m), m)
            assert net.apply(values) == sorted(values)


def test_overlay_requires_joiners():
    with pytest.raises(NoJoiners):
        build_sorting_overlay([])


def test_overlay_padding_and_work():
    rng = random.Random(2)
    joiners = rng.sample(range(10_000), 100)
    overlay = build_sorting_overlay(joiners)
    assert overlay.padded_width == 128
    assert len(overlay.build_rows) <= 2 * math.log2(1024)
    log2n = math.log2(1024)
    assert sum(totals(overlay.build_rows)) <= 12 * len(joiners) * log2n ** 2


def test_network_sort_idempotent_and_depth():
    joiners = list(range(128))
    overlay = build_sorting_overlay(joiners)
    out, rows = run_network_sort(overlay)
    assert out == joiners
    assert len(rows) == 28  # depth(128)
    reverse = build_sorting_overlay(list(reversed(joiners)))
    out, rows = run_network_sort(reverse)
    assert out == joiners
    assert len(rows) == 28


def test_raise_levels_all_zero_heights_is_chain():
    keys = [3, 7, 9]
    buf, _ = raise_levels(keys, {k: 0 for k in keys})
    assert buf.level_list(0) == [BUF_LS, 3, 7, 9, BUF_RS]
    assert buf.height == 0
    assert buf.validate().ok


def test_raise_levels_marking_fixture():
    # Fill-in marking: entries below their height are rewired away per level.
    keys = [10, 20, 30, 40, 50]
    heights = {10: 0, 20: 2, 30: 1, 40: 0, 50: 2}
    buf, _ = raise_levels(keys, heights)
    assert buf.level_list(0) == [BUF_LS, 10, 20, 30, 40, 50, BUF_RS]
    assert buf.level_list(1) == [BUF_LS, 20, 30, 50, BUF_RS]
    assert buf.level_list(2) == [BUF_LS, 20, 50, BUF_RS]
    assert buf.validate().ok


@pytest.mark.parametrize("count,seed", [(3000, 4), (1, 0), (2, 1), (37, 2), (256, 3)])
def test_rewire_rows_report_true_per_key_peak(count, seed):
    # a key black at several levels sends in several chains in the same
    # round; the row reports what it sends over all of them
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(100 * count), count))
    heights = {k: sample_height(rng) for k in keys}
    _, rows = raise_levels(keys, heights)
    rewire = rows[1:]
    recount = rewire_recount(keys, heights)
    assert len(rewire) == len(recount)
    for row, (counts, deleted) in zip(rewire, recount):
        assert (row.messages, row.edges_formed, row.edges_deleted) == \
            (counts.total(), 0, deleted)
        assert row.max_node_messages == max(counts.values())
        assert counts[row.busiest] == row.max_node_messages
    if count == 3000:
        assert sum(row.max_node_messages > 1 for row in rewire) > len(rewire) // 2


@pytest.mark.parametrize("count", [1, 2, 37, 3000, 16384])
@pytest.mark.parametrize("flat", [False, True])
def test_raise_levels_matches_reference(count, flat):
    # the level-by-level rescan of every joiner gives the same buffer and
    # rows, peak and busiest included
    rng = random.Random(count)
    keys = sorted(rng.sample(range(100 * count), count))
    heights = {k: 0 if flat else sample_height(rng) for k in keys}
    buf, rows = raise_levels(keys, heights)
    ref, ref_rows = reference.raise_levels(keys, heights)
    assert buf.links == ref.links
    assert buf.heights == ref.heights
    assert buf.pending == ref.pending
    assert len(rows) == len(ref_rows)
    for row, want in zip(rows, ref_rows):
        assert (row.messages, row.edges_formed, row.edges_deleted,
                row.max_node_messages, row.busiest) == \
            (want.messages, want.edges_formed, want.edges_deleted,
             want.max_node_messages, want.busiest)
    if not flat and count >= 37:
        assert len(rows) > 2


def test_seeded_builds_match_oracle():
    for seed in range(60):
        rng = random.Random(seed)
        count = rng.randint(1, 256)
        joiners = rng.sample(range(100_000), count)
        heights = {k: sample_height(rng) for k in joiners}
        buf, summary, rows = create_buffer(joiners, heights)
        assert buf.validate().ok
        top = max(heights.values(), default=0)
        ordered = sorted(joiners)
        ref = oracle_build(
            [BUF_LS, *ordered, BUF_RS],
            [top, *(heights[k] for k in ordered), top],
        )
        assert buf.same_structure(ref)
        assert len(rows) <= 4 * math.log2(1024) + summary.sort_depth


def test_empty_phase_is_noop():
    buf, summary, rows = create_buffer([], {})
    assert buf is None
    assert rows == []


def test_hot_path_runs_no_comparator_network():
    assert not hasattr(phase_buffer, "build_bitonic")
    joiners = [9, 4, 7, 1]
    buf, summary, _ = create_buffer(joiners, {k: 0 for k in joiners})
    assert buf.level_list(0) == [BUF_LS, 1, 4, 7, 9, BUF_RS]
    assert (summary.padded_width, summary.sort_depth) == (4, 3)
    sim = Simulation(SimParams(n=64, seed_adv=1, seed_alg=2, churn_rate=2,
                               horizon_cycles=2))
    sim.bootstrap_all()
    cycles = [sim.run_cycle(), sim.run_cycle()]   # the first has no joiners yet
    assert cycles[-1].joiners > 0 and not sim.world.failures
