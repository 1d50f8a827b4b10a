import random

import pytest

from churnskip.overlay import bootstrap_overlay
from churnskip.phase_buffer import build_sorting_overlay, create_buffer, run_network_sort
from churnskip.phase_merge import preprocess
from churnskip.skiplist import sample_height
from churnskip.work import ParallelSends, sends_row, uniform_round
from buffer_reference import network_sort_replay, sorting_overlay_replay
from work_reference import RoundAcc, bootstrap_replay, preprocess_replay


@pytest.mark.parametrize("calls,formed,deleted", [
    # a tied peak goes to the key counted first, in either order
    pytest.param([(4, 2), (9, 2)], 0, 0, id="tie"),
    pytest.param([(9, 2), (4, 2)], 0, 0, id="tie-reversed"),
    # a key accumulates over several calls
    pytest.param([(3, 1), (8, 2), (3, 1), (3, 1)], 1, 0, id="accumulates"),
    pytest.param([(8, 2), (3, 1), (3, 1)], 0, 0, id="accumulates-to-tie"),
    # a zero count is no sender
    pytest.param([(5, 0)], 0, 0, id="zero"),
    pytest.param([(5, 0), (7, 1)], 0, 0, id="zero-beside-sender"),
    pytest.param([], 0, 0, id="empty"),
    pytest.param([], 3, 2, id="edges-only"),
    pytest.param([], 0, 6, id="deletes-only"),
    pytest.param([(1, 1)], 2, 5, id="edges-and-sends"),
    # uniform rounds: every listed key sends k
    pytest.param([], 4, 0, id="uniform-none"),
    pytest.param([(5, 0)], 4, 0, id="uniform-k0"),
    pytest.param([(5, 1)], 4, 0, id="uniform-one"),
    pytest.param([(3, 2), (8, 2), (1, 2)], 4, 0, id="uniform-three"),
    pytest.param([(7, 3), (2, 3)], 4, 0, id="uniform-two"),
])
def test_rows_equal_sealed_reference_acc(calls, formed, deleted):
    acc = RoundAcc()
    sends: dict[int, int] = {}
    for key, n in calls:
        acc.msg(key, n)
        sends[key] = sends.get(key, 0) + n
    acc.edges(formed=formed, deleted=deleted)
    expect = acc.seal()
    assert sends_row(sends, formed, deleted) == expect
    if not formed:
        parallel = ParallelSends()
        parallel.add([[key for key, n in calls for _ in range(n)]], deleted)
        assert parallel.rows() == [expect]
    keys, ks = [key for key, _ in calls], {n for _, n in calls}
    if len(set(keys)) == len(keys) and len(ks) <= 1 and not deleted:
        k = ks.pop() if ks else 1
        assert uniform_round(keys, k, formed) == expect
        assert uniform_round(dict.fromkeys(keys), k, formed) == expect


def _orders(m, rng):
    keys = rng.sample(range(10 * m + 10), m)
    return [sorted(keys), sorted(keys, reverse=True), keys]


@pytest.mark.parametrize("m", [*range(1, 71), 128, 1000])
def test_buffer_profiles_equal_comparator_replay(m):
    rng = random.Random(m)
    for joiners in _orders(m, rng):
        overlay = build_sorting_overlay(joiners)
        assert overlay.build_rows == sorting_overlay_replay(joiners)
        out, rows = run_network_sort(overlay)
        ref_out, ref_rows = network_sort_replay(joiners)
        assert out == ref_out == sorted(joiners)
        assert rows == ref_rows


@pytest.mark.parametrize("n", [8, 16, 64, 300, 1024])
def test_bootstrap_profile_equals_per_node_replay(n):
    rng = random.Random(n)
    nodes = rng.sample(range(5 * n), n)
    state, rows = bootstrap_overlay(nodes, random.Random(0))
    assert rows == bootstrap_replay(nodes, state)
    assert (state.k == 0) == (n == 8)     # the degenerate overlay is covered


@pytest.mark.parametrize("seed", range(30))
def test_preprocess_profile_equals_per_node_replay(seed):
    rng = random.Random(seed)
    joiners = rng.sample(range(100_000), rng.randint(1, 300))
    heights = {k: sample_height(rng) for k in joiners}
    buf, _, _ = create_buffer(joiners, heights)
    pre = preprocess(buf)
    assert pre.rows == preprocess_replay(pre)
