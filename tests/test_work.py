import random

import pytest

from churnskip.overlay import bootstrap_overlay
from churnskip.params import SimParams
from churnskip.phase_buffer import build_sorting_overlay, create_buffer, run_network_sort
from churnskip.phase_merge import preprocess
from churnskip.skiplist import sample_height
from churnskip.work import RoundAcc, uniform_round
from work_reference import (
    bootstrap_replay,
    network_sort_replay,
    preprocess_replay,
    sorting_overlay_replay,
)


@pytest.mark.parametrize("nodes,k", [([], 1), ([5], 0), ([5], 1), ([3, 8, 1], 2),
                                     ({7: None, 2: None}, 3)])
def test_uniform_round_equals_sealed_acc(nodes, k):
    acc = RoundAcc()
    for node in nodes:
        acc.msg(node, k)
    acc.edges(formed=4)
    assert uniform_round(nodes, k, formed=4) == acc.seal()


def _orders(m, rng):
    keys = rng.sample(range(10 * m + 10), m)
    return [sorted(keys), sorted(keys, reverse=True), keys]


@pytest.mark.parametrize("m", [*range(1, 71), 128, 1000])
def test_buffer_profiles_equal_comparator_replay(m):
    rng = random.Random(m)
    for joiners in _orders(m, rng):
        overlay = build_sorting_overlay(joiners)
        assert overlay.build_profile.rows == sorting_overlay_replay(joiners).rows
        out, profile = run_network_sort(overlay)
        ref_out, ref_profile = network_sort_replay(joiners)
        assert out == ref_out == sorted(joiners)
        assert profile.rows == ref_profile.rows


@pytest.mark.parametrize("n", [8, 16, 64, 300, 1024])
def test_bootstrap_profile_equals_per_node_replay(n):
    rng = random.Random(n)
    nodes = rng.sample(range(5 * n), n)
    state, profile = bootstrap_overlay(nodes, SimParams(n=n), random.Random(0),
                                       allow_degenerate=True)
    assert profile.rows == bootstrap_replay(nodes, state).rows
    assert (state.k == 0) == (n == 8)     # the degenerate overlay is covered


@pytest.mark.parametrize("seed", range(30))
def test_preprocess_profile_equals_per_node_replay(seed):
    rng = random.Random(seed)
    joiners = rng.sample(range(100_000), rng.randint(1, 300))
    heights = {k: sample_height(rng) for k in joiners}
    buf, _, _ = create_buffer(joiners, heights)
    pre = preprocess(buf)
    assert pre.profile.rows == preprocess_replay(pre).rows
