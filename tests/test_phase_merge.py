import math
import random
from collections import deque
from itertools import islice

from hypothesis import HealthCheck, given, settings, strategies as st

from churnskip.fixtures import merge_instance
from churnskip.phase_buffer import raise_levels
from churnskip.phase_merge import WaveEngine, event_record, preprocess, wave_merge
from churnskip.skiplist import (
    BUF_LS,
    BUF_RS,
    key_name,
    oracle_build,
    sample_height,
    search,
)
from skiplist_reference import oracle_merge
import merge_reference as reference
from merge_reference import MERGE_NARRATIVE
from work_reference import totals


def make_buffer(keys, heights):
    buf, _ = raise_levels(sorted(keys), heights)
    return buf


def random_pair(nc, nb, seed):
    rng = random.Random(seed)
    pool = rng.sample(range(10 * (nc + nb)), nc + nb)
    c_keys, b_keys = sorted(pool[:nc]), sorted(pool[nc:])
    heights = {k: sample_height(rng) for k in pool}
    clean = oracle_build(c_keys, [heights[k] for k in c_keys])
    buf = make_buffer(b_keys, {k: heights[k] for k in b_keys})
    return clean, buf, c_keys, b_keys, heights


def test_singleton_buffer_acts_like_insertion():
    clean, buf, c_keys, b_keys, heights = random_pair(40, 1, 0)
    summary, _, events = wave_merge(clean, buf)
    ref = oracle_merge(oracle_build(c_keys, [heights[k] for k in c_keys]),
                       b_keys, heights)
    assert clean.same_structure(ref)
    assert clean.validate().ok


def test_preprocess_groups_match_run_scan():
    rng = random.Random(3)
    keys = sorted(rng.sample(range(5000), 256))
    heights = {k: sample_height(rng) for k in keys}
    buf = make_buffer(keys, heights)
    pre = preprocess(buf)
    # oracle: maximal equal-height runs per level, sentinels included
    expected = 0
    hs = {BUF_LS: buf.height, BUF_RS: buf.height, **heights}
    for lvl in range(buf.height + 1):
        prev_tall = True
        level = [k for k in [BUF_LS, *keys, BUF_RS] if hs[k] >= lvl]
        run = 0
        for k in level:
            if hs[k] == lvl:
                run += 1
            else:
                expected += 1 if run else 0
                run = 0
        expected += 1 if run else 0
    assert len(pre.groups) == expected
    assert max(len(g) for g in pre.groups) <= 4 * math.log2(256)
    assert pre.top_members == buf.level_list(buf.height)


def test_oracle_equivalence_seeded_small():
    for seed in range(40):
        clean, buf, c_keys, b_keys, heights = random_pair(64, 64, seed)
        ref = oracle_merge(oracle_build(c_keys, [heights[k] for k in c_keys]),
                           b_keys, heights)
        summary, _, events = wave_merge(clean, buf)
        assert clean.same_structure(ref), f"seed {seed}"
        assert clean.validate().ok
        assert BUF_LS not in clean.heights and BUF_RS not in clean.heights


def test_merge_work_proportional_to_buffer():
    clean, buf, c_keys, b_keys, heights = random_pair(512, 128, 9)
    summary, rows, events = wave_merge(clean, buf)
    assert sum(totals(rows)) <= math.log2(512) ** 3 * (len(b_keys) + 2)
    assert len(rows) <= 12 * math.log2(512)


def test_empty_levels_and_tall_buffer():
    # buffer taller than the clean list forces sentinel growth
    clean = oracle_build([10, 20], [0, 1])
    buf = make_buffer([5, 15], {5: 6, 15: 0})
    summary, _, events = wave_merge(clean, buf)
    ref = oracle_merge(oracle_build([10, 20], [0, 1]), [5, 15], {5: 6, 15: 0})
    assert clean.same_structure(ref)


def test_wave_monotone_activation():
    # a walk activates only once each parent it still depends on has merged
    # at or below the walk's height: every group is born no earlier than
    # the round of the merged_at_level event in which that happened
    clean, buf, c_keys, b_keys, heights = random_pair(128, 128, 21)
    engine = WaveEngine(clean, buf)
    top = set(engine.pre.top_members)
    merged_at: dict[tuple[int, int], int] = {}   # (key, level) -> event round
    seen = 0
    while not engine.absorbed:
        engine.step()
        # a group keeps its leader for life, and no key leads two groups
        groups = {g.leader: g for g in engine.active}
        groups.update((g.leader, g) for g, _, _ in engine.group_spans)
        for ev in map(event_record, islice(engine.events, seen, None)):
            if ev["event"] == "merged_at_level":
                for key in groups[ev["group_leader"]].members:
                    merged_at.setdefault((key, ev["level"]), ev["round"])
        seen = len(engine.events)
    checked = 0
    for group, born, done in engine.group_spans:
        for m in group.members:
            if m in top:
                continue
            walk = engine.walks[m]
            lp, rp = engine.parents[m]
            for parent, indep in ((lp, walk.indep_lp), (rp, walk.indep_rp)):
                if parent is None or indep:
                    continue
                when = min(r for (key, level), r in merged_at.items()
                           if key == parent and level <= walk.height)
                assert born >= when, (m, parent, born, when)
                checked += 1
    assert checked > 50


def test_split_events_record_dichotomy():
    clean, buf, c_keys, b_keys, heights = random_pair(256, 256, 5)
    summary, _, events = wave_merge(clean, buf)
    assert summary.splits == sum(1 for e in events if e[3] == "split")
    assert summary.splits > 0


def test_group_time_bound_against_classic_insertion():
    # groups with no pipeline dependency finish within twice the classic
    # insertion rounds of their largest member, plus the split handoffs
    for seed in (2, 7, 11):
        clean, buf, c_keys, b_keys, heights = random_pair(256, 256, seed)
        base = oracle_build(c_keys, [heights[k] for k in c_keys])
        base.live = set(c_keys)
        engine = WaveEngine(clean, buf)
        deque(engine.rounds(), 0)
        for group, born, done in engine.group_spans:
            biggest = max((m for m in group.members if m not in (BUF_LS, BUF_RS)),
                          default=None)
            if biggest is None:
                continue
            probe = search(base, biggest)
            classic = probe.path_rounds + 1
            span = done - born
            allowance = 2 * classic + 2 * group.splits + 2 * (buf.height + 2)
            assert span <= allowance, (group.members, span, classic)


def test_merge_time_shape():
    clean, buf, c_keys, b_keys, heights = random_pair(512, 512, 13)
    engine = WaveEngine(clean, buf)
    deque(engine.rounds(), 0)
    top = buf.height
    for group, born, done in engine.group_spans:
        h = engine.walks[group.members[0]].height
        assert done <= 8 * (math.log2(512) + top - h + 2)


def test_golden_merge_narrative():
    clean, heights = merge_instance()
    buf = make_buffer(sorted(heights), heights)
    summary, _, events = wave_merge(clean, buf)
    seq = [(event, key_name(leader), level) for _, _, leader, event, level, *_ in events]
    idx = 0
    for want in MERGE_NARRATIVE:
        while idx < len(seq) and seq[idx] != want:
            idx += 1
        assert idx < len(seq), f"narrative event {want} missing or out of order"
        idx += 1
    assert clean.level_list(0) == sorted([*heights] + [4, 13, 26, 50, 60, 75])
    assert clean.validate().ok


def test_golden_event_details():
    clean, heights = merge_instance()
    buf = make_buffer(sorted(heights), heights)
    summary, _, events = wave_merge(clean, buf)
    events = [event_record(e) for e in events]
    splits = [e for e in events if e["event"] == "split"]
    assert splits[0]["level"] == 3 and splits[0]["z"] == 13
    assert splits[0]["new_leader"] == 23
    assert splits[1]["level"] == 1 and splits[1]["z"] == 50
    assert splits[1]["new_leader"] == 98
    top_merge = next(e for e in events
                     if e["event"] == "merged_at_level" and e["group_leader"] == 23
                     and e["level"] == 3)
    assert top_merge["left"] == 13
    m25 = next(e for e in events
               if e["event"] == "merged_at_level" and e["group_leader"] == 25
               and e["level"] == 0)
    assert m25["left"] == 23 and m25["right"] == 26
    m55 = next(e for e in events
               if e["event"] == "merged_at_level" and e["group_leader"] == 55)
    assert m55["level"] == 0 and m55["left"] == 50 and m55["right"] == 60
    m1 = next(e for e in events
              if e["event"] == "merged_at_level" and e["group_leader"] == 1)
    assert m1["level"] == 0 and m1["left"] == BUF_LS


@settings(max_examples=50, deadline=None)
@given(
    st.sets(st.integers(0, 4000), min_size=2, max_size=60),
    st.randoms(use_true_random=False),
)
def test_wave_matches_oracle_property(keyset, rnd):
    keys = sorted(keyset)
    cut = rnd.randrange(1, len(keys))
    c_keys, b_keys = keys[:cut], keys[cut:]
    rnd.shuffle(c_keys := list(c_keys))
    c_keys.sort()
    heights = {k: sample_height(rnd) for k in keys}
    clean = oracle_build(c_keys, [heights[k] for k in c_keys])
    buf = make_buffer(b_keys, {k: heights[k] for k in b_keys})
    wave_merge(clean, buf)
    reference = oracle_merge(
        oracle_build(c_keys, [heights[k] for k in c_keys]), b_keys, heights)
    assert clean.same_structure(reference)
    assert clean.validate().ok


def test_merge_into_empty_clean():
    clean = oracle_build([], [])
    buf = make_buffer([5, 9], {5: 1, 9: 0})
    wave_merge(clean, buf)
    assert clean.same_structure(oracle_build([5, 9], [1, 0]))


GEOMETRIES = ("interleaved", "tail_append", "head_prepend", "tiny_buffer")


def geometry_keys(kind, rnd, nc, nb):
    """Clean and buffer keys: interleaved at random, the buffer wholly right
    of the clean keys (the simulator's, as joiner ids only grow), wholly
    left of them, or a buffer of 1-5 keys into a larger list."""
    if kind == "tiny_buffer":
        nb = 1 + nb % 5
    pool = sorted(rnd.sample(range(10 * (nc + nb)), nc + nb))
    if kind == "tail_append":
        return pool[:nc], pool[nc:]
    if kind == "head_prepend":
        return pool[nb:], pool[:nb]
    b_keys = sorted(rnd.sample(pool, nb))
    return [k for k in pool if k not in set(b_keys)], b_keys


def _walk_state(walks):
    return {k: (w.height, w.lp, w.rp, w.vpos, w.vlevel, w.indep_lp, w.indep_rp)
            for k, w in walks.items()}


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(
    st.sampled_from(GEOMETRIES),
    st.integers(0, 160),
    st.integers(1, 90),
    st.floats(0.0, 1.0),
    st.randoms(use_true_random=False),
)
def test_wave_matches_reference_engine(kind, nc, nb, live_share, rnd):
    c_keys, b_keys = geometry_keys(kind, rnd, nc, nb)
    heights = {k: sample_height(rnd) for k in c_keys + b_keys}
    live = {k for k in c_keys if rnd.random() < live_share}
    runs = []
    for engine_cls in (WaveEngine, reference.WaveEngine):
        clean = oracle_build(c_keys, [heights[k] for k in c_keys])
        clean.live = set(live)
        buf = make_buffer(b_keys, {k: heights[k] for k in b_keys})
        engine = engine_cls(clean, buf, cycle=3)
        # the wave drops each child from its parents' lists as it activates
        wiring = {u: list(kids) for u, kids in engine.pre.children.items()}
        rows = list(engine.rounds())
        runs.append((engine, clean, rows, wiring))
    (new, clean, rows, wiring), (ref, ref_clean, ref_rows, ref_wiring) = runs
    assert [event_record(e) for e in new.events] == ref.events
    assert all(type(e) is tuple for e in new.events)
    assert rows == ref_rows    # every field, peak and busiest included
    assert new.pre.groups == ref.pre.groups
    assert new.pre.parents == ref.pre.parents
    assert wiring == ref_wiring
    assert new.pre.fanout == {u: len(kids) for u, kids in ref_wiring.items()}
    assert not any(new.children.values())     # every child activated
    assert new.pre.top_members == ref.pre.top_members
    assert new.pre.rows == ref.pre.rows
    assert new.summary == ref.summary
    assert new.group_spans == ref.group_spans
    assert new.merged_level == ref.merged_level
    assert _walk_state(new.walks) == _walk_state(ref.walks)
    assert new.idle == 0
    assert clean.same_structure(ref_clean)
    assert clean.pending == ref_clean.pending
    assert clean.displaced == ref_clean.displaced
    assert clean.validate().ok
