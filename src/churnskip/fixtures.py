"""Built-in worked instances for the delete, creation, and merge phases.

The instances are small skip lists whose protocol runs exercise every
interesting event: multi-level red runs against both sentinels for the
deletion routine, fill-in rewiring for buffer creation, and a merge whose
golden event trace covers splits, pipelined waits, early activation, and
virtual-walk anchoring. `churnskip validate --fixture` runs them; the
merge's event narrative, which only the tests read, is kept with them
(``tests/merge_reference.py``).
"""

from __future__ import annotations

from .skiplist import SkipNet, oracle_build

# Deletion instance: red towers of several heights, runs of length >= 2,
# and reds adjacent to both sentinels.
DELETE_KEYS = {4: 0, 9: 2, 13: 3, 21: 0, 26: 1, 35: 2, 44: 0, 50: 1, 60: 0, 75: 2}
DELETE_REDS = {4, 9, 21, 35, 44, 75}

# Buffer-creation instance: joiner keys with preset heights; fill-in entries
# at each copied level get rewired away.
CREATE_KEYS = {3: 0, 8: 2, 15: 0, 22: 1, 31: 0, 47: 2, 58: 0}

# Merge instance: clean network and buffer whose wave run reproduces the
# worked top-down narrative (split on 13 at the top, split on 50 at level 1,
# 25 pipelining behind 23, 1 starting at the buffer sentinel, 55 anchoring
# at 50).
MERGE_CLEAN = {4: 0, 13: 3, 26: 0, 50: 1, 60: 0, 75: 0}
MERGE_BUFFER = {1: 0, 23: 3, 25: 1, 55: 0, 98: 3}


def delete_instance() -> tuple[SkipNet, set[int]]:
    keys = sorted(DELETE_KEYS)
    return oracle_build(keys, [DELETE_KEYS[k] for k in keys]), set(DELETE_REDS)


def create_instance() -> dict[int, int]:
    return dict(CREATE_KEYS)


def merge_instance() -> tuple[SkipNet, dict[int, int]]:
    keys = sorted(MERGE_CLEAN)
    clean = oracle_build(keys, [MERGE_CLEAN[k] for k in keys])
    return clean, dict(MERGE_BUFFER)


# Full golden event trace of the merge instance, frozen from a verified run
# (round, group leader key, event, level). `validate --fixture merge`
# checks a fresh run against it.
MERGE_GOLDEN_TRACE = [
    (1, -1, "split", 3),
    (2, -1, "merged_at_level", 3),
    (2, -1, "move_down", 2),
    (4, -1, "merged_at_level", 2),
    (4, -1, "move_down", 1),
    (5, 23, "merged_at_level", 3),
    (5, 23, "move_down", 2),
    (6, -1, "merged_at_level", 1),
    (6, -1, "move_down", 0),
    (7, 23, "merged_at_level", 2),
    (7, 23, "move_down", 1),
    (8, -1, "merged_at_level", 0),
    (8, -1, "done", 0),
    (8, 23, "split", 1),
    (9, 23, "merged_at_level", 1),
    (9, 23, "move_down", 0),
    (10, 1, "merged_at_level", 0),
    (10, 1, "done", 0),
    (11, 23, "merged_at_level", 0),
    (11, 23, "done", 0),
    (11, 25, "merged_at_level", 1),
    (11, 25, "move_down", 0),
    (12, 98, "merged_at_level", 1),
    (12, 98, "move_down", 0),
    (13, 25, "merged_at_level", 0),
    (13, 25, "done", 0),
    (13, 98, "move_right", 0),
    (14, 98, "move_right", 0),
    (15, 55, "merged_at_level", 0),
    (15, 55, "done", 0),
    (16, 98, "merged_at_level", 0),
    (16, 98, "done", 0),
]
