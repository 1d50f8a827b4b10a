"""Classic sequential skip-list updates, kept as the references.

``churnskip.skiplist.oracle_build`` builds a net level by level from its
keys and heights; ``cli`` and ``fixtures`` use it, so it stays there. These
update a net one key at a time, the textbook way: the batch delete, the
buffer and the merge wave must leave the same structure as they do.
"""

from __future__ import annotations

from churnskip.skiplist import LS, RS, SkipNet, oracle_build


def oracle_insert(net: SkipNet, key: int, height: int) -> None:
    """Classic skip-list insertion with a preset tower height."""
    net.ensure_height(height)
    net.add_key(key, height)
    pos, lvl = LS, net.height
    while True:
        z = net.right(pos, lvl)
        if z < key and z != RS:
            pos = z
        else:
            if lvl <= height:
                net.set_link(key, z, lvl)
                net.set_link(pos, key, lvl)
            if lvl == 0:
                return
            lvl -= 1


def oracle_delete(net: SkipNet, keys) -> None:
    """Classic unlink of each key, in sorted order."""
    for key in sorted(keys):
        if key in net.heights:
            net.unlink_tower(key)


def oracle_merge(clean: SkipNet, keys: list[int], heights: dict[int, int]
                 ) -> SkipNet:
    """One-by-one fixed-height insertion of keys into a copy of clean."""
    out = oracle_build(sorted(clean.heights),
                       [clean.heights[k] for k in sorted(clean.heights)])
    for key in keys:
        oracle_insert(out, key, heights[key])
    return out
