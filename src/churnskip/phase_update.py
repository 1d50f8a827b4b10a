"""Promotion of the clean network to live: pure local label flips.

Every "10" port becomes "11" and the freshly merged keys gain live
membership. No messages, no edge changes; one simulated round. A "01"
label (live-only edge) is unrepresentable here because splice-displaced
and red-node edges leave both networks when they are charged, in the merge
and delete phases respectively. The simulator still remembers where each
displaced live edge pointed, in ``SkipNet.displaced``, so that live-view
searches skip the pending keys in O(1); that index is bookkeeping, not an
edge, and assigning the new live set here clears it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DirtyLabels
from .skiplist import SkipNet


@dataclass
class UpdateSummary:
    labels_flipped: int = 0
    live_keys: int = 0


def update_phase(net: SkipNet) -> UpdateSummary:
    for lvl, a, b in net.pending:
        if lvl >= len(net.links.get(a, ())) or net.links[a][lvl][1] != b:
            raise DirtyLabels(f"stale pending label ({a},{b})@{lvl}")
    flipped = len(net.pending)
    net.pending.clear()
    net.live = set(net.heights)
    return UpdateSummary(labels_flipped=flipped, live_keys=len(net.live))


def live_equals_clean(net: SkipNet) -> bool:
    """Post-update audit: the labeled live edge set is exactly the clean one."""
    return not net.pending and net.live == set(net.heights)
