"""An O(n) sweep of the invariants `simcore.World.spawn` and `run_round`
keep, and a dict view of an `IdMap`, for tests.

The world checks them event by event: `spawn` refuses an id that is alive
or departed, and a departure moves its id out of `alive`. This sweep checks
the resulting state as a whole. The world keeps no record of departures,
so `spawn` alone keeps a departed id out; a test of its own
(`test_rejoin_of_departed_id_raises_in_its_round`) covers that.
"""

from collections.abc import Iterator

from churnskip.errors import InconsistentWorld


class IdDict:
    """An IdMap read as a dict: ``[]``, ``in``, ``len``, ``items`` and
    iteration, in id order. The package reads an IdMap only through
    ``get`` and ``slots``."""

    def __init__(self, idmap):
        self.idmap = idmap

    def __getitem__(self, key: int) -> int:
        value = self.idmap.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __contains__(self, key: int) -> bool:
        return self.idmap.get(key) is not None

    def __len__(self) -> int:
        return len(self.idmap.slots) - self.idmap.slots.count(-1)

    def items(self) -> Iterator[tuple[int, int]]:
        return ((key, value) for key, value in enumerate(self.idmap.slots)
                if value >= 0)

    def __iter__(self) -> Iterator[int]:
        return (key for key, _ in self.items())


def validate_world(world) -> None:
    """Raise InconsistentWorld unless every alive node has a height."""
    heights = IdDict(world.heights)
    for node in world.alive:
        if node not in heights:
            raise InconsistentWorld(f"alive node {node} never joined")
