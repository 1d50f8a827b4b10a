"""An O(n) sweep of the invariants `simcore.World.spawn` and `run_round`
keep, for tests.

The world checks them event by event: `spawn` refuses an id that is alive
or departed, and a departure moves its id out of `alive` into
`departed_round`. This sweep checks the resulting state as a whole.
"""

from churnskip.errors import InconsistentWorld


def validate_world(world) -> None:
    """Raise InconsistentWorld unless no departed node is alive and every
    alive node has a height."""
    if not world.alive.isdisjoint(world.departed_round):
        raise InconsistentWorld("departed node still alive")
    for node in world.alive:
        if node not in world.heights:
            raise InconsistentWorld(f"alive node {node} never joined")
