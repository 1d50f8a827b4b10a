"""An O(n) sweep of the invariants `simcore.World.spawn` and `run_round`
keep, for tests.

The world checks them event by event: `spawn` refuses an id that is alive
or departed, and a departure moves its id out of `alive`. This sweep checks
the resulting state as a whole. The world keeps no record of departures,
so `spawn` alone keeps a departed id out; a test of its own
(`test_rejoin_of_departed_id_raises_in_its_round`) covers that.
"""

from churnskip.errors import InconsistentWorld


def validate_world(world) -> None:
    """Raise InconsistentWorld unless every alive node has a height."""
    for node in world.alive:
        if node not in world.heights:
            raise InconsistentWorld(f"alive node {node} never joined")
