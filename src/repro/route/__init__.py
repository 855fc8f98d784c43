"""Routing stage (Algorithm 2, lines 9–18) and the baseline router.

One routing loop serves both flows: :func:`route_tasks` (the paper's
weighted, slot-aware A*) and :func:`route_tasks_baseline` (BA's
construction by correction) differ only in the search that finds a
task's path at a given delay.  :class:`RoutingResult` is the whole
routing record: its paths carry their per-cell occupations, from which
the channel footprint and the per-cell usage history are derived.
"""

from repro.route.flat import (
    DEFAULT_INITIAL_WEIGHT,
    FlatOccupancy,
    FlatRoutingState,
    find_path_flat,
)
from repro.route.paths import CellUsage, RoutedPath
from repro.route.router import (
    DEFAULT_ROUTE_ENGINE,
    ROUTE_ENGINES,
    RoutingResult,
    route_tasks,
    route_tasks_baseline,
)
from repro.route.timeslots import TimeSlot

__all__ = [
    "CellUsage",
    "DEFAULT_INITIAL_WEIGHT",
    "DEFAULT_ROUTE_ENGINE",
    "FlatOccupancy",
    "FlatRoutingState",
    "ROUTE_ENGINES",
    "RoutedPath",
    "RoutingResult",
    "TimeSlot",
    "find_path_flat",
    "route_tasks",
    "route_tasks_baseline",
]
