"""Routing stage (Algorithm 2, lines 9–18) and the baseline router."""

from repro.route.baseline_router import route_tasks_baseline
from repro.route.grid_graph import (
    DEFAULT_INITIAL_WEIGHT,
    CellUsage,
    RoutingGrid,
)
from repro.route.flat import FlatOccupancy, FlatRoutingState, find_path_flat
from repro.route.paths import RoutedPath
from repro.route.router import (
    DEFAULT_ROUTE_ENGINE,
    ROUTE_ENGINES,
    RoutingResult,
    route_tasks,
)
from repro.route.timeslots import TimeSlot, TimeSlotSet

__all__ = [
    "CellUsage",
    "DEFAULT_INITIAL_WEIGHT",
    "DEFAULT_ROUTE_ENGINE",
    "FlatOccupancy",
    "FlatRoutingState",
    "ROUTE_ENGINES",
    "RoutedPath",
    "RoutingGrid",
    "RoutingResult",
    "TimeSlot",
    "TimeSlotSet",
    "find_path_flat",
    "route_tasks",
    "route_tasks_baseline",
]
