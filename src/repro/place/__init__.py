"""Placement stage (Algorithm 2, lines 1–8) and the baseline placer."""

from repro.place.annealing import (
    PLACEMENT_ENGINES,
    AnnealingParameters,
    AnnealingResult,
    anneal_placement,
)
from repro.place.incremental import PlacementWorkspace
from repro.place.energy import (
    ConnectionPriorities,
    build_connection_priorities,
    placement_energy,
    wirelength_energy,
)
from repro.place.greedy import (
    construct_placement,
    correct_placement,
    greedy_placement,
)
from repro.place.grid import Cell, ChipGrid, auto_grid
from repro.place.moves import random_placement
from repro.place.placement import PlacedComponent, Placement

__all__ = [
    "AnnealingParameters",
    "AnnealingResult",
    "Cell",
    "ChipGrid",
    "ConnectionPriorities",
    "PLACEMENT_ENGINES",
    "PlacedComponent",
    "Placement",
    "PlacementWorkspace",
    "anneal_placement",
    "auto_grid",
    "build_connection_priorities",
    "construct_placement",
    "correct_placement",
    "greedy_placement",
    "placement_energy",
    "random_placement",
    "wirelength_energy",
]
