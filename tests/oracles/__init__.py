"""Independent reference implementations the parity suites check against.

Nothing under ``src/`` imports these modules: they exist only so the
production engines can be compared with a straightforward formulation
of the same algorithm.

* :mod:`tests.oracles.routing_grid` — the dict-of-slot-sets routing
  plane (:class:`RoutingGrid` of per-cell :class:`TimeSlotSet`);
* :mod:`tests.oracles.astar` — the Cell/dict A* over that
  :class:`RoutingGrid`, plus both routing loops driven through it;
* :mod:`tests.oracles.annealing` — the immutable full-recompute SA move
  loop.
"""
