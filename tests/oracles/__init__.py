"""Independent reference implementations and fixtures the suites check against.

Nothing under ``src/`` imports these modules: they exist only so the
production engines can be compared with a straightforward formulation
of the same algorithm, and so the checker can be shown to catch
deliberately broken solutions.

* :mod:`tests.oracles.routing_grid` — the dict-of-slot-sets routing
  plane (:class:`RoutingGrid` of per-cell :class:`TimeSlotSet`);
* :mod:`tests.oracles.astar` — the Cell/dict A* over that
  :class:`RoutingGrid`, plus both routing loops driven through it;
* :mod:`tests.oracles.annealing` — the immutable full-recompute SA move
  loop, over the immutable moves of :mod:`tests.oracles.moves`;
* :mod:`tests.oracles.faults` — the deterministic fault injection that
  proves every checker rule fires, and only that rule;
* :mod:`tests.oracles.exact` — the exhaustive optimal scheduler for
  tiny instances, which measures Algorithm 1's optimality gap.
"""
