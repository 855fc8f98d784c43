"""Deterministic parallel execution across a process pool.

``repro.parallel`` is the execution substrate that turns the
single-core synthesis pipeline into one that saturates a machine
without ever changing an answer:

* :class:`~repro.parallel.pool.PoolSession` — fan waves of picklable
  task payloads out over one long-lived
  :class:`concurrent.futures.ProcessPoolExecutor` (or run them inline
  at ``jobs=1``) and return the results in **submission order**, so
  downstream reductions are independent of worker count and
  completion order.  :class:`~repro.errors.ReproError` subclasses
  raised inside a worker are re-raised in the parent with their
  original type and message, preserving the CLI's exit-code-3
  contract.  The synthesis service runs its jobs on one.
* :func:`~repro.parallel.multistart.anneal_multistart` — run
  ``restarts`` independent SA placement anneals from deterministically
  derived seeds and reduce to the best result under a total order
  (energy, then derived seed), so the winner is bit-identical for any
  ``jobs`` value.

Multi-start merges the workers' instrumentation aggregates back into
the caller's :class:`~repro.obs.Instrumentation` (see
:meth:`~repro.obs.Instrumentation.absorb`), so ``--profile`` reports
stay complete under parallel runs.
"""

from repro.parallel.multistart import (
    SEED_DERIVATIONS,
    RestartOutcome,
    anneal_multistart,
    derive_seed,
    multistart_seeds,
    select_best,
    splitmix64,
)
from repro.parallel.pool import PoolSession, resolve_jobs

__all__ = [
    "SEED_DERIVATIONS",
    "PoolSession",
    "RestartOutcome",
    "anneal_multistart",
    "derive_seed",
    "multistart_seeds",
    "resolve_jobs",
    "select_best",
    "splitmix64",
]
