"""Fluid movements and transportation tasks.

Scheduling decides *when* fluids move; placement/routing later decides
*where*.  The interface between the two stages is the
:class:`TransportTask`: one physical channel transport per fluidic
dependency whose producer and consumer do not share a component (plus one
per evicted fluid that later returns to its own component).

A :class:`FluidMovement` is the scheduler-side record for every edge of
the sequencing graph, including the in-place case that needs no channel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.assay.fluids import Fluid
from repro.errors import SchedulingError
from repro.units import Seconds, approx_ge

__all__ = ["FluidMovement", "TransportTask"]


@dataclass(frozen=True)
class FluidMovement:
    """How the output of *producer* reached *consumer*.

    Timeline (all in seconds)::

        depart            arrive                 consume
          |---- t_c --------|--- channel cache ----|
        leaves src        reaches dst           enters dst

    For an in-place consumption (``in_place=True``) the three timestamps
    coincide with the consumer's start time and no channel is used.

    Attributes
    ----------
    producer, consumer:
        Operation ids of the sequencing-graph edge served by this
        movement.  ``consumer`` is ``"<outlet>"`` for a sink output
        leaving the chip.
    fluid:
        The transported fluid.
    src_component, dst_component:
        Component ids.  Equal for in-place movements; they may *also* be
        equal for a physical movement when an evicted fluid later returns
        to the component it came from.
    evicted:
        ``True`` when the fluid was pushed into channel storage because
        its component was rebound to another operation before the
        consumer was ready (the paper's distributed-channel-storage case).
    """

    producer: str
    consumer: str
    fluid: Fluid
    src_component: str
    dst_component: str
    depart: Seconds
    arrive: Seconds
    consume: Seconds
    in_place: bool = False
    evicted: bool = False

    def __post_init__(self) -> None:
        if not approx_ge(self.arrive, self.depart):
            raise SchedulingError(
                f"movement {self.producer}->{self.consumer}: arrives at "
                f"{self.arrive} before departing at {self.depart}"
            )
        if not approx_ge(self.consume, self.arrive):
            raise SchedulingError(
                f"movement {self.producer}->{self.consumer}: consumed at "
                f"{self.consume} before arriving at {self.arrive}"
            )
        if self.in_place and self.cache_time > 0:
            raise SchedulingError(
                f"movement {self.producer}->{self.consumer}: in-place "
                "movements cannot cache in channels"
            )

    @property
    def cache_time(self) -> Seconds:
        """Time the fluid spends cached in channel storage (Fig. 8 metric)."""
        return self.consume - self.arrive

    @property
    def transport_time(self) -> Seconds:
        """Time the fluid spends moving through channels."""
        return self.arrive - self.depart

    def to_transport_task(self, task_id: str) -> "TransportTask":
        """Materialise the routing-stage task for this movement.

        Raises for in-place movements, which have no physical channel.
        """
        if self.in_place:
            raise SchedulingError(
                f"movement {self.producer}->{self.consumer} is in-place; "
                "it has no transport task"
            )
        return TransportTask(
            task_id=task_id,
            producer=self.producer,
            consumer=self.consumer,
            fluid=self.fluid,
            src_component=self.src_component,
            dst_component=self.dst_component,
            depart=self.depart,
            arrive=self.arrive,
            consume=self.consume,
        )


@dataclass(frozen=True)
class TransportTask:
    """A physical channel transport to be realised by the router.

    The routed path's cells are occupied for ``[depart, arrive)`` up to
    the cache cell, ``[depart, consume)`` on the cache cell — movement
    plus distributed-channel cache — and ``[consume − t_c, consume)``
    past it, where ``t_c = arrive − depart``.  The wash of the residue
    left behind is not part of any occupation (see :attr:`occupation`).
    """

    task_id: str
    producer: str
    consumer: str
    fluid: Fluid
    src_component: str
    dst_component: str
    depart: Seconds
    arrive: Seconds
    consume: Seconds

    @property
    def cache_time(self) -> Seconds:
        """Channel cache duration carried by this task."""
        return self.consume - self.arrive

    @property
    def wash_time(self) -> Seconds:
        """Wash duration of the residue this task leaves in its channels."""
        return self.fluid.wash_time

    @property
    def occupation(self) -> tuple[Seconds, Seconds]:
        """Full time slot ``[depart, consume]``: transport followed by the
        distributed-channel cache.  Claimed on the *cache cell* — the
        path cell where the fluid plug actually waits.

        Following the paper's model, the wash of the residue is *not*
        part of the occupation interval: Eq. 5 blocks cells only for the
        transport/cache occupation, while washing is steered through the
        cell weights (Algorithm 2, line 16) and accounted separately
        (Fig. 9)."""
        return (self.depart, self.consume)

    @property
    def transit_occupation(self) -> tuple[Seconds, Seconds]:
        """Time slot ``[depart, arrive]`` claimed on the remaining path
        cells: the fluid clears them once it reaches the destination's
        vicinity."""
        return (self.depart, self.arrive)

    def overlaps(self, other: "TransportTask") -> bool:
        """Whether the two tasks' full occupation slots intersect in time."""
        a_start, a_end = self.occupation
        b_start, b_end = other.occupation
        return a_start < b_end and b_start < a_end
