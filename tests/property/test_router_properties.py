"""Property-based tests: the conflict-aware router on random workloads.

Random placements and random transport-task sets (random endpoints,
times, cache durations, fluids) are routed end-to-end; the invariants —
paths connect the right components, per-cell slot sets stay pairwise
disjoint, postponements only ever push tasks later — must hold for
every sample.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assay.fluids import Fluid
from repro.place.grid import ChipGrid
from repro.place.moves import random_placement
from repro.route.router import route_tasks
from repro.schedule.tasks import TransportTask

FOOTPRINTS = {
    "Mixer1": (3, 2),
    "Mixer2": (3, 2),
    "Heater1": (2, 1),
    "Detector1": (1, 1),
}
COMPONENTS = sorted(FOOTPRINTS)


@st.composite
def task_sets(draw):
    count = draw(st.integers(min_value=1, max_value=8))
    tasks = []
    for index in range(count):
        src = draw(st.sampled_from(COMPONENTS))
        dst = draw(st.sampled_from(COMPONENTS))
        depart = float(draw(st.integers(min_value=0, max_value=30)))
        cache = float(draw(st.integers(min_value=0, max_value=15)))
        wash = float(draw(st.integers(min_value=0, max_value=10))) / 2.0
        tasks.append(
            TransportTask(
                task_id=f"tk{index}",
                producer=f"p{index}",
                consumer=f"c{index}",
                fluid=Fluid.with_wash_time(f"f{index % 3}", wash),
                src_component=src,
                dst_component=dst,
                depart=depart,
                arrive=depart + 2.0,
                consume=depart + 2.0 + cache,
            )
        )
    return tasks


@settings(max_examples=40, deadline=None)
@given(task_sets(), st.integers(min_value=0, max_value=1000))
def test_router_invariants_on_random_workloads(tasks, seed):
    placement = random_placement(
        ChipGrid(12, 12), FOOTPRINTS, random.Random(seed)
    )
    if placement is None:
        return
    result = route_tasks(placement, tasks)

    # Every task realised exactly once.
    assert sorted(p.task.task_id for p in result.paths) == sorted(
        t.task_id for t in tasks
    )

    for path in result.paths:
        task = path.task
        # Endpoints attach to the right components (self-loops use one
        # port-adjacent cell).
        if task.src_component == task.dst_component:
            assert len(path.cells) >= 1
        else:
            assert path.cells[0] in placement.ports(task.src_component)
            assert path.cells[-1] in placement.ports(task.dst_component)
        # Postponement only pushes later, never earlier.
        assert path.postponement >= 0.0
        assert path.slot.start >= task.depart - 1e-9

    # Per-cell occupation slots pairwise disjoint.
    for usages in result.usage_history().values():
        slots = [u.slot for u in usages]
        for i, first in enumerate(slots):
            for second in slots[i + 1:]:
                assert not first.overlaps(second)


@settings(max_examples=25, deadline=None)
@given(task_sets())
def test_disjoint_time_windows_never_postpone(tasks):
    """Tasks far apart in time can always share the chip freely."""
    placement = random_placement(
        ChipGrid(12, 12), FOOTPRINTS, random.Random(7)
    )
    assert placement is not None
    spread = []
    offset = 0.0
    for task in tasks:
        duration = task.consume - task.depart
        spread.append(
            TransportTask(
                task_id=task.task_id,
                producer=task.producer,
                consumer=task.consumer,
                fluid=task.fluid,
                src_component=task.src_component,
                dst_component=task.dst_component,
                depart=offset,
                arrive=offset + 2.0,
                consume=offset + duration,
            )
        )
        offset += duration + 100.0
    result = route_tasks(placement, spread)
    assert result.total_postponement == 0.0
