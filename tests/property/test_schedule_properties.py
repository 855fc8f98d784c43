"""Property-based tests: both schedulers on random valid assays.

The ``SCH-*`` design rules of :mod:`repro.check.schedule`, raised
through :func:`repro.schedule.validate.validate_schedule`, are the
oracle: every schedule either scheduler produces for *any* valid assay
must pass all of them — coverage, binding, durations, precedence,
component exclusivity, movement service, the transport-or-store
timeline and the Eq. 2 wash gaps.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assay.fluids import Fluid
from repro.assay.graph import Operation, OperationType, SequencingGraph
from repro.assay.validation import MAX_FAN_IN
from repro.components.allocation import Allocation
from repro.schedule.baseline_scheduler import schedule_assay_baseline
from repro.schedule.list_scheduler import schedule_assay
from repro.schedule.validate import validate_schedule


@st.composite
def assay_and_allocation(draw):
    """Random DAG assays (2..14 ops) plus a sufficient allocation."""
    count = draw(st.integers(min_value=2, max_value=14))
    types = [
        draw(st.sampled_from(list(OperationType))) for _ in range(count)
    ]
    ops = []
    for index in range(count):
        ops.append(
            Operation(
                op_id=f"o{index:02d}",
                op_type=types[index],
                duration=float(draw(st.integers(min_value=1, max_value=8))),
                output_fluid=Fluid.with_wash_time(
                    f"f{index}",
                    float(draw(st.integers(min_value=0, max_value=12))) / 2.0,
                ),
            )
        )
    edges = []
    for child in range(1, count):
        limit = MAX_FAN_IN[types[child]]
        parent_count = draw(
            st.integers(min_value=0, max_value=min(limit, child))
        )
        parents = draw(
            st.lists(
                st.integers(min_value=0, max_value=child - 1),
                min_size=parent_count,
                max_size=parent_count,
                unique=True,
            )
        )
        edges.extend((f"o{p:02d}", f"o{child:02d}") for p in parents)
    graph = SequencingGraph("random", ops, edges)

    counts = graph.count_by_type()
    allocation = Allocation(
        mixers=min(3, counts[OperationType.MIX]) or counts[OperationType.MIX],
        heaters=min(2, counts[OperationType.HEAT]),
        filters=min(2, counts[OperationType.FILTER]),
        detectors=min(2, counts[OperationType.DETECT]),
    )
    return graph, allocation


@settings(max_examples=50, deadline=None)
@given(assay_and_allocation(), st.sampled_from([0.0, 1.0, 2.0]))
def test_ours_always_produces_valid_schedules(case, t_c):
    graph, allocation = case
    schedule = schedule_assay(graph, allocation, transport_time=t_c)
    validate_schedule(schedule)
    assert schedule.makespan >= graph.critical_path_length(0.0) - 1e-9


@settings(max_examples=50, deadline=None)
@given(assay_and_allocation(), st.sampled_from([0.0, 2.0]))
def test_baseline_always_produces_valid_schedules(case, t_c):
    graph, allocation = case
    schedule = schedule_assay_baseline(graph, allocation, transport_time=t_c)
    validate_schedule(schedule)


@settings(max_examples=50, deadline=None)
@given(assay_and_allocation())
def test_utilisation_bounded(case):
    graph, allocation = case
    schedule = schedule_assay(graph, allocation)
    assert 0.0 <= schedule.resource_utilisation() <= 1.0 + 1e-9


@settings(max_examples=50, deadline=None)
@given(assay_and_allocation())
def test_cache_time_nonnegative_and_only_from_evictions(case):
    graph, allocation = case
    schedule = schedule_assay(graph, allocation)
    for movement in schedule.movements:
        assert movement.cache_time >= -1e-9
        if movement.cache_time > 1e-9:
            assert movement.evicted
