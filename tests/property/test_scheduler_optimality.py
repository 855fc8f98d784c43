"""Property: the list scheduler never beats the exhaustive optimum and
stays within a bounded factor of it on tiny random instances."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assay.fluids import Fluid
from repro.assay.graph import Operation, OperationType, SequencingGraph
from repro.components.allocation import Allocation
from tests.oracles.exact import schedule_assay_optimal
from repro.schedule.list_scheduler import schedule_assay
from repro.schedule.validate import validate_schedule


@st.composite
def tiny_mix_assays(draw):
    """3..5 mix operations in a random DAG (kept tiny: exact search)."""
    count = draw(st.integers(min_value=3, max_value=5))
    ops = [
        Operation(
            op_id=f"o{i}",
            op_type=OperationType.MIX,
            duration=float(draw(st.integers(min_value=1, max_value=6))),
            output_fluid=Fluid.with_wash_time(
                f"f{i}", float(draw(st.integers(min_value=0, max_value=8))) / 2.0
            ),
        )
        for i in range(count)
    ]
    edges = []
    for child in range(1, count):
        parent_count = draw(st.integers(min_value=0, max_value=min(2, child)))
        parents = draw(
            st.lists(
                st.integers(min_value=0, max_value=child - 1),
                min_size=parent_count,
                max_size=parent_count,
                unique=True,
            )
        )
        edges.extend((f"o{p}", f"o{child}") for p in parents)
    return SequencingGraph("tiny", ops, edges)


@settings(max_examples=25, deadline=None)
@given(tiny_mix_assays(), st.integers(min_value=1, max_value=2))
def test_heuristic_bounded_by_optimum(assay, mixers):
    allocation = Allocation(mixers=mixers)
    optimal = schedule_assay_optimal(assay, allocation)
    heuristic = schedule_assay(assay, allocation)
    validate_schedule(optimal.schedule)
    validate_schedule(heuristic)
    assert heuristic.makespan >= optimal.makespan - 1e-9
    # Empirical quality bound: the DCSA list scheduler stays within 2x
    # of optimal on these tiny instances (it is usually optimal).
    assert heuristic.makespan <= 2.0 * optimal.makespan + 1e-9
