"""Kitchen-sink integration test: every subsystem on one benchmark."""

import xml.etree.ElementTree as ET

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.core.baseline import synthesize_baseline
from repro.core.synthesizer import synthesize
from repro.schedule.validate import validate_schedule
from repro.viz import layout_to_svg, render_routing, render_schedule


@pytest.fixture(scope="module")
def both(request):
    from repro.core.problem import SynthesisParameters

    params = SynthesisParameters(
        initial_temperature=50.0,
        min_temperature=1.0,
        cooling_rate=0.7,
        iterations_per_temperature=25,
        seed=2,
    )
    case = get_benchmark("Fig2a")
    return (
        synthesize(case.assay, case.allocation, params),
        synthesize_baseline(case.assay, case.allocation, params),
    )


class TestFullPipeline:
    def test_schedules_valid(self, both):
        for result in both:
            validate_schedule(result.schedule)

    def test_placements_legal(self, both):
        for result in both:
            assert result.placement.is_legal()

    def test_routings_complete(self, both):
        for result in both:
            assert len(result.routing.paths) == result.schedule.transport_count()

    def test_routing_slot_sets_disjoint(self, both):
        for result in both:
            for usages in result.routing.usage_history().values():
                slots = [usage.slot for usage in usages]
                for i, first in enumerate(slots):
                    for second in slots[i + 1:]:
                        assert not first.overlaps(second)

    def test_paper_relations_hold(self, both):
        ours, baseline = both
        assert (
            ours.metrics.execution_time
            <= baseline.metrics.execution_time + 1e-9
        )

    def test_visualisations_render(self, both):
        for result in both:
            assert "#" in render_schedule(result.schedule)
            text = render_routing(result.routing)
            assert "channels" in text
            root = ET.fromstring(layout_to_svg(result.routing))
            assert root.tag.endswith("svg")
