"""Failure injection: hostile inputs must fail loudly and cleanly.

A production tool's error paths matter as much as its happy paths.
Every scenario here drives some stage into an impossible situation and
asserts that (a) a :class:`repro.errors.ReproError` subclass is raised,
(b) the message names the culprit, and (c) no silent corruption ever
produces a bogus "result".
"""

import pytest

from repro.assay.builder import AssayBuilder
from repro.benchmarks.registry import get_benchmark
from repro.components.allocation import Allocation
from repro.core.problem import SynthesisParameters, SynthesisProblem
from repro.core.synthesizer import synthesize, synthesize_problem
from repro.errors import (
    AllocationError,
    PlacementError,
    ReproError,
    RoutingError,
)
from repro.place.grid import ChipGrid


class TestSchedulingFailures:
    def test_missing_component_family(self):
        assay = (
            AssayBuilder("t")
            .mix("m", duration=2)
            .heat("h", duration=2, after=["m"])
            .build()
        )
        with pytest.raises(AllocationError, match="Heater"):
            synthesize(assay, Allocation(mixers=1))

    def test_every_stage_error_is_a_repro_error(self):
        assay = AssayBuilder("t").detect("d", duration=1).build()
        with pytest.raises(ReproError):
            synthesize(assay, Allocation(mixers=5))


class TestPlacementFailures:
    def test_grid_too_small_for_components(self):
        case = get_benchmark("CPA")  # 10 components
        problem = SynthesisProblem(
            assay=case.assay,
            allocation=case.allocation,
            parameters=SynthesisParameters(
                initial_temperature=50.0,
                min_temperature=1.0,
                cooling_rate=0.7,
                iterations_per_temperature=10,
            ),
            grid=ChipGrid(6, 6),
        )
        with pytest.raises(PlacementError, match="initial legal placement"):
            synthesize_problem(problem)

    def test_baseline_placer_grid_too_small(self):
        from repro.core.baseline import synthesize_problem_baseline

        case = get_benchmark("CPA")
        problem = SynthesisProblem(
            assay=case.assay,
            allocation=case.allocation,
            grid=ChipGrid(6, 6),
        )
        with pytest.raises(PlacementError, match="too small"):
            synthesize_problem_baseline(problem)


class TestRoutingFailures:
    def test_geometrically_blocked_baseline_route(self):
        """A placement whose components have ports but no connecting
        corridor must raise a RoutingError naming the task."""
        from repro.assay.fluids import Fluid
        from repro.place.placement import PlacedComponent, Placement
        from repro.route.router import route_tasks_baseline
        from repro.schedule.tasks import TransportTask

        # Hand-build an (illegal, but structurally valid) placement with
        # a full wall between the two mixers.
        placement = Placement(
            ChipGrid(9, 9),
            {
                "Mixer1": PlacedComponent("Mixer1", 0, 3, 2, 2),
                "Mixer2": PlacedComponent("Mixer2", 7, 3, 2, 2),
                "Wall": PlacedComponent("Wall", 4, 0, 1, 9),
            },
        )
        task = TransportTask(
            task_id="tk0",
            producer="a",
            consumer="b",
            fluid=Fluid("f"),
            src_component="Mixer1",
            dst_component="Mixer2",
            depart=0.0,
            arrive=2.0,
            consume=2.0,
        )
        with pytest.raises(RoutingError, match="tk0"):
            route_tasks_baseline(placement, [task])

    def test_routing_error_carries_task_id(self):
        error = RoutingError("boom", task_id="tk42")
        assert error.task_id == "tk42"


class TestCorruptedInputs:
    def test_malformed_assay_json(self, tmp_path):
        from repro.assay.io import load_assay
        from repro.errors import AssayError

        path = tmp_path / "broken.json"
        path.write_text('{"format": "repro-assay", "version": 1}')
        # Missing name/operations: empty assay loads as zero-op graph...
        # an empty operations list must be rejected downstream.
        assay = load_assay(path)
        assert len(assay) == 0
        with pytest.raises(AssayError):
            # ...and a cyclic document is rejected immediately.
            path.write_text(
                '{"format": "repro-assay", "version": 1, "name": "x",'
                '"operations": [{"id": "a", "type": "mix", "duration": 1,'
                ' "fluid": {"name": "f", "diffusion_coefficient": 1e-5}},'
                '{"id": "b", "type": "mix", "duration": 1,'
                ' "fluid": {"name": "g", "diffusion_coefficient": 1e-5}}],'
                '"edges": [["a", "b"], ["b", "a"]]}'
            )
            load_assay(path)

    def test_nan_duration_rejected(self):
        from repro.errors import AssayError

        with pytest.raises(AssayError):
            AssayBuilder("t").mix("a", duration=-float("inf"))

    def test_synthesize_refuses_empty_allocation_tuple(self):
        with pytest.raises(AllocationError):
            Allocation(0, 0, 0, 0)
