"""Unit tests for the Schedule container and its metrics."""

import pytest

from repro.assay.builder import AssayBuilder
from repro.components.allocation import Allocation
from repro.errors import SchedulingError
from repro.schedule.list_scheduler import schedule_assay
from repro.schedule.schedule import ScheduledOperation, _sum_in_order


def two_mixer_schedule():
    assay = (
        AssayBuilder("t")
        .mix("a", duration=4, wash_time=1.0)
        .mix("b", duration=6, wash_time=1.0)
        .mix("c", duration=2, after=["a"], wash_time=1.0)
        .build()
    )
    return schedule_assay(assay, Allocation(mixers=2))


class TestScheduledOperation:
    def test_duration(self):
        record = ScheduledOperation("o", "Mixer1", 2.0, 7.0)
        assert record.duration == 5.0

    def test_end_before_start_rejected(self):
        with pytest.raises(SchedulingError):
            ScheduledOperation("o", "Mixer1", 7.0, 2.0)


class TestScheduleAccessors:
    def test_binding_maps_every_operation(self):
        schedule = two_mixer_schedule()
        binding = schedule.binding()
        assert set(binding) == {"a", "b", "c"}
        assert all(cid.startswith("Mixer") for cid in binding.values())

    def test_operations_on_sorted_by_start(self):
        schedule = two_mixer_schedule()
        for cid in ("Mixer1", "Mixer2"):
            records = schedule.operations_on(cid)
            starts = [r.start for r in records]
            assert starts == sorted(starts)

    def test_unknown_operation_raises(self):
        with pytest.raises(SchedulingError):
            two_mixer_schedule().operation("zzz")

    def test_makespan_is_last_end(self):
        schedule = two_mixer_schedule()
        assert schedule.makespan == max(r.end for r in schedule.operations.values())


class TestScheduleMetrics:
    def test_utilisation_in_unit_interval(self):
        schedule = two_mixer_schedule()
        assert 0.0 < schedule.resource_utilisation() <= 1.0

    def test_utilisation_counts_idle_components_as_zero(self):
        assay = AssayBuilder("t").mix("a", duration=4).build()
        schedule = schedule_assay(assay, Allocation(mixers=4))
        # One busy mixer at 100 %, three idle: average 25 %.
        assert schedule.resource_utilisation() == pytest.approx(0.25)

    def test_fully_busy_single_component(self):
        assay = AssayBuilder("t").mix("a", duration=4).build()
        schedule = schedule_assay(assay, Allocation(mixers=1))
        assert schedule.resource_utilisation() == pytest.approx(1.0)

    def test_transport_tasks_sorted_and_exclude_in_place(self):
        schedule = two_mixer_schedule()
        tasks = schedule.transport_tasks()
        departs = [t.depart for t in tasks]
        assert departs == sorted(departs)
        in_place_edges = {
            (m.producer, m.consumer)
            for m in schedule.movements
            if m.in_place
        }
        task_edges = {(t.producer, t.consumer) for t in tasks}
        assert not (in_place_edges & task_edges)

    def test_transport_count_matches_tasks(self):
        schedule = two_mixer_schedule()
        assert schedule.transport_count() == len(schedule.transport_tasks())

    def test_totals_add_left_to_right_on_every_version(self):
        # Builtin sum() gives 1.0 here from CPython 3.12 on; the solution
        # digest needs 3.10/3.11's plain left-to-right additions.
        assert _sum_in_order([0.1] * 10) == 0.9999999999999999
        total = _sum_in_order([2, 3])
        assert total == 5 and isinstance(total, int)

    def test_concurrency_of(self):
        schedule = two_mixer_schedule()
        tasks = schedule.transport_tasks()
        for task in tasks:
            concurrent = schedule.concurrency_of(task, tasks)
            assert 0 <= concurrent < len(tasks)


class TestConcurrenciesSweep:
    """The O(T log T) sweep must equal the quadratic oracle exactly."""

    def test_matches_concurrency_of(self):
        schedule = two_mixer_schedule()
        tasks = schedule.transport_tasks()
        sweep = schedule.concurrencies(tasks)
        assert set(sweep) == {t.task_id for t in tasks}
        for task in tasks:
            assert sweep[task.task_id] == schedule.concurrency_of(task, tasks)

    def test_default_task_list(self):
        schedule = two_mixer_schedule()
        assert schedule.concurrencies() == schedule.concurrencies(
            schedule.transport_tasks()
        )

    @pytest.mark.parametrize(
        "name", ["PCR", "IVD", "CPA", "Synthetic1", "Synthetic2"]
    )
    def test_matches_oracle_on_benchmarks(self, name):
        from repro.benchmarks.registry import get_benchmark

        case = get_benchmark(name)
        schedule = schedule_assay(case.assay, case.allocation)
        tasks = schedule.transport_tasks()
        sweep = schedule.concurrencies(tasks)
        for task in tasks:
            assert sweep[task.task_id] == schedule.concurrency_of(task, tasks)

    def test_zero_length_occupations(self):
        """Degenerate ``[t, t]`` slots: no self-overlap, strict overlap
        with enclosing intervals — the sweep's corner cases."""
        from repro.assay.fluids import Fluid
        from repro.schedule.tasks import TransportTask

        def task(tid, depart, arrive, consume):
            return TransportTask(
                task_id=tid,
                producer=f"p{tid}",
                consumer=f"c{tid}",
                fluid=Fluid(name="f"),
                src_component="Mixer1",
                dst_component="Mixer2",
                depart=depart,
                arrive=arrive,
                consume=consume,
            )

        tasks = [
            task("a", 5.0, 5.0, 5.0),   # zero-length at t=5
            task("b", 5.0, 5.0, 5.0),   # another at the same instant
            task("c", 4.0, 5.0, 6.0),   # encloses t=5
            task("d", 5.0, 6.0, 7.0),   # starts exactly at t=5
            task("e", 2.0, 3.0, 5.0),   # ends exactly at t=5
        ]
        schedule = two_mixer_schedule()
        sweep = schedule.concurrencies(tasks)
        for t in tasks:
            assert sweep[t.task_id] == schedule.concurrency_of(t, tasks)
        # Spot-check the semantics: zero-length tasks overlap only the
        # enclosing interval, never each other or the touching ones.
        assert sweep["a"] == 1
        assert sweep["b"] == 1
        assert sweep["c"] == 4  # a, b, d ((4,6)∩(5,7)≠∅), e ((4,6)∩(2,5)≠∅)
