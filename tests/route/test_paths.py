"""Unit tests for the routed-path model."""

import pytest

from repro.assay.fluids import Fluid
from repro.errors import RoutingError
from repro.place.grid import Cell
from repro.route.paths import RoutedPath
from repro.route.timeslots import TimeSlot
from repro.schedule.tasks import TransportTask


def task() -> TransportTask:
    return TransportTask(
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


class TestRoutedPath:
    def test_valid_path(self):
        path = RoutedPath(
            task=task(),
            cells=(Cell(0, 0), Cell(1, 0), Cell(1, 1)),
            slot=TimeSlot(0.0, 2.0),
            occupations=(TimeSlot(0.0, 2.0),) * 3,
        )
        assert path.length_cells == 3
        assert path.length_mm(10.0) == 30.0

    def test_singleton_path(self):
        path = RoutedPath(
            task=task(),
            cells=(Cell(2, 2),),
            slot=TimeSlot(0, 2),
            occupations=(TimeSlot(0, 2),),
        )
        assert path.length_cells == 1

    def test_empty_path_rejected(self):
        with pytest.raises(RoutingError, match="no cells"):
            RoutedPath(task=task(), cells=(), slot=TimeSlot(0, 2), occupations=())

    def test_disconnected_path_rejected(self):
        with pytest.raises(RoutingError, match="not orthogonal"):
            RoutedPath(
                task=task(),
                cells=(Cell(0, 0), Cell(2, 0)),
                slot=TimeSlot(0, 2),
                occupations=(TimeSlot(0, 2),) * 2,
            )

    def test_diagonal_step_rejected(self):
        with pytest.raises(RoutingError, match="not orthogonal"):
            RoutedPath(
                task=task(),
                cells=(Cell(0, 0), Cell(1, 1)),
                slot=TimeSlot(0, 2),
                occupations=(TimeSlot(0, 2),) * 2,
            )

    def test_revisiting_cell_rejected(self):
        with pytest.raises(RoutingError, match="revisits"):
            RoutedPath(
                task=task(),
                cells=(Cell(0, 0), Cell(1, 0), Cell(0, 0)),
                slot=TimeSlot(0, 2),
                occupations=(TimeSlot(0, 2),) * 3,
            )

    def test_occupation_count_mismatch_rejected(self):
        with pytest.raises(RoutingError, match="2 occupations for 3 cells"):
            RoutedPath(
                task=task(),
                cells=(Cell(0, 0), Cell(1, 0), Cell(1, 1)),
                slot=TimeSlot(0, 2),
                occupations=(TimeSlot(0, 2),) * 2,
            )
