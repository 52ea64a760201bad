import numpy as np
import pytest

from fempost.gridio import unstructured_grid_text, write_unstructured_grid
from fempost.records import ElementTable, NodeTable


def unit_quad():
    nodes = NodeTable(
        [(1, (0.0, 0.0)), (2, (1.0, 0.0)), (3, (1.0, 1.0)), (4, (0.0, 1.0))]
    )
    elements = ElementTable([(1, "CPE4", (1, 2, 3, 4))])
    return nodes, elements


def parse_legacy_grid(text):
    """Minimal grammar check of a legacy unstructured-grid file; returns the
    parsed sections for further assertions."""
    lines = text.rstrip("\n").split("\n")
    assert lines[0].startswith("# vtk DataFile Version")
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4].startswith("POINTS ")
    n_points = int(lines[4].split()[1])
    i = 5
    points = [tuple(map(float, lines[i + k].split())) for k in range(n_points)]
    assert all(len(p) == 3 for p in points)
    i += n_points
    tag, n_cells, total = lines[i].split()
    assert tag == "CELLS"
    n_cells, total = int(n_cells), int(total)
    i += 1
    cells = []
    for k in range(n_cells):
        entry = list(map(int, lines[i + k].split()))
        assert entry[0] == len(entry) - 1
        assert all(0 <= v < n_points for v in entry[1:])
        cells.append(entry[1:])
    assert sum(len(c) + 1 for c in cells) == total
    i += n_cells
    assert lines[i] == f"CELL_TYPES {n_cells}"
    types = [int(lines[i + 1 + k]) for k in range(n_cells)]
    i += 1 + n_cells
    assert lines[i] == f"CELL_DATA {n_cells}"
    name = lines[i + 1].split()
    assert name[0] == "SCALARS" and name[2] == "double"
    assert lines[i + 2] == "LOOKUP_TABLE default"
    values = [float(lines[i + 3 + k]) for k in range(n_cells)]
    return points, cells, types, name[1], values


class TestWriteUnstructuredGrid:
    def test_structurally_valid(self, tmp_path):
        nodes, elements = unit_quad()
        path = tmp_path / "hazard.vtk"
        write_unstructured_grid(path, nodes, elements, "log10_Pf", [-2.5])
        points, cells, types, name, values = parse_legacy_grid(path.read_text())
        assert len(points) == 4
        assert cells == [[0, 1, 2, 3]]
        assert types == [9]
        assert name == "log10_Pf"
        assert values == [-2.5]

    def test_3d_padding(self, tmp_path):
        nodes, elements = unit_quad()
        path = tmp_path / "grid.vtk"
        write_unstructured_grid(path, nodes, elements, "s", [0.0])
        points, _, _, _, _ = parse_legacy_grid(path.read_text())
        assert all(p[2] == 0.0 for p in points)

    def test_writer_writes_the_text(self, tmp_path):
        nodes, elements = unit_quad()
        path = tmp_path / "grid.vtk"
        write_unstructured_grid(path, nodes, elements, "s", [0.5])
        assert path.read_text() == unstructured_grid_text(nodes, elements, "s", [0.5])

    def test_rejected_grid_opens_no_file(self, tmp_path):
        nodes, _ = unit_quad()
        bad = ElementTable([(1, "CPE4", (1, 2, 3, 99))])
        path = tmp_path / "x.vtk"
        with pytest.raises(ValueError):
            write_unstructured_grid(path, nodes, bad, "s", [1.0])
        assert not path.exists()

    def test_value_count_mismatch(self, tmp_path):
        nodes, elements = unit_quad()
        with pytest.raises(ValueError):
            write_unstructured_grid(tmp_path / "x.vtk", nodes, elements, "s", [1.0, 2.0])

    def test_unknown_node_reference(self, tmp_path):
        nodes, _ = unit_quad()
        bad = ElementTable([(1, "CPE4", (1, 2, 3, 99))])
        with pytest.raises(ValueError):
            write_unstructured_grid(tmp_path / "x.vtk", nodes, bad, "s", [1.0])

    def test_quadratic_cell_type(self, tmp_path):
        nodes = NodeTable([(i, (float(i), 0.0)) for i in range(1, 9)])
        elements = ElementTable([(1, "CPE8R", tuple(range(1, 9)))])
        path = tmp_path / "q.vtk"
        write_unstructured_grid(path, nodes, elements, "s", np.array([1.0]))
        _, _, types, _, _ = parse_legacy_grid(path.read_text())
        assert types == [23]

    @pytest.mark.parametrize(
        "label, n_nodes, vtk_type",
        [("C3D8", 8, 12), ("C3D8R", 8, 12), ("C3D4", 4, 10), ("CPE8", 8, 23), ("CPS4", 4, 9)],
    )
    def test_cell_type_from_label(self, tmp_path, label, n_nodes, vtk_type):
        nodes = NodeTable([(i, (float(i), 0.0, 0.0)) for i in range(1, 9)])
        elements = ElementTable([(1, label, tuple(range(1, n_nodes + 1)))])
        path = tmp_path / "cell.vtk"
        write_unstructured_grid(path, nodes, elements, "s", [1.0])
        _, _, types, _, _ = parse_legacy_grid(path.read_text())
        assert types == [vtk_type]

    def test_unmapped_solid_names_label(self, tmp_path):
        nodes = NodeTable([(i, (float(i), 0.0, 0.0)) for i in range(1, 21)])
        elements = ElementTable([(1, "C3D20R", tuple(range(1, 21)))])
        path = tmp_path / "cell.vtk"
        with pytest.raises(ValueError, match="C3D20R"):
            write_unstructured_grid(path, nodes, elements, "s", [1.0])
        assert not path.exists()
