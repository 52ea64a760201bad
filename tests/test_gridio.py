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


def formatted_lines(coords, values):
    """Point and scalar lines formatted one number at a time, as ``format``
    writes each with ``.10g``."""
    points = [" ".join(f"{c:.10g}" for c in tuple(xyz) + (0.0,) * (3 - len(xyz))) for xyz in coords]
    return points, [f"{v:.10g}" for v in np.asarray(values, dtype=float)]


class TestGridBytes:
    def test_unit_quad_text(self):
        nodes, elements = unit_quad()
        assert unstructured_grid_text(nodes, elements, "s", [-2.5]) == (
            "# vtk DataFile Version 3.0\nhazard map\nASCII\nDATASET UNSTRUCTURED_GRID\n"
            "POINTS 4 double\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n"
            "CELLS 1 5\n4 0 1 2 3\nCELL_TYPES 1\n9\n"
            "CELL_DATA 1\nSCALARS s double 1\nLOOKUP_TABLE default\n-2.5\n"
        )

    def test_mixed_tri_quad_text(self):
        # cell indices follow the node table's order, not the node ids
        nodes = NodeTable(
            [(10, (0.0, 0.0)), (20, (1.0, 0.0)), (50, (2.0, 0.5)), (30, (1.0, 1.0)), (40, (0.0, 1.0))]
        )
        elements = ElementTable([(1, "CPE4", (10, 20, 30, 40)), (2, "CPE3", (20, 50, 30))])
        assert unstructured_grid_text(nodes, elements, "log10_Pf", [0.125, -3.0]) == (
            "# vtk DataFile Version 3.0\nhazard map\nASCII\nDATASET UNSTRUCTURED_GRID\n"
            "POINTS 5 double\n0 0 0\n1 0 0\n2 0.5 0\n1 1 0\n0 1 0\n"
            "CELLS 2 9\n4 0 1 3 4\n3 1 2 3\nCELL_TYPES 2\n9\n5\n"
            "CELL_DATA 2\nSCALARS log10_Pf double 1\nLOOKUP_TABLE default\n0.125\n-3\n"
        )

    @pytest.mark.parametrize("dim, label", [(2, "CPE4"), (3, "C3D4")])
    def test_numbers_as_format_writes_them(self, dim, label):
        rng = np.random.default_rng(401)
        coords = rng.normal(size=(60, dim)) * 10.0 ** rng.integers(-30, 30, size=(60, dim))
        coords[0] = [-0.0, 1e300, 5e-324][:dim]
        coords = coords.tolist() + [[7] * dim, [np.float32(0.1)] * dim]
        nodes = NodeTable([(i + 1, tuple(xyz)) for i, xyz in enumerate(coords)])
        conn = rng.integers(1, len(coords) + 1, size=(30, 4))
        elements = ElementTable([(i + 1, label, tuple(c)) for i, c in enumerate(conn.tolist())])
        values = rng.normal(size=30) * 10.0 ** rng.integers(-300, 300, size=30)
        values[:4] = [-np.inf, np.nan, -0.0, 123456789012.0]
        lines = unstructured_grid_text(nodes, elements, "s", values).split("\n")
        points, scalars = formatted_lines(coords, values)
        assert lines[5 : 5 + len(coords)] == points
        assert lines[-1 - len(values) : -1] == scalars

    def test_unknown_node_rejected(self):
        nodes, _ = unit_quad()
        elements = ElementTable([(1, "CPE4", (1, 2, 3, 4)), (2, "CPE3", (2, 99, 3))])
        with pytest.raises(ValueError, match=r"^element references unknown node 99$"):
            unstructured_grid_text(nodes, elements, "s", [1.0, 2.0])

    def test_more_than_three_coordinates_rejected(self):
        nodes = NodeTable([(1, (0.0, 0.0, 0.0, 0.0))])
        elements = ElementTable([(1, "C3D4", (1, 1, 1, 1))])
        with pytest.raises(ValueError, match="one to three"):
            unstructured_grid_text(nodes, elements, "s", [1.0])


class TestGridGolden:
    """Full text of a C3D8 + C3D4 + CPE4 mesh for nodes carrying 0 to 3
    coordinates; node ids are out of table order and each (label, node count)
    repeats, so the per-call format and cell-type lookups are both reused."""

    XYZ = [
        (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0),
        (0.0, 0.0, 0.5), (1.0, 0.0, 0.5), (1.0, 1.0, 0.5), (0.0, 1.0, 0.5),
        (-1.25, 1e-07, 3.0e12), (2.0 / 3.0, -0.0, 12345678901.0),
    ]
    IDS = [8, 1, 2, 3, 4, 5, 6, 7, 20, 10]
    ELEMENTS = [
        (1, "C3D8", (1, 2, 3, 4, 5, 6, 7, 8)),
        (2, "C3D4", (1, 2, 4, 5)),
        (3, "CPE4", (20, 10, 3, 2)),
        (4, "C3D4", (2, 3, 4, 7)),
        (5, "CPE4", (1, 2, 3, 4)),
        (6, "C3D8", (5, 6, 7, 8, 1, 2, 3, 20)),
    ]
    VALUES = [-2.5, 0.0, -0.0, 1e-300, -16.0, 0.1 + 0.2]
    HEAD = (
        "# vtk DataFile Version 3.0\nhazard map\nASCII\nDATASET UNSTRUCTURED_GRID\n"
        "POINTS 10 double\n"
    )
    POINTS = {
        0: "0 0 0\n0 0 0\n0 0 0\n0 0 0\n0 0 0\n0 0 0\n0 0 0\n0 0 0\n0 0 0\n0 0 0\n",
        1: "0 0 0\n1 0 0\n1 0 0\n0 0 0\n0 0 0\n1 0 0\n1 0 0\n0 0 0\n-1.25 0 0\n0.6666666667 0 0\n",
        2: (
            "0 0 0\n1 0 0\n1 1 0\n0 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n"
            "-1.25 1e-07 0\n0.6666666667 -0 0\n"
        ),
        3: (
            "0 0 0\n1 0 0\n1 1 0\n0 1 0\n0 0 0.5\n1 0 0.5\n1 1 0.5\n0 1 0.5\n"
            "-1.25 1e-07 3e+12\n0.6666666667 -0 1.23456789e+10\n"
        ),
    }
    TAIL = (
        "CELLS 6 38\n8 1 2 3 4 5 6 7 0\n4 1 2 4 5\n4 8 9 3 2\n4 2 3 4 7\n4 1 2 3 4\n"
        "8 5 6 7 0 1 2 3 8\n"
        "CELL_TYPES 6\n12\n10\n9\n10\n9\n12\n"
        "CELL_DATA 6\nSCALARS log10_Pf double 1\nLOOKUP_TABLE default\n"
        "-2.5\n0\n-0\n1e-300\n-16\n0.3\n"
    )

    @pytest.mark.parametrize("dim", [0, 1, 2, 3])
    def test_text(self, dim):
        nodes = NodeTable([(nid, xyz[:dim]) for nid, xyz in zip(self.IDS, self.XYZ)])
        text = unstructured_grid_text(nodes, ElementTable(self.ELEMENTS), "log10_Pf", self.VALUES)
        assert text == self.HEAD + self.POINTS[dim] + self.TAIL
