"""Legacy ASCII unstructured-grid export (VTK DataFile version 3.0 dialect).

Writes points, cells and one cell scalar so hazard maps can be opened in any
standard mesh viewer.  Only the handful of planar/solid cell types produced
by the record extractors are mapped.
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_unstructured_grid"]

# node-count -> VTK cell type id (linear + quadratic variants)
_CELL_TYPES = {
    2: 3,    # line
    3: 5,    # triangle
    4: 9,    # quad
    6: 22,   # quadratic triangle
    8: 23,   # quadratic quad
}


def write_unstructured_grid(path, nodes, elements, scalar_name, values):
    """Write a legacy unstructured-grid file with one cell scalar.

    *nodes* is a NodeTable, *elements* an ElementTable; *values* holds one
    scalar per element, in element-table order.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(elements.rows),):
        raise ValueError(
            f"need one scalar per element: {values.shape} vs {len(elements.rows)} cells"
        )
    index = {nid: i for i, (nid, _) in enumerate(nodes.rows)}
    lines = [
        "# vtk DataFile Version 3.0",
        "hazard map",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(nodes.rows)} double",
    ]
    for _, coords in nodes.rows:
        xyz = tuple(coords) + (0.0,) * (3 - len(coords))
        lines.append(" ".join(f"{c:.10g}" for c in xyz))

    cell_sizes = [len(conn) for _, _, conn in elements.rows]
    total = sum(n + 1 for n in cell_sizes)
    lines.append(f"CELLS {len(elements.rows)} {total}")
    for _, _, conn in elements.rows:
        try:
            ids = [index[n] for n in conn]
        except KeyError as exc:
            raise ValueError(f"element references unknown node {exc}") from None
        lines.append(" ".join(str(v) for v in [len(ids)] + ids))

    lines.append(f"CELL_TYPES {len(elements.rows)}")
    for n in cell_sizes:
        if n not in _CELL_TYPES:
            raise ValueError(f"no cell type mapping for {n}-node elements")
        lines.append(str(_CELL_TYPES[n]))

    lines.append(f"CELL_DATA {len(elements.rows)}")
    lines.append(f"SCALARS {scalar_name} double 1")
    lines.append("LOOKUP_TABLE default")
    for v in values:
        lines.append(f"{v:.10g}")

    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
