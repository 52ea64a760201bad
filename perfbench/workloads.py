"""The four workloads: seeded set-up, one timed pass, and its verification.

Each workload class has the same four methods:

* ``setup(seed)`` builds the inputs (files go into the run's work directory)
  and returns ``(state, digest)``; equal digests mean equal inputs.
* ``case(state, index)`` returns the input of pass *index*, outside the
  timed region.
* ``run(case, tr)`` is the timed pass.  Every call into a library layer sits
  in a span named after the layer and the call.
* ``verify(case, out)`` checks the pass output and returns
  ``(failed_operations, counts)``.  ``counts`` holds the per-pass counts the
  per-layer metrics and the determinism check use.

``jobs`` has no workload: its wall time is its configured ``initial_wait``
plus poll sleeps plus one subprocess spawn, so timing it would measure the
scheduler and the sleep settings, not the program.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

import inputs
from fempost import czm, filcodec, gridio, records, truss, weibull
from tracing import Tracer

# Points per axis of the truss feasibility grid.
GRID_N = 200

# Weibull parameters of the fil_ingest hazard map (MPa, unit-square mesh).
HAZARD_PARAMS = weibull.WeibullParams(
    sigma_th=100.0, m=4.0, sigma_u=300.0, V0=1.0 / (inputs.MESH_NX * inputs.MESH_NY)
)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()[:16]


def _shoelace_areas(nodes, elements) -> np.ndarray:
    """Element areas from node coordinates and connectivity (benchmark code:
    the library has no mesh-to-field join yet)."""
    ids = np.array([nid for nid, _ in nodes.rows])
    xy = np.array([coords for _, coords in nodes.rows])
    row_of = np.empty(ids.max() + 1, dtype=np.int64)
    row_of[ids] = np.arange(len(ids))
    corners = xy[row_of[np.array([conn for _, _, conn in elements.rows])]]
    x, y = corners[..., 0], corners[..., 1]
    return 0.5 * np.abs(np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1))


def _grid_header_counts(path):
    """(points, cells, cell list size) declared in a legacy grid file."""
    points = cells = size = None
    with open(path) as fh:
        for line in fh:
            if line.startswith("POINTS "):
                points = int(line.split()[1])
            elif line.startswith("CELLS "):
                cells, size = map(int, line.split()[1:3])
                break
    return points, cells, size


def _items(stream) -> int:
    return sum(rec.length for rec in stream)


@dataclass
class IngestState:
    mesh: inputs.Mesh
    expected: list
    sigma1_ref: np.ndarray
    fil_bytes: int


@dataclass
class IngestOut:
    flat_chars: int
    stream: list
    nodes: records.NodeTable
    elements: records.ElementTable
    stresses: records.StressTable
    sigma1: np.ndarray
    pf: np.ndarray


class FilIngest:
    """Read path: .fil -> records -> tables -> sigma1 -> hazard map -> grid."""

    ops_per_pass = 1
    file_bytes_key = "filcodec.bytes_read"

    def __init__(self, workdir):
        self.fil = workdir / "mesh.fil"
        self.grid = workdir / "hazard.vtk"

    def setup(self, seed):
        mesh = inputs.make_mesh(seed)
        expected = mesh.expected_records()
        filcodec.write_fil(expected, self.fil)
        s = mesh.stresses
        tensors = np.stack(
            [
                np.stack([s[:, 0], s[:, 3], s[:, 4]], axis=1),
                np.stack([s[:, 3], s[:, 1], s[:, 5]], axis=1),
                np.stack([s[:, 4], s[:, 5], s[:, 2]], axis=1),
            ],
            axis=1,
        )
        sigma1_ref = np.linalg.eigvalsh(tensors)[:, -1]
        state = IngestState(mesh, expected, sigma1_ref, self.fil.stat().st_size)
        return state, _digest(self.fil.read_bytes())

    def case(self, state, index):
        return state

    def run(self, case, tr):
        with tr.span("filcodec.flatten"):
            flat = filcodec.fil_to_string(self.fil)
        with tr.span("filcodec.decode"):
            stream = filcodec.decode_stream(flat)
        with tr.span("records.extract_nodes"):
            nodes = records.extract_nodes(stream)
        with tr.span("records.extract_elements"):
            elements = records.extract_elements(stream)
        with tr.span("records.extract_stresses"):
            stresses = records.extract_stresses(stream)
        with tr.span("weibull.sigma1"):
            sigma1 = np.array([weibull.max_principal_stress(c) for _, _, c in stresses.rows])
        field = weibull.ElementField(1.0, sigma1, _shoelace_areas(nodes, elements))
        with tr.span("weibull.hazard"):
            pf, log_pf = weibull.hazard_map(field, HAZARD_PARAMS)
        with tr.span("gridio.write"):
            gridio.write_unstructured_grid(self.grid, nodes, elements, "log10_Pf", log_pf)
        return IngestOut(len(flat), stream, nodes, elements, stresses, sigma1, pf)

    def verify(self, case, out):
        mesh = case.mesh
        n_nodes, n_elems = len(mesh.node_ids), len(mesh.element_ids)
        ok = (
            out.stream == case.expected
            and len(out.nodes) == n_nodes
            and len(out.elements) == n_elems
            and len(out.stresses) == n_elems
        )
        ok = ok and (
            np.array_equal([nid for nid, _ in out.nodes.rows], mesh.node_ids)
            and np.array_equal([c for _, c in out.nodes.rows], mesh.coords)
            and np.array_equal([eid for eid, _, _ in out.elements.rows], mesh.element_ids)
            and np.array_equal([c for _, _, c in out.elements.rows], mesh.connectivity)
            and np.array_equal([eid for eid, _, _ in out.stresses.rows], mesh.element_ids)
            and np.array_equal([c for _, _, c in out.stresses.rows], mesh.stresses)
        )
        ok = ok and bool(np.all(np.abs(out.sigma1 - case.sigma1_ref) <= 1e-9 * np.abs(case.sigma1_ref)))
        ok = ok and bool(np.all(np.isfinite(out.pf) & (out.pf >= 0) & (out.pf <= 1)))
        ok = ok and _grid_header_counts(self.grid) == (n_nodes, n_elems, 5 * n_elems)
        counts = {
            "filcodec.records_decoded": len(out.stream),
            "filcodec.items_decoded": _items(out.stream),
            "filcodec.chars_decoded": out.flat_chars,
            "filcodec.bytes_read": case.fil_bytes,
            "records.records_scanned": 3 * len(out.stream),
            "records.rows_out": len(out.nodes) + len(out.elements) + len(out.stresses),
            "weibull.sigma1_calls": len(out.stresses),
            "gridio.bytes_written": self.grid.stat().st_size,
        }
        return (0 if ok else 1), counts


@dataclass
class WriteState:
    mesh: inputs.Mesh
    expected: list
    nodes: records.NodeTable
    elements: records.ElementTable
    displacements: list
    stresses: records.StressTable


class FilWrite:
    """Write path: tables -> records -> .fil, plus the two CSV exports.

    The first verified pass decodes the written file and compares it record
    for record with the records expected from the generated tables, and
    parses both CSVs back; every later pass must write byte-identical files.
    """

    ops_per_pass = 1
    file_bytes_key = "filcodec.bytes_written"

    def __init__(self, workdir):
        self.fil = workdir / "out.fil"
        self.nodes_csv = workdir / "nodes.csv"
        self.stress_csv = workdir / "stresses.csv"
        self.reference = None

    def setup(self, seed):
        mesh = inputs.make_mesh(seed)
        state = WriteState(
            mesh,
            mesh.expected_records(),
            records.NodeTable(mesh.node_rows()),
            records.ElementTable(mesh.element_rows()),
            mesh.displacement_rows(),
            records.StressTable(mesh.stress_rows()),
        )
        return state, _digest(mesh.coords, mesh.connectivity, mesh.displacements, mesh.stresses)

    def case(self, state, index):
        return state

    def run(self, case, tr):
        with tr.span("records.generate"):
            recs = (
                records.node_records(case.nodes.rows)
                + records.element_records(case.elements.rows)
                + records.nodal_field_records(records.KEY_DISPLACEMENTS, case.displacements)
                + records.stress_records(case.stresses.rows)
            )
        with tr.span("filcodec.write"):
            filcodec.write_fil(recs, self.fil)
        with tr.span("records.to_csv"):
            with open(self.nodes_csv, "w") as fh:
                case.nodes.to_csv(fh)
            with open(self.stress_csv, "w") as fh:
                case.stresses.to_csv(fh)
        return recs

    def _first_check(self, case) -> bool:
        mesh = case.mesh
        if filcodec.decode_stream(filcodec.fil_to_string(self.fil)) != case.expected:
            return False
        nodes = np.loadtxt(self.nodes_csv, delimiter=",", skiprows=1, ndmin=2)
        stress = np.loadtxt(self.stress_csv, delimiter=",", skiprows=1, ndmin=2)
        return (
            np.array_equal(nodes[:, 0], mesh.node_ids)
            and np.array_equal(nodes[:, 1:], mesh.coords)
            and np.array_equal(stress[:, 0], mesh.element_ids)
            and np.array_equal(stress[:, 2:], mesh.stresses)
        )

    def verify(self, case, recs):
        written = tuple(p.read_bytes() for p in (self.fil, self.nodes_csv, self.stress_csv))
        if self.reference is None:
            ok = self._first_check(case)
            if ok:
                self.reference = written
        else:
            ok = written == self.reference
        counts = {
            "filcodec.items_encoded": _items(recs),
            "filcodec.bytes_written": len(written[0]),
        }
        return (0 if ok else 1), counts


@dataclass
class CalibrateState:
    case: inputs.WeibullCase
    csv: object


@dataclass
class CalibrateOut:
    fields: list
    params: weibull.WeibullParams
    iterations: int
    pf: np.ndarray


class WeibullCalibrate:
    """The ``weibull-fit`` + ``hazard`` CLI path: CSV -> fit -> hazard map."""

    ops_per_pass = 1
    file_bytes_key = None

    def __init__(self, workdir):
        self.csv = workdir / "fields.csv"

    def setup(self, seed):
        case = inputs.make_weibull_case(seed)
        text = case.csv_text()
        self.csv.write_text(text)
        return CalibrateState(case, self.csv), _digest(text.encode(), case.failure_loads)

    def case(self, state, index):
        return state

    def run(self, case, tr):
        with tr.span("weibull.load_csv"):
            fields = weibull.load_element_fields_csv(case.csv)
        with tr.span("weibull.rank"):
            samples = weibull.rank_samples(case.case.failure_loads)
        with tr.span("weibull.fit"):
            params, trace = weibull.fit_three_parameter(fields, samples, V0=1.0)
        with tr.span("weibull.hazard"):
            pf, _ = weibull.hazard_map(fields[-1], params)
        return CalibrateOut(fields, params, len(trace), pf)

    def verify(self, case, out):
        wc = case.case
        ok = len(out.fields) == len(wc.levels) and all(
            f.load_level == level and np.array_equal(f.sigma1, s1) and np.array_equal(f.volume, wc.volume)
            for f, level, s1 in zip(out.fields, wc.levels, wc.sigma1)
        )
        got = (out.params.sigma_th, out.params.m, out.params.sigma_u)
        ok = ok and all(abs(g - p) <= 0.05 * p for g, p in zip(got, wc.planted))
        ok = ok and out.pf.shape == wc.volume.shape and bool(np.all((out.pf >= 0) & (out.pf <= 1)))
        counts = {
            "weibull.fit_iterations": out.iterations,
            "weibull.sigma_w_element_evals": (out.iterations + 1) * wc.sigma1.size,
        }
        return (0 if ok else 1), counts


@dataclass
class DesignCase:
    target: czm.TSLParams
    curve: czm.ResponseCurve
    problem: truss.TrussProblem
    x0: list


@dataclass
class DesignOut:
    params: czm.TSLParams
    history: list
    state: truss.TrussState
    evals: dict
    grid_weight: float
    forward_curves: list | None


class DesignSearch:
    """Optimiser loops, no I/O: CZM identification of one off-design target,
    then one truss case sized and cross-checked by ``grid_sweep``.

    Pass *i* takes target *i* and truss case *i* of the seed's sequences, so
    a run covers a spread of targets instead of repeating one.
    """

    ops_per_pass = 2
    file_bytes_key = None

    def __init__(self, workdir):
        pass

    def setup(self, seed):
        first = [self.case(seed, i) for i in range(4)]
        return seed, _digest(np.array([[c.target.Tc, c.target.Gamma_c, *c.x0] for c in first]))

    def case(self, seed, index):
        target = inputs.czm_target(seed, index)
        problem, x0 = inputs.truss_case(seed, index)
        return DesignCase(target, czm.forward_model(target), problem, x0)

    def run(self, case, tr):
        forward, curves = czm.forward_model, None
        if isinstance(tr, Tracer):
            curves = []

            def forward(params, config):
                with tr.span("czm.forward"):
                    curve = czm.forward_model(params, config)
                curves.append(curve)
                return curve

        with tr.span("czm.identify"):
            params, history = czm.inverse_identify(
                case.curve, inputs.CZM_BOX, forward=forward, tol=0.005, max_outer=15
            )
        with tr.span("truss.optimize"):
            state, evals = truss.optimize_truss(case.problem, case.x0)
        with tr.span("truss.grid_sweep"):
            _, grid_weight = truss.grid_sweep(case.problem, n=GRID_N)
        return DesignOut(params, history, state, evals, grid_weight, curves)

    def verify(self, case, out):
        failed = 0
        t = case.target
        best = [s.incumbent_mismatch for s in out.history]
        if not (
            abs(out.params.Tc - t.Tc) <= 0.02 * t.Tc
            and abs(out.params.Gamma_c - t.Gamma_c) <= 0.02 * t.Gamma_c
            and all(b <= a for a, b in zip(best, best[1:]))
        ):
            failed += 1

        p = case.problem
        spacing = (p.area_max - p.area_min) / (GRID_N - 1)
        grid_step = truss.G_ACCEL * p.rho * p.L * (1 + math.sqrt(2)) * spacing
        feasible = bool(np.all(truss.evaluate_constraints(out.state, p) <= 1e-6 * p.d_max))
        w = out.state.weight
        if not (feasible and w * (1 - 0.002) <= out.grid_weight <= w + grid_step):
            failed += 1

        counts = {
            "czm.outer_iterations": len(out.history),
            "truss.objective_evals": out.evals["objective"],
            "truss.constraint_evals": out.evals["constraint"],
        }
        if out.forward_curves is not None:
            running, improving = math.inf, 0
            for curve in out.forward_curves:
                mismatch = czm.curve_mismatch(curve.load, case.curve)
                if mismatch < running:
                    running, improving = mismatch, improving + 1
            counts["czm.forward_calls"] = len(out.forward_curves)
            counts["czm.improving_calls"] = improving
        return failed, counts


WORKLOADS = {
    "fil_ingest": FilIngest,
    "fil_write": FilWrite,
    "weibull_calibrate": WeibullCalibrate,
    "design_search": DesignSearch,
}
