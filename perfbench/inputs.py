"""Seeded input generators for the four benchmark workloads.

Every generator takes the run seed and returns plain data (tables, arrays,
problem objects); the library under test only ever sees these generated
inputs.  Each workload draws from its own stream, ``default_rng([seed, k])``,
so changing one generator never shifts another workload's inputs.

Input constraints found while sizing the workloads:

* Weibull element volumes are normalised to sum to V0.  With unnormalised
  volumes the Weibull stress at every failure load collapses onto the
  threshold and ``fit_three_parameter`` raises ``DegenerateFit``.
* Truss cases keep ``area_min >= sqrt(2) * P / sigma_max``, the
  stress-derived bound that ``TrussProblem`` enforces; the published example
  sits exactly on it.  Only the start point varies (see ``truss_case``).
* CZM targets keep their load peak inside the CMOD window (see
  ``CZM_MAX_PEAK_CMOD``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fempost import czm, truss
from fempost.filcodec import LogicalRecord

# Mesh of the two .fil workloads: NX x NY CPE4 quads, one integration point
# each.  80 x 80 gives 6561 nodes, 6400 elements and a 2.3 MB results file.
MESH_NX = MESH_NY = 80

# Weibull calibration: element count, load levels and failure experiments.
WEIBULL_ELEMENTS = 2000
WEIBULL_LEVELS = np.linspace(0.0, 400.0, 81)
WEIBULL_SAMPLES = 200

# CZM targets are drawn at least 15% of the box width inside the
# identification box, and with their peak CMOD (Gamma_c / Tc for the default
# forward model) at most 0.45, well inside the 0.6 sampling window.  A target
# whose peak lies beyond the window has only a rising curve: it matches to the
# 0.005 mismatch tolerance while Gamma_c is still 2-4% off, which is the
# resolution of the data, not of the search.
CZM_BOX = ((100.0, 300.0), (20.0, 100.0))
CZM_TARGET_BOX = ((130.0, 270.0), (30.0, 90.0))
CZM_MAX_PEAK_CMOD = 0.45


def canonical(values) -> np.ndarray:
    """Round each value to the 16 significant digits a float item carries,
    so decoded values compare exactly with the generated ones."""
    a = np.asarray(values, dtype=float)
    return np.array([float(f"{v:.15E}") for v in a.ravel()]).reshape(a.shape)


@dataclass
class Mesh:
    """A jittered structured quad mesh with nodal and element results."""

    node_ids: np.ndarray      # (N,)
    coords: np.ndarray        # (N, 2)
    element_ids: np.ndarray   # (E,)
    connectivity: np.ndarray  # (E, 4), counter-clockwise node ids
    displacements: np.ndarray  # (N, 2)
    stresses: np.ndarray      # (E, 6): S11 S22 S33 S12 S13 S23

    def node_rows(self):
        return [(int(n), tuple(c)) for n, c in zip(self.node_ids, self.coords.tolist())]

    def element_rows(self):
        return [
            (int(e), "CPE4", tuple(c))
            for e, c in zip(self.element_ids, self.connectivity.tolist())
        ]

    def displacement_rows(self):
        return [(int(n), tuple(u)) for n, u in zip(self.node_ids, self.displacements.tolist())]

    def stress_rows(self):
        return [(int(e), 1, tuple(s)) for e, s in zip(self.element_ids, self.stresses.tolist())]

    def expected_records(self) -> list:
        """The records a results file of this mesh holds, in file order:
        nodes (1901), elements (1900), displacements (101), then one element
        header (1) / stress (11) pair per element.  Built straight from the
        arrays, so it is a reference independent of the record generators."""
        recs = [LogicalRecord(1901, (n, *c)) for n, c in self.node_rows()]
        recs += [LogicalRecord(1900, (e, t.ljust(8), *c)) for e, t, c in self.element_rows()]
        recs += [LogicalRecord(101, (n, *u)) for n, u in self.displacement_rows()]
        for e, ip, s in self.stress_rows():
            recs += [LogicalRecord(1, (e, ip)), LogicalRecord(11, s)]
        return recs


def make_mesh(seed: int, nx: int = MESH_NX, ny: int = MESH_NY) -> Mesh:
    """Unit-square mesh whose interior nodes are jittered by up to a quarter
    cell, with seeded displacements and six-component stresses."""
    rng = np.random.default_rng([seed, 1])
    h = np.array([1.0 / nx, 1.0 / ny])
    ii, jj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1))
    grid = np.stack([ii.ravel(), jj.ravel()], axis=1)
    coords = grid * h
    interior = (grid > 0).all(axis=1) & (grid < [nx, ny]).all(axis=1)
    coords[interior] += rng.uniform(-0.25, 0.25, size=(interior.sum(), 2)) * h
    node_ids = np.arange(1, len(coords) + 1)

    jj_e, ii_e = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    n1 = (jj_e * (nx + 1) + ii_e + 1).ravel()
    connectivity = np.stack([n1, n1 + 1, n1 + nx + 2, n1 + nx + 1], axis=1)
    element_ids = np.arange(1, len(connectivity) + 1)

    displacements = rng.normal(0.0, 1e-3, size=(len(coords), 2))
    normal = rng.normal(150.0, 40.0, size=(len(element_ids), 3))
    shear = rng.normal(0.0, 30.0, size=(len(element_ids), 3))
    return Mesh(
        node_ids=node_ids,
        coords=canonical(coords),
        element_ids=element_ids,
        connectivity=connectivity,
        displacements=canonical(displacements),
        stresses=canonical(np.hstack([normal, shear])),
    )


@dataclass
class WeibullCase:
    """Element fields at every load level plus planted failure loads."""

    levels: np.ndarray        # (L,)
    sigma1: np.ndarray        # (L, E)
    volume: np.ndarray        # (E,), sums to V0 = 1
    failure_loads: np.ndarray  # (WEIBULL_SAMPLES,)
    planted: tuple            # (sigma_th, m, sigma_u)

    def csv_text(self) -> str:
        """Element-field CSV in the layout ``load_element_fields_csv`` reads."""
        lines = ["load_level,element_id,sigma1,volume\n"]
        vols = self.volume.tolist()
        for level, row in zip(self.levels.tolist(), self.sigma1.tolist()):
            lines.extend(
                f"{level!r},{eid},{s!r},{v!r}\n"
                for eid, (s, v) in enumerate(zip(row, vols), start=1)
            )
        return "".join(lines)


def make_weibull_case(seed: int) -> WeibullCase:
    """Fields sigma1_i(J) = c_i * (b + k*J) and failure loads placed at the
    median-rank plotting positions of a planted (sigma_th, m, sigma_u), with
    no sampling noise, so the calibration must recover the planted law."""
    rng = np.random.default_rng([seed, 2])
    sigma_th, m, sigma_u = (
        1000.0 * rng.uniform(0.95, 1.05),
        4.0 * rng.uniform(0.95, 1.05),
        1200.0 * rng.uniform(0.95, 1.05),
    )
    scale = rng.uniform(0.7, 1.1, size=WEIBULL_ELEMENTS)
    scale[rng.integers(WEIBULL_ELEMENTS)] = 1.1
    base, slope = 800.0 * rng.uniform(0.97, 1.03), 10.0 * rng.uniform(0.97, 1.03)
    sigma1 = np.outer(base + slope * WEIBULL_LEVELS, scale)
    volume = rng.uniform(0.5, 1.5, size=WEIBULL_ELEMENTS)
    volume /= volume.sum()

    excess = np.maximum(sigma1 - sigma_th, 0.0)
    sw_levels = sigma_th + np.sum(excess**m * volume, axis=1) ** (1.0 / m)
    n = WEIBULL_SAMPLES
    u = (np.arange(1, n + 1) - 0.3) / (n + 0.4)
    sw_fail = sigma_th + sigma_u * (-np.log1p(-u)) ** (1.0 / m)
    if not (sw_levels[0] <= sw_fail[0] and sw_fail[-1] <= sw_levels[-1]):
        raise ValueError(f"seed {seed}: planted failure stresses outside the field range")
    loads = np.interp(sw_fail, sw_levels, WEIBULL_LEVELS)
    return WeibullCase(WEIBULL_LEVELS.copy(), sigma1, volume, loads, (sigma_th, m, sigma_u))


def czm_target(seed: int, index: int) -> czm.TSLParams:
    """The index-th off-design CZM target of the seed's sequence."""
    rng = np.random.default_rng([seed, 3, index])
    (t_lo, t_hi), (g_lo, g_hi) = CZM_TARGET_BOX
    while True:
        tc, gc = rng.uniform(t_lo, t_hi), rng.uniform(g_lo, g_hi)
        if gc / tc <= CZM_MAX_PEAK_CMOD:
            return czm.TSLParams(float(tc), float(gc))


def truss_case(seed: int, index: int):
    """The index-th truss case: the published example from a seeded start.

    Only the start point varies, and it stays at least 30% above the optimum
    areas (A1 = area_min, A2 = 1.32 area_min).  ``optimize_truss`` raises
    ``NoConvergence`` ("Positive directional derivative for linesearch") on
    about 0.1% of starts within 20% of the optimum, and on about 0.3% of
    problems whose constants are perturbed by 10-20%; a benchmark workload
    must not fail.  None of 10 000 starts in this region failed.
    """
    rng = np.random.default_rng([seed, 4, index])
    problem = truss.example_problem()
    x0 = [problem.area_min * rng.uniform(1.3, 2.5), problem.area_min * rng.uniform(1.6, 3.0)]
    return problem, x0
