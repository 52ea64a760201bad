"""Two-bar plane truss sizing: analytic solver, weight objective, closed-form
minimum-weight design.

Geometry: free node at (L, 0), pinned supports at (0, 0) and (0, L); member 1
is horizontal with length L and area A1, member 2 is the diagonal with length
sqrt(2)*L and area A2.  A single load P acts vertically downward at the free
node.  Statics then give member forces N1 = -P and N2 = +sqrt(2)*P
independent of the areas, and the free-node displacements

    u_x = -P*L / (E*A1)
    |u_y| = (P*L/E) * (1/A1 + 2*sqrt(2)/A2)

The sizing problem minimizes the truss weight g*rho*L*(A1 + sqrt(2)*A2)
subject to |u_x|, |u_y| <= d_max and box bounds on the areas; the stress
limit enters through the area lower bound A_min = sqrt(2)*P/sigma_max.  The
problem is convex and :func:`optimize_truss` solves it in closed form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from ._base import check_number

__all__ = [
    "G_ACCEL",
    "TrussProblem",
    "TrussState",
    "solve_truss",
    "evaluate_constraints",
    "optimize_truss",
    "grid_sweep",
    "example_problem",
    "load_problem",
]

G_ACCEL = 9.81

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class TrussProblem:
    """Material, geometry, load and constraint data of the sizing problem."""

    E: float          # Young's modulus [Pa]
    rho: float        # density [kg/m^3]
    L: float          # bar length [m]
    P: float          # applied load [N]
    d_max: float      # displacement limit, both directions [m]
    sigma_max: float  # stress limit, tension and compression [Pa]
    area_min: float   # lower area bound [m^2]
    area_max: float   # upper area bound [m^2]

    def __post_init__(self):
        for field in fields(self):
            check_number(field.name, getattr(self, field.name),
                         inf=field.name in ("d_max", "sigma_max"))
        if self.area_min > self.area_max:
            raise ValueError(f"area_min {self.area_min} exceeds area_max {self.area_max}")
        stress_bound = SQRT2 * self.P / self.sigma_max
        if self.area_min < stress_bound * (1 - 1e-9):
            raise ValueError(
                f"area_min {self.area_min} violates the stress-derived bound "
                f"sqrt(2)*P/sigma_max = {stress_bound}"
            )


@dataclass(frozen=True)
class TrussState:
    """Solved configuration: areas, free-node displacements, stresses, weight."""

    areas: tuple
    displacements: tuple       # (u_x, u_y) [m]
    member_stresses: tuple     # (sigma_1, sigma_2) [Pa]
    weight: float              # [N]


def _displacements(a1, a2, problem: TrussProblem):
    """Free-node displacements (u_x, u_y); broadcasts over array areas."""
    coef = problem.P * problem.L / problem.E
    return -coef / a1, -coef * (1.0 / a1 + 2.0 * SQRT2 / a2)


def solve_truss(areas, problem: TrussProblem) -> TrussState:
    """Linear elastic solution of the 2-bar truss for given member areas,
    from the closed form in the module docstring."""
    a1, a2 = float(areas[0]), float(areas[1])
    check_number("A1", a1)
    check_number("A2", a2)
    ux, uy = _displacements(a1, a2, problem)
    return TrussState(
        areas=(a1, a2),
        displacements=(ux, uy),
        member_stresses=(-problem.P / a1, SQRT2 * problem.P / a2),
        weight=truss_weight((a1, a2), problem),
    )


def truss_weight(areas, problem: TrussProblem) -> float:
    """Truss weight g*rho*L*(A1 + sqrt(2)*A2) in newtons."""
    a1, a2 = float(areas[0]), float(areas[1])
    check_number("A1", a1, zero=True)
    check_number("A2", a2, zero=True)
    # Python floats overflow to inf without a warning
    weight = G_ACCEL * problem.rho * problem.L * (a1 + SQRT2 * a2)
    check_number("weight", weight, zero=True)
    return weight


def evaluate_constraints(state: TrussState, problem: TrussProblem) -> np.ndarray:
    """Inequality vector [|u_y| - d_max, |u_x| - d_max]; feasible iff <= 0."""
    ux, uy = state.displacements
    return np.array([abs(uy) - problem.d_max, abs(ux) - problem.d_max])


def optimize_truss(problem: TrussProblem, x0=None):
    """Lightest design that meets the displacement limit within the area bounds.

    With c = E*d_max/(P*L): minimize A1 + sqrt(2)*A2 subject to
    1/A1 + 2*sqrt(2)/A2 <= c (which implies |u_x| <= d_max).  Unless
    (area_min, area_min) is feasible the constraint is active, and along it
    the weight is convex in A1 with its stationary point at A1 = 3/c,
    A2 = sqrt(2)*A1.  A1 is clipped up to area_min and to the A1 that puts A2
    at area_max; a feasible, active case has 3/area_max < c <
    3*sqrt(2)/area_min, so 3/c never needs clipping down.  Raises ValueError
    when even (area_max, area_max) misses the limit.

    Returns ``(TrussState, counts)``.  *x0* is ignored and both counts are 0;
    they stay only for callers written against an iterative optimizer.
    """
    lo, hi = problem.area_min, problem.area_max
    c = problem.E * problem.d_max / (problem.P * problem.L)
    counts = {"objective": 0, "constraint": 0}
    if (1.0 + 2.0 * SQRT2) / lo <= c:
        return solve_truss((lo, lo), problem), counts
    if (1.0 + 2.0 * SQRT2) / hi > c:
        raise ValueError(f"displacement limit {problem.d_max} m missed even at area_max")
    a1 = max(3.0 / c, lo, 1.0 / (c - 2.0 * SQRT2 / hi))
    # clipped only against rounding in the last bit
    a2 = min(max(2.0 * SQRT2 / (c - 1.0 / a1), lo), hi)
    return solve_truss((a1, a2), problem), counts


def grid_sweep(problem: TrussProblem, n: int = 200):
    """Feasibility sweep over an n-by-n area grid; returns the lightest
    feasible grid design ``(areas, weight)``.

    Serves as an independent check on the optimizer: no feasible grid point
    may undercut its result by more than the grid resolution allows.  Every
    grid point is checked.  Feasibility and weight are both monotone in A2
    (rounding included), so the lightest feasible point of each A1 row is its
    first feasible column, and only those are compared; ties go to the first
    point in row-major order.  Raises ValueError unless *n* is a positive
    integer or when no grid point is feasible.
    """
    check_number("n", n, integer=True)
    areas = np.linspace(problem.area_min, problem.area_max, n)
    ux, uy = _displacements(areas[:, None], areas[None, :], problem)
    # both displacements are negative: comparing them with -d_max spares a
    # negated copy of the grid
    feasible = (ux >= -problem.d_max) & (uy >= -problem.d_max)
    rows = np.flatnonzero(feasible.any(axis=1))
    if not rows.size:
        raise ValueError("no feasible point on the grid")
    cols = feasible[rows].argmax(axis=1)
    weight = G_ACCEL * problem.rho * problem.L * (areas[rows] + SQRT2 * areas[cols])
    k = np.argmin(weight)
    return (float(areas[rows[k]]), float(areas[cols[k]])), float(weight[k])


def example_problem() -> TrussProblem:
    """The published sizing example: aluminum bars, 9.144 m span."""
    return TrussProblem(
        E=68.948e9,
        rho=2767.990471,
        L=9.144,
        P=444.974e3,
        d_max=0.0508,
        sigma_max=172.369e6,
        area_min=0.003650822800775,
        area_max=0.0225806,
    )


def load_problem(path) -> TrussProblem:
    """Read a problem definition from a JSON config file.

    The file holds one object with a number for each :class:`TrussProblem`
    field; an ``x0`` key is ignored, so configs that carry a start point
    still load.  Raises ValueError naming a missing, unknown or non-numeric
    key, or when the file is not a JSON object.
    """
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: the truss config must be a JSON object")
    cfg.pop("x0", None)
    names = [field.name for field in fields(TrussProblem)]
    for name in [*names, *cfg]:
        if name not in names or name not in cfg:
            kind = "missing" if name in names else "unknown"
            raise ValueError(f"{path}: {kind} key {name!r}")
        if isinstance(cfg[name], bool) or not isinstance(cfg[name], (int, float)):
            raise ValueError(f"{path}: key {name!r} must be a number, got {cfg[name]!r}")
    return TrussProblem(**cfg)
