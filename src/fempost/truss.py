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

from ._base import FempostError

__all__ = [
    "G_ACCEL",
    "TrussProblem",
    "TrussState",
    "SingularStiffness",
    "Infeasible",
    "solve_truss",
    "truss_weight",
    "evaluate_constraints",
    "optimize_truss",
    "grid_sweep",
    "example_problem",
    "load_problem",
]

G_ACCEL = 9.81

SQRT2 = math.sqrt(2.0)


class SingularStiffness(FempostError, ValueError):
    """Stiffness matrix is singular (zero or negative area)."""


class Infeasible(FempostError, RuntimeError):
    """No feasible design found."""


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
            value = getattr(self, field.name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{field.name} must be a number, got {value!r}")
            if not value > 0:  # also rejects NaN
                raise ValueError(f"{field.name} must be positive, got {value}")
            if value == math.inf and field.name not in ("d_max", "sigma_max"):
                raise ValueError(f"{field.name} must be finite")
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


def solve_truss(areas, problem: TrussProblem) -> TrussState:
    """Linear elastic solution of the 2-bar truss for given member areas."""
    a1, a2 = float(areas[0]), float(areas[1])
    if a1 <= 0 or a2 <= 0:
        raise SingularStiffness(f"non-positive member area in {areas}")
    E, L, P = problem.E, problem.L, problem.P

    # member 1 along +x; member 2 along (1, -1)/sqrt(2), length sqrt(2)*L
    k1 = E * a1 / L
    k2 = E * a2 / (SQRT2 * L)
    K = np.array(
        [
            [k1 + 0.5 * k2, -0.5 * k2],
            [-0.5 * k2, 0.5 * k2],
        ]
    )
    f = np.array([0.0, -P])
    try:
        u = np.linalg.solve(K, f)
    except np.linalg.LinAlgError as exc:
        raise SingularStiffness(str(exc)) from exc
    ux, uy = float(u[0]), float(u[1])

    # axial forces from member elongations (tension positive)
    n1 = k1 * ux
    n2 = k2 * (ux - uy) / SQRT2

    return TrussState(
        areas=(a1, a2),
        displacements=(ux, uy),
        member_stresses=(n1 / a1, n2 / a2),
        weight=truss_weight((a1, a2), problem),
    )


def truss_weight(areas, problem: TrussProblem) -> float:
    """Truss weight g*rho*L*(A1 + sqrt(2)*A2) in newtons."""
    a1, a2 = float(areas[0]), float(areas[1])
    if a1 < 0 or a2 < 0:
        raise ValueError("areas must be non-negative")
    return G_ACCEL * problem.rho * problem.L * (a1 + SQRT2 * a2)


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
    3*sqrt(2)/area_min, so 3/c never needs clipping down.  Raises
    :class:`Infeasible` when even (area_max, area_max) misses the limit.

    Returns ``(TrussState, counts)``.  *x0* is ignored and both counts are 0;
    they stay only for callers written against an iterative optimizer.
    """
    lo, hi = problem.area_min, problem.area_max
    c = problem.E * problem.d_max / (problem.P * problem.L)
    counts = {"objective": 0, "constraint": 0}
    if (1.0 + 2.0 * SQRT2) / lo <= c:
        return solve_truss((lo, lo), problem), counts
    if (1.0 + 2.0 * SQRT2) / hi > c:
        raise Infeasible(f"displacement limit {problem.d_max} m missed even at area_max")
    a1 = max(3.0 / c, lo, 1.0 / (c - 2.0 * SQRT2 / hi))
    # clipped only against rounding in the last bit
    a2 = min(max(2.0 * SQRT2 / (c - 1.0 / a1), lo), hi)
    return solve_truss((a1, a2), problem), counts


def grid_sweep(problem: TrussProblem, n: int = 200):
    """Feasibility sweep over an n-by-n area grid; returns the lightest
    feasible grid design ``(areas, weight)``.

    Serves as an independent check on the optimizer: no feasible grid point
    may undercut its result by more than the grid resolution allows.
    """
    areas = np.linspace(problem.area_min, problem.area_max, n)
    a1g, a2g = np.meshgrid(areas, areas, indexing="ij")
    coef = problem.P * problem.L / problem.E
    uy_mag = coef * (1.0 / a1g + 2.0 * SQRT2 / a2g)
    ux_mag = coef / a1g
    feasible = (uy_mag <= problem.d_max) & (ux_mag <= problem.d_max)
    if not feasible.any():
        raise Infeasible("no feasible point on the grid")
    weight = G_ACCEL * problem.rho * problem.L * (a1g + SQRT2 * a2g)
    weight = np.where(feasible, weight, np.inf)
    idx = np.unravel_index(np.argmin(weight), weight.shape)
    return (float(a1g[idx]), float(a2g[idx])), float(weight[idx])


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
