import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fempost.truss import (
    G_ACCEL,
    TrussProblem,
    evaluate_constraints,
    grid_sweep,
    load_problem,
    optimize_truss,
    example_problem,
    solve_truss,
    truss_weight,
    _displacements,
)

SQRT2 = math.sqrt(2.0)
OPTIMUM_AREAS = (0.00365, 0.00482)
OPTIMUM_WEIGHT = 2598.7


def hand_uy(areas, p):
    """Unit-load oracle for the vertical displacement magnitude."""
    return (p.P * p.L / p.E) * (1.0 / areas[0] + 2.0 * SQRT2 / areas[1])


class TestSolve:
    problem = example_problem()

    def test_constraint_active_at_published_optimum(self):
        state = solve_truss(OPTIMUM_AREAS, self.problem)
        assert abs(state.displacements[1]) == pytest.approx(0.0508, abs=1e-4)

    def test_hand_evaluated_displacement(self):
        state = solve_truss([0.01, 0.01], self.problem)
        expected = (444974.0 * 9.144 / 68.948e9) * (1.0 + 2.0 * SQRT2) / 0.01
        assert abs(state.displacements[1]) == pytest.approx(expected, rel=1e-9)
        assert abs(state.displacements[1]) == pytest.approx(0.02259, abs=1e-5)

    def test_stress_limit_at_minimum_areas(self):
        a = self.problem.area_min
        state = solve_truss([a, a], self.problem)
        assert abs(state.member_stresses[1]) == pytest.approx(
            self.problem.sigma_max, rel=1e-3
        )

    def test_solution_matches_unit_load_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            areas = rng.uniform(0.001, 0.03, size=2)
            state = solve_truss(areas, self.problem)
            assert abs(state.displacements[1]) == pytest.approx(
                hand_uy(areas, self.problem), rel=1e-10
            )
            assert abs(state.displacements[0]) == pytest.approx(
                self.problem.P * self.problem.L / (self.problem.E * areas[0]),
                rel=1e-10,
            )

    def test_member_forces_from_statics(self):
        state = solve_truss([0.004, 0.006], self.problem)
        n1 = state.member_stresses[0] * 0.004
        n2 = state.member_stresses[1] * 0.006
        assert n1 == pytest.approx(-self.problem.P, rel=1e-9)
        assert n2 == pytest.approx(SQRT2 * self.problem.P, rel=1e-9)

    def test_zero_area_rejected(self):
        with pytest.raises(ValueError, match="^A1 must be positive, got 0.0$"):
            solve_truss([0.0, 0.01], self.problem)

    @pytest.mark.parametrize("areas", [[0.01, -1.0], [math.nan, 0.01], [0.01, math.inf]])
    def test_bad_area_rejected(self, areas):
        with pytest.raises(ValueError, match="^A[12] must be (positive|finite)"):
            solve_truss(areas, self.problem)

    def test_displacements_decrease_with_area(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            areas = rng.uniform(0.002, 0.02, size=2)
            base = solve_truss(areas, self.problem)
            bigger = solve_truss(areas * 1.5, self.problem)
            assert abs(bigger.displacements[0]) < abs(base.displacements[0])
            assert abs(bigger.displacements[1]) < abs(base.displacements[1])


class TestWeight:
    problem = example_problem()

    def test_published_optimum_weight(self):
        assert truss_weight(OPTIMUM_AREAS, self.problem) == pytest.approx(
            OPTIMUM_WEIGHT, abs=0.5
        )

    def test_zero_areas(self):
        assert truss_weight([0.0, 0.0], self.problem) == 0.0

    @pytest.mark.parametrize("areas", [[-0.01, 0.01], [0.01, math.nan], [math.inf, 0.01]])
    def test_bad_area_rejected(self, areas):
        with pytest.raises(ValueError):
            truss_weight(areas, self.problem)

    def test_start_point_weight(self):
        expected = G_ACCEL * 2767.990471 * 9.144 * (0.0037 + SQRT2 * 0.0049)
        assert truss_weight([0.0037, 0.0049], self.problem) == pytest.approx(expected)
        assert expected == pytest.approx(2639.3, abs=0.05)

    def test_linearity(self):
        w1 = truss_weight([0.004, 0.006], self.problem)
        w2 = truss_weight([0.008, 0.012], self.problem)
        assert w2 == pytest.approx(2.0 * w1, rel=1e-12)


class TestConstraints:
    problem = example_problem()

    def test_optimum_activity(self):
        state = solve_truss(OPTIMUM_AREAS, self.problem)
        c = evaluate_constraints(state, self.problem)
        assert abs(c[0]) < 1e-4
        assert c[1] < 0.0

    def test_large_areas_feasible(self):
        state = solve_truss([0.02, 0.02], self.problem)
        assert np.all(evaluate_constraints(state, self.problem) < 0.0)

    def test_zero_displacement_state(self):
        state = solve_truss([1.0, 1.0], self.problem)
        c = evaluate_constraints(state, self.problem)
        # with A = 1 m^2 the displacements are O(1e-4) m, so the constraints
        # sit essentially at -d_max
        assert c == pytest.approx([-self.problem.d_max] * 2, abs=3e-4)


class TestOptimize:
    problem = example_problem()

    def test_from_published_start(self):
        state, counts = optimize_truss(self.problem, [0.0037, 0.0049])
        assert state.areas[0] == pytest.approx(OPTIMUM_AREAS[0], rel=0.01)
        assert state.areas[1] == pytest.approx(OPTIMUM_AREAS[1], rel=0.01)
        assert state.weight == pytest.approx(OPTIMUM_WEIGHT, rel=0.005)
        assert counts == {"objective": 0, "constraint": 0}

    def test_from_upper_bound_start(self):
        state, _ = optimize_truss(
            self.problem, [self.problem.area_max, self.problem.area_max]
        )
        assert state.areas[0] == pytest.approx(OPTIMUM_AREAS[0], rel=0.01)
        assert state.areas[1] == pytest.approx(OPTIMUM_AREAS[1], rel=0.01)

    def test_lower_bound_active(self):
        state, _ = optimize_truss(self.problem)
        assert state.areas[0] == self.problem.area_min
        assert state.areas[1] == pytest.approx(4.819155229192e-3, rel=1e-12)
        assert state.weight == pytest.approx(2598.70, abs=0.005)

    def test_unbounded_displacement_gives_minimum_areas(self):
        p = example_problem()
        free = TrussProblem(
            E=p.E, rho=p.rho, L=p.L, P=p.P, d_max=math.inf,
            sigma_max=p.sigma_max, area_min=p.area_min, area_max=p.area_max,
        )
        state, _ = optimize_truss(free)
        assert state.areas == (free.area_min, free.area_min)

    def test_grid_sweep_confirms_optimum(self):
        state, _ = optimize_truss(self.problem)
        _, grid_weight = grid_sweep(self.problem, n=200)
        assert grid_weight >= state.weight * (1.0 - 0.002)


class TestProblemDefinition:
    def test_stress_bound_enforced(self):
        p = example_problem()
        with pytest.raises(ValueError):
            TrussProblem(
                E=p.E, rho=p.rho, L=p.L, P=p.P, d_max=p.d_max,
                sigma_max=p.sigma_max, area_min=0.001, area_max=p.area_max,
            )

    def test_config_round_trip(self, tmp_path):
        p = example_problem()
        cfg = {
            "E": p.E, "rho": p.rho, "L": p.L, "P": p.P,
            "d_max": p.d_max, "sigma_max": p.sigma_max,
            "area_min": p.area_min, "area_max": p.area_max,
            "x0": [0.0037, 0.0049],
        }
        path = tmp_path / "truss.cfg"
        path.write_text(json.dumps(cfg))
        assert load_problem(path) == p

    @pytest.mark.parametrize("name", ["E", "rho", "L", "P", "d_max", "sigma_max", "area_min", "area_max"])
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            replace(example_problem(), **{name: math.nan})

    @pytest.mark.parametrize("value", ["1e9", None, True], ids=repr)
    def test_non_numeric_rejected(self, value):
        with pytest.raises(ValueError, match="^E must be a number"):
            replace(example_problem(), E=value)

    def test_area_bounds_ordered(self):
        p = example_problem()
        with pytest.raises(ValueError, match="exceeds area_max"):
            replace(p, area_max=0.9 * p.area_min)

    def test_numpy_scalars_accepted(self):
        p = example_problem()
        assert replace(p, E=np.int64(69_000_000_000), rho=np.float64(p.rho)).E == 69e9

    def test_only_limits_may_be_infinite(self):
        p = example_problem()
        assert replace(p, d_max=math.inf, sigma_max=math.inf).d_max == math.inf
        with pytest.raises(ValueError, match="E must be finite"):
            replace(p, E=math.inf)


# Feasible problems on which an SLSQP set-up raised NoConvergence, each with
# the start point it failed from (perfbench/NOTES.md).
NOTES_REPRODUCERS = [
    (example_problem(), [0.003953860923233307, 0.004329844680039607]),
    (
        TrussProblem(
            E=75210587292.64258, rho=2756.9725643244583, L=9.298961320122343,
            P=462086.0126755321, d_max=0.059804125089265255,
            sigma_max=180148984.6709763, area_min=0.0036274881443388255,
            area_max=0.0225806,
        ),
        [0.005247426180536883, 0.0046636900391092435],
    ),
]


def assert_optimal(problem, state):
    """Feasible to 1e-9 d_max, inside the bounds, and not undercut by the grid."""
    assert np.all(evaluate_constraints(state, problem) <= 1e-9 * problem.d_max)
    assert all(problem.area_min <= a <= problem.area_max for a in state.areas)
    _, grid_weight = grid_sweep(problem, n=200)
    assert grid_weight >= state.weight * (1.0 - 1e-12)


def limit_c(problem):
    """c = E*d_max/(P*L): the bound on 1/A1 + 2*sqrt(2)/A2."""
    return problem.E * problem.d_max / (problem.P * problem.L)


class TestClosedForm:
    @pytest.mark.parametrize("problem, x0", NOTES_REPRODUCERS, ids=["example", "perturbed"])
    def test_notes_reproducers(self, problem, x0):
        state, _ = optimize_truss(problem, x0)
        assert_optimal(problem, state)

    def test_interior(self):
        p = replace(example_problem(), d_max=0.03)
        state, _ = optimize_truss(p)
        a1, a2 = state.areas
        assert p.area_min < a1 and a2 < p.area_max
        assert a1 == pytest.approx(3.0 / limit_c(p), rel=1e-12)
        assert a2 == pytest.approx(SQRT2 * a1, rel=1e-12)
        assert_optimal(p, state)

    def test_a2_at_area_max(self):
        p = replace(example_problem(), d_max=0.035, area_max=0.007)
        state, _ = optimize_truss(p)
        c = limit_c(p)
        assert state.areas[1] == pytest.approx(p.area_max, rel=1e-12)
        assert state.areas[0] == pytest.approx(1.0 / (c - 2.0 * SQRT2 / p.area_max), rel=1e-12)
        assert state.areas[0] > 3.0 / c
        assert_optimal(p, state)

    def test_infeasible(self):
        p = replace(example_problem(), d_max=0.001)
        with pytest.raises(ValueError, match="^displacement limit 0.001 m missed even at area_max$"):
            optimize_truss(p)
        with pytest.raises(ValueError, match="^no feasible point on the grid$"):
            grid_sweep(p, n=200)

    def test_perturbed_problems(self):
        base = example_problem()
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            f = rng.uniform(0.8, 1.2, size=4)
            p = replace(
                base, E=base.E * f[0], rho=base.rho * f[1], L=base.L * f[2],
                d_max=base.d_max * f[3],
            )
            state, _ = optimize_truss(p)
            assert_optimal(p, state)

    def test_start_point_ignored(self):
        p = example_problem()
        a, _ = optimize_truss(p, [0.0037, 0.0049])
        b, _ = optimize_truss(p, [p.area_max, p.area_max])
        assert a == b == optimize_truss(p)[0]


def full_grid_sweep(problem, n):
    """The sweep grid_sweep replaced: mask and arg-minimise the whole weight grid."""
    areas = np.linspace(problem.area_min, problem.area_max, n)
    a1, a2 = areas[:, None], areas[None, :]
    ux, uy = _displacements(a1, a2, problem)
    feasible = (-uy <= problem.d_max) & (-ux <= problem.d_max)
    if not feasible.any():
        raise ValueError("no feasible point on the grid")
    weight = G_ACCEL * problem.rho * problem.L * (a1 + SQRT2 * a2)
    weight = np.where(feasible, weight, np.inf)
    i, j = np.unravel_index(np.argmin(weight), weight.shape)
    return (float(areas[i]), float(areas[j])), float(weight[i, j])


def sweep_or_infeasible(sweep, problem, n):
    try:
        return sweep(problem, n)
    except ValueError as exc:
        if str(exc) != "no feasible point on the grid":
            raise
        return "infeasible"


@st.composite
def sweep_cases(draw):
    """Problems whose area grid repeats values (ties in weight) and whose
    displacement limit sits exactly on a grid point's |u_y| or |u_x|."""
    base = example_problem()
    n = draw(st.integers(1, 60))
    area_min = base.area_min * draw(st.floats(0.5, 2.0))
    area_max = draw(
        st.one_of(
            st.just(area_min),
            st.integers(1, 40).map(lambda k: area_min + k * float(np.spacing(area_min))),
            st.floats(1.0001, 10.0).map(lambda f: area_min * f),
        )
    )
    p = replace(base, sigma_max=math.inf, area_min=area_min, area_max=area_max)
    areas = np.linspace(area_min, area_max, n)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    ux, uy = _displacements(areas[i], areas[j], p)
    d_max = draw(st.sampled_from([-uy, -ux, -uy * (1 + 1e-15), p.d_max, math.inf]))
    return replace(p, d_max=float(d_max)), n


class TestGridSweep:
    """The first-feasible-column sweep against the full-grid sweep it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 200, 257])
    def test_example_matches_full_grid(self, n):
        p = example_problem()
        assert sweep_or_infeasible(grid_sweep, p, n) == sweep_or_infeasible(full_grid_sweep, p, n)

    def test_randomised_problems_match_full_grid(self):
        base = example_problem()
        rng = np.random.default_rng(20261019)
        outcomes = set()
        for _ in range(500):
            f = rng.uniform(0.3, 3.0, size=4)
            area_min = base.area_min * f[0]
            p = replace(
                base, sigma_max=math.inf, area_min=area_min,
                area_max=area_min * (1 + 10 * f[1]), d_max=base.d_max * f[2], rho=base.rho * f[3],
            )
            n = int(rng.integers(1, 261))
            expected = sweep_or_infeasible(full_grid_sweep, p, n)
            assert sweep_or_infeasible(grid_sweep, p, n) == expected
            outcomes.add(expected == "infeasible")
        assert outcomes == {True, False}

    @settings(max_examples=300, deadline=None)
    @given(sweep_cases())
    def test_ties_and_boundary_points_match_full_grid(self, case):
        p, n = case
        assert sweep_or_infeasible(grid_sweep, p, n) == sweep_or_infeasible(full_grid_sweep, p, n)

    @pytest.mark.parametrize("n", [0, -1, 2.5, True, "200"], ids=repr)
    def test_bad_grid_size_rejected(self, n):
        with pytest.raises(ValueError, match="^n must be"):
            grid_sweep(example_problem(), n)
