"""Size the 2-bar plane truss example.

Solves the published aluminum example (9.144 m span, 444.974 kN tip load,
displacement limit 50.8 mm, stress limit 172.369 MPa) in closed form and
cross-checks the optimum against a brute-force feasibility sweep.
"""

from fempost.truss import (
    evaluate_constraints,
    example_problem,
    grid_sweep,
    optimize_truss,
)

problem = example_problem()
c = problem.E * problem.d_max / (problem.P * problem.L)
print(f"c = E*d_max/(P*L) = {c:.2f} 1/m^2; the interior KKT point "
      f"A1 = 3/c = {3 / c:.6f} m^2 lies below area_min = {problem.area_min:.6f} m^2")

state, _ = optimize_truss(problem)
print("\nclosed-form optimum:")
print(f"  areas   = [{state.areas[0]:.6f}, {state.areas[1]:.6f}] m^2")
print(f"  weight  = {state.weight:.1f} N")
print(f"  u       = ({state.displacements[0] * 1000:+.3f}, "
      f"{state.displacements[1] * 1000:+.3f}) mm")
print(f"  stress  = ({state.member_stresses[0] / 1e6:+.2f}, "
      f"{state.member_stresses[1] / 1e6:+.2f}) MPa")

constraints = evaluate_constraints(state, problem)
print(f"  constraints (<= 0 feasible): [{constraints[0]:+.3e}, {constraints[1]:+.3e}]")
print(f"  displacement limit active: |u_y| = {abs(state.displacements[1]):.5f} m "
      f"vs d_max = {problem.d_max} m")
print(f"  bar 1 at the stress-derived area floor: {state.areas[0]:.6f} m^2 "
      f"vs area_min = {problem.area_min:.6f} m^2")

grid_areas, grid_weight = grid_sweep(problem, n=200)
print(f"\n200x200 grid sweep: best feasible weight {grid_weight:.1f} N at "
      f"[{grid_areas[0]:.5f}, {grid_areas[1]:.5f}] m^2 "
      f"(>= closed form's {state.weight:.1f} N)")
