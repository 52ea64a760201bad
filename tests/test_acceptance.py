"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import math
import random
import sys
import time

import numpy as np
import pytest

from conftest import random_stream
from fempost import czm, filcodec, gridio, jobs, records, truss, weibull


def report(number, text):
    print(f"ACCEPTANCE {number:2d}: PASS - {text}", flush=True)


class TestAcceptance:
    def test_01_codec_round_trip(self, tmp_path):
        rng = random.Random(20260823)
        path = tmp_path / "fuzz.fil"
        start = time.monotonic()
        for _ in range(1000):
            stream = random_stream(rng)
            filcodec.write_fil(stream, path)
            back = filcodec.decode_stream(filcodec.fil_to_string(path))
            assert back == stream
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        report(1, f"1000 fuzzed streams round-tripped exactly in {elapsed:.2f} s")

    def test_02_data_item_anchor(self):
        value, nxt = filcodec.decode_item("I 41901", 0)
        assert value == 1901
        assert nxt == 7
        report(2, 'literal "I 41901" decodes to integer 1901 at width 4')

    def test_03_truss_optimum(self):
        problem = truss.example_problem()
        start = time.monotonic()
        state, _ = truss.optimize_truss(problem)
        assert abs(state.areas[0] - 0.00365) / 0.00365 < 0.01
        assert abs(state.areas[1] - 0.00482) / 0.00482 < 0.01
        assert abs(state.weight - 2598.7) / 2598.7 < 0.005
        _, grid_weight = truss.grid_sweep(problem, n=200)
        assert grid_weight >= state.weight * (1.0 - 0.002)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0
        report(
            3,
            f"optimum areas {state.areas[0]:.5f}/{state.areas[1]:.5f} m^2, "
            f"weight {state.weight:.1f} N, grid sweep confirms ({elapsed:.2f} s)",
        )

    def test_04_truss_constraint_activity(self):
        problem = truss.example_problem()
        state = truss.solve_truss([0.00365, 0.00482], problem)
        assert abs(abs(state.displacements[1]) - 0.0508) <= 1e-4
        assert abs(state.member_stresses[1]) <= 172.369e6 * 1.001
        report(
            4,
            f"|u_y| = {abs(state.displacements[1]):.5f} m at the published "
            f"optimum; |sigma_2| = {abs(state.member_stresses[1]) / 1e6:.1f} MPa",
        )

    def test_05_weibull_point_checks(self):
        params = weibull.WeibullParams(1000.0, 4.0, 1200.0, 1.0)
        pf = weibull.failure_probability(params.sigma_th + params.sigma_u, params)
        assert abs(pf - (1.0 - math.exp(-1.0))) <= 1e-12
        field = weibull.ElementField(1.0, [2000.0], [1.0])
        assert weibull.weibull_stress(field, params) == 2000.0
        report(5, "P_f(sigma_th + sigma_u) = 1 - 1/e; single-element identity exact")

    def test_06_weibull_calibration_recovery(self):
        start = time.monotonic()
        true = weibull.WeibullParams(1000.0, 4.0, 1200.0, 1.0)
        levels = np.linspace(0.0, 400.0, 81)
        fields = [
            weibull.ElementField(J, [800.0 + 10.0 * J], [1.0]) for J in levels
        ]
        # 200 forward-generated samples at the plotting positions of the true
        # law (zero sampling noise); the pipeline itself is deterministic
        n = 200
        u = (np.arange(1, n + 1) - 0.3) / (n + 0.4)
        sw = true.sigma_th + true.sigma_u * (-np.log(1.0 - u)) ** (1.0 / true.m)
        samples = weibull.rank_samples((sw - 800.0) / 10.0)
        params, trace = weibull.fit_three_parameter(fields, samples, V0=1.0)
        assert abs(params.sigma_th - 1000.0) / 1000.0 < 0.05
        assert abs(params.m - 4.0) / 4.0 < 0.05
        assert abs(params.sigma_u - 1200.0) / 1200.0 < 0.05
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        report(
            6,
            f"recovered (sigma_th, m, sigma_u) = ({params.sigma_th:.1f}, "
            f"{params.m:.3f}, {params.sigma_u:.1f}) in {len(trace)} iterations "
            f"({elapsed:.2f} s)",
        )

    def test_07_inverse_identification(self):
        start = time.monotonic()
        target = czm.forward_model(czm.TSLParams(200.0, 60.0))
        params, history = czm.inverse_identify(
            target, ((100.0, 300.0), (20.0, 100.0))
        )
        assert abs(params.Tc - 200.0) / 200.0 < 0.02
        assert abs(params.Gamma_c - 60.0) / 60.0 < 0.02
        assert len(history) <= 10
        best = [s.incumbent_mismatch for s in history]
        assert all(b <= a + 1e-15 for a, b in zip(best, best[1:]))
        elapsed = time.monotonic() - start
        assert elapsed < 30.0
        report(
            7,
            f"recovered (Tc, Gamma_c) = ({params.Tc:.1f}, {params.Gamma_c:.1f}) "
            f"in {len(history)} outer iterations ({elapsed:.2f} s)",
        )

    def test_08_cohesive_energy_identity(self):
        delta = czm.delta_from(199.2, 61.81)
        back = czm.cohesive_energy(199.2, delta)
        assert abs(back - 61.81) / 61.81 <= 1e-12
        report(8, f"Gamma_c(199.2, {delta:.4f}) = {back} N/mm")

    def test_09_job_orchestration(self, stub_solver):
        template = "** set cohesive strength\n** TC = @TC@\n*FILE FORMAT, ASCII\n"
        deck = jobs.render_input(template, [("@TC@", "*PARAM, TC=199.2")])
        assert "*PARAM, TC=199.2" in deck
        spec = jobs.JobSpec(
            command_template=f"{sys.executable} {stub_solver.name} {{job}}",
            job_name="accjob",
            workdir=stub_solver.parent,
            initial_wait=0.3,
            poll_interval=0.05,
            timeout=5.0,
        )
        fil = jobs.run_job(spec)
        stream = filcodec.decode_stream(filcodec.fil_to_string(fil))
        table = records.extract_nodal_field(stream, 101)
        assert table.rows == [(1, (0.0, -0.0508)), (2, (0.001, -0.002))]

        hang = jobs.JobSpec(
            command_template=f"{sys.executable} {stub_solver.name} {{job}} hang",
            job_name="accjob2",
            workdir=stub_solver.parent,
            initial_wait=0.3,
            poll_interval=0.1,
            timeout=0.6,
        )
        start = time.monotonic()
        with pytest.raises(jobs.JobError, match="still present after"):
            jobs.run_job(hang)
        elapsed = time.monotonic() - start
        assert elapsed <= hang.timeout + hang.poll_interval + 0.5
        report(
            9,
            "stub-solver pipeline returned planted displacements exactly; "
            f"timeout fired after {elapsed:.2f} s",
        )

    def test_10_hazard_map_export(self, tmp_path):
        params = weibull.WeibullParams(1000.0, 4.0, 1200.0, 1.0)
        field = weibull.ElementField(1.0, [1800.0], [0.7])
        pf, log_pf = weibull.hazard_map(field, params)
        expected = weibull.failure_probability(
            weibull.weibull_stress(field, params), params
        )
        assert pf[0] == expected

        nodes = records.NodeTable(
            [(1, (0.0, 0.0)), (2, (1.0, 0.0)), (3, (1.0, 1.0)), (4, (0.0, 1.0))]
        )
        elements = records.ElementTable([(1, "CPE4", (1, 2, 3, 4))])
        path = tmp_path / "hazard.vtk"
        gridio.write_unstructured_grid(path, nodes, elements, "log10_Pf", log_pf)
        from test_gridio import parse_legacy_grid

        _, _, _, name, values = parse_legacy_grid(path.read_text())
        assert name == "log10_Pf"
        assert values == [pytest.approx(log_pf[0])]
        report(
            10,
            f"single-element hazard value {pf[0]:.6f} consistent; "
            "grid export passes the format-grammar check",
        )
