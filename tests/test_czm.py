import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RBFInterpolator
from scipy.optimize import minimize

from fempost import czm
from fempost.czm import (
    SEARCH_GRID,
    SEARCH_LEVELS,
    ForwardConfig,
    N_POINTS,
    NoConvergence,
    ResponseCurve,
    TSLParams,
    cohesive_energy,
    curve_mismatch,
    delta_from,
    forward_model,
    inverse_identify,
    load_target_csv,
    train_surrogate,
    _initial_design,
    _known_curve,
    _minimize_surrogate,
)

BOX = ((100.0, 300.0), (20.0, 100.0))


class TestCohesiveEnergy:
    def test_hand_value(self):
        assert cohesive_energy(200.0, 0.6) == pytest.approx(60.0)

    def test_zero_separation(self):
        assert cohesive_energy(150.0, 0.0) == 0.0

    def test_published_optimum_separation(self):
        assert delta_from(199.2, 61.81) == pytest.approx(0.6206, abs=1e-4)

    def test_identity(self):
        for tc, gc in [(199.2, 61.81), (50.0, 5.0), (300.0, 100.0)]:
            assert cohesive_energy(tc, delta_from(tc, gc)) == pytest.approx(gc, rel=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    def test_nan_inf_and_negative_rejected(self, value):
        with pytest.raises(ValueError, match="^Tc must be "):
            TSLParams(value, 10.0)
        with pytest.raises(ValueError, match="^Gamma_c must be "):
            TSLParams(200.0, value)
        with pytest.raises(ValueError, match="^Tc must be "):
            cohesive_energy(value, 0.5)
        with pytest.raises(ValueError, match="^delta_c must be "):
            cohesive_energy(200.0, value)
        with pytest.raises(ValueError, match="^Gamma_c must be "):
            delta_from(200.0, value)

    def test_non_positive_inputs(self):
        with pytest.raises(ValueError, match="^Tc must be positive, got -1.0$"):
            cohesive_energy(-1.0, 0.5)
        with pytest.raises(ValueError, match="^Gamma_c must be positive, got 0.0$"):
            delta_from(200.0, 0.0)
        with pytest.raises(ValueError, match="^Tc must be positive, got 0.0$"):
            TSLParams(0.0, 10.0)


class TestForwardModel:
    def test_peak_value(self):
        config = ForwardConfig()
        params = TSLParams(200.0, 60.0)
        p_pk = config.alpha * 200.0**0.8 * 60.0**0.2
        v_pk = config.beta * 60.0 / 200.0
        curve = forward_model(params, config)
        # peak CMOD falls on the sampling grid only by accident; evaluate directly
        load_at_peak = p_pk * (v_pk / v_pk) * np.exp(0.0)
        assert load_at_peak == p_pk

    def test_energy_scaling(self):
        config = ForwardConfig()
        base = TSLParams(200.0, 40.0)
        doubled = TSLParams(200.0, 80.0)
        assert (config.beta * doubled.Gamma_c / doubled.Tc) == pytest.approx(
            2.0 * config.beta * base.Gamma_c / base.Tc
        )
        p_base = config.alpha * base.Tc**0.8 * base.Gamma_c**0.2
        p_doubled = config.alpha * doubled.Tc**0.8 * doubled.Gamma_c**0.2
        assert p_doubled == pytest.approx(2.0**0.2 * p_base, rel=1e-12)

    def test_scripted_oracle(self):
        config = ForwardConfig()
        curve = forward_model(TSLParams(200.0, 60.0), config)
        v = np.linspace(config.cmod_min, config.cmod_max, N_POINTS)
        p_pk = 25.0 * 200.0**0.8 * 60.0**0.2
        v_pk = 60.0 / 200.0
        expected = p_pk * (v / v_pk) * np.exp(1.0 - v / v_pk)
        assert np.max(np.abs(curve.load - expected)) < 1e-12

    def test_deterministic(self):
        a = forward_model(TSLParams(123.4, 56.7))
        b = forward_model(TSLParams(123.4, 56.7))
        assert np.array_equal(a.load, b.load)
        assert np.array_equal(a.cmod, b.cmod)

    def test_curve_invariants(self):
        curve = forward_model(TSLParams(150.0, 30.0))
        assert curve.cmod.shape == (12,)
        assert np.all(np.diff(curve.cmod) > 0)
        assert np.all(curve.load >= 0)
        with pytest.raises(ValueError):
            ResponseCurve(cmod=curve.cmod[:5], load=curve.load[:5])


def grid_samples(n_side=4):
    samples = []
    for tc in np.linspace(*BOX[0], n_side):
        for gc in np.linspace(*BOX[1], n_side):
            p = TSLParams(float(tc), float(gc))
            samples.append((p, forward_model(p)))
    return samples


class TestSurrogate:
    def test_interpolant_exact_at_training_points(self):
        samples = grid_samples()
        model = train_surrogate(samples)
        for params, curve in samples:
            assert np.max(np.abs(model.predict(params) - curve.load)) < 1e-8
        batched = model.predict(np.array([[p.Tc, p.Gamma_c] for p, _ in samples]))
        assert batched.shape == (len(samples), N_POINTS)
        for row, (params, _) in zip(batched, samples):
            assert np.allclose(row, model.predict(params), rtol=0, atol=1e-9)

    def test_five_point_design_defined_everywhere(self):
        design = _initial_design(BOX)
        assert len(design) == 5
        samples = [(p, forward_model(p)) for p in design]
        model = train_surrogate(samples)
        rng = np.random.default_rng(6)
        for _ in range(50):
            tc = rng.uniform(*BOX[0])
            gc = rng.uniform(*BOX[1])
            pred = model.predict(TSLParams(tc, gc))
            assert np.all(np.isfinite(pred))

    def test_leave_one_out_error(self):
        samples = grid_samples(5)  # 25 samples over the box
        errors = []
        for i in range(0, len(samples), 3):
            held_params, held_curve = samples[i]
            rest = samples[:i] + samples[i + 1 :]
            model = train_surrogate(rest)
            pred = model.predict(held_params)
            errors.append(
                np.sqrt(np.mean((pred - held_curve.load) ** 2)) / held_curve.peak_load
            )
        assert np.sqrt(np.mean(np.square(errors))) < 0.05

    def test_duplicate_inputs_rejected(self):
        p = TSLParams(200.0, 60.0)
        c = forward_model(p)
        with pytest.raises(ValueError, match="^coincident surrogate training inputs$"):
            train_surrogate([(p, c), (p, c), (TSLParams(150.0, 40.0), c)])

    def test_matches_gaussian_rbf_reference(self):
        # the network solves the system RBFInterpolator builds for a Gaussian
        # kernel with epsilon 1 at its default polynomial degree (0)
        lo, hi = np.array(BOX).T
        for seed in range(50):
            rng = np.random.default_rng(seed)
            design = _initial_design(BOX) + [
                TSLParams(*rng.uniform(lo, hi)) for _ in range(rng.integers(0, 15))
            ]
            samples = [(p, forward_model(p)) for p in design]
            model = train_surrogate(samples)
            x = np.array([[p.Tc, p.Gamma_c] for p in design])
            reference = RBFInterpolator(
                (x - model.lo) / model.span, np.array([c.load for _, c in samples]),
                kernel="gaussian", epsilon=1.0,
            )
            query = rng.uniform(lo, hi, size=(200, 2))
            target = forward_model(TSLParams(*rng.uniform(lo, hi)))
            error = np.abs(model.predict(query) - reference((query - model.lo) / model.span))
            assert error.max() <= 1e-6 * target.peak_load, seed


class TestSurrogateSearch:
    """The nested grid scan behind each outer iteration's surrogate optimum."""

    def test_matches_local_descent_reference(self):
        lo, hi = np.array(BOX).T
        worst = -np.inf
        for seed in range(50):
            rng = np.random.default_rng(seed)
            design = _initial_design(BOX) + [
                TSLParams(*rng.uniform(lo, hi)) for _ in range(rng.integers(0, 6))
            ]
            model = train_surrogate([(p, forward_model(p)) for p in design])
            target = forward_model(TSLParams(*rng.uniform(lo, hi)))

            def mismatch(x):
                return curve_mismatch(model.predict(x), target)

            tc, gc = np.meshgrid(*np.linspace(lo, hi, SEARCH_GRID).T)
            grid = np.column_stack([tc.ravel(), gc.ravel()])
            start = grid[np.argmin([curve_mismatch(y, target) for y in model.predict(grid)])]
            reference = minimize(mismatch, start, method="L-BFGS-B", bounds=BOX)
            found = _minimize_surrogate(model, target, BOX)
            worst = max(worst, mismatch((found.Tc, found.Gamma_c)) - reference.fun)
        assert worst <= 1e-3

    @pytest.mark.parametrize(
        "true, edge",
        [
            ((350.0, 60.0), {"Tc": 300.0}),
            ((80.0, 60.0), {"Tc": 100.0}),
            ((200.0, 110.0), {"Gamma_c": 100.0}),
            ((200.0, 10.0), {"Gamma_c": 20.0}),
            ((400.0, 130.0), {"Tc": 300.0, "Gamma_c": 100.0}),
        ],
    )
    def test_best_fit_on_box_edge(self, true, edge):
        model = train_surrogate(grid_samples())
        found = _minimize_surrogate(model, forward_model(TSLParams(*true)), BOX)
        assert BOX[0][0] <= found.Tc <= BOX[0][1]
        assert BOX[1][0] <= found.Gamma_c <= BOX[1][1]
        for name, value in edge.items():
            assert getattr(found, name) == value

    @pytest.mark.parametrize("extra", [5, 15])
    def test_scan_map_matches_predict(self, extra, monkeypatch):
        # at every level the separable map equals the mean squared error of
        # model.predict on the level's full meshgrid, with the same argmin;
        # up to 15 extra training points give weights up to 7e8
        scans = []

        def recording_map(model, target, tc, gc):
            sq_error = mismatch_map(model, target, tc, gc)
            scans.append((tc, gc, sq_error))
            return sq_error

        mismatch_map = czm._mismatch_map
        monkeypatch.setattr(czm, "_mismatch_map", recording_map)
        lo, hi = np.array(BOX).T
        for seed in range(20):
            rng = np.random.default_rng(seed)
            design = _initial_design(BOX) + [
                TSLParams(*rng.uniform(lo, hi)) for _ in range(rng.integers(0, extra + 1))
            ]
            model = train_surrogate([(p, forward_model(p)) for p in design])
            target = forward_model(TSLParams(*rng.uniform(lo, hi)))
            scans.clear()
            found = _minimize_surrogate(model, target, BOX)
            assert len(scans) == SEARCH_LEVELS
            for tc, gc, sq_error in scans:
                grid = np.column_stack([m.ravel() for m in np.meshgrid(tc, gc)])
                reference = np.mean((model.predict(grid) - target.load) ** 2, axis=1)
                assert sq_error.shape == (SEARCH_GRID, SEARCH_GRID)
                np.testing.assert_allclose(
                    sq_error.ravel(), reference, rtol=0, atol=1e-9 * target.peak_load**2
                )
                assert np.argmin(sq_error) == np.argmin(reference), seed
            assert (found.Tc, found.Gamma_c) == tuple(grid[np.argmin(reference)])


class TestInverseIdentify:
    @pytest.mark.parametrize("corner", range(4))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_bad_box_value_rejected_before_forward(self, corner, value):
        calls = []
        box = [100.0, 300.0, 20.0, 100.0]
        box[corner] = value
        target = forward_model(TSLParams(200.0, 60.0))
        name = "Tc" if corner < 2 else "Gamma_c"
        with pytest.raises(ValueError, match=f"^{name} must be "):
            inverse_identify(target, (box[:2], box[2:]), forward=lambda p, c: calls.append(p))
        assert calls == []

    @pytest.mark.parametrize("box", [((300.0, 100.0), (20.0, 100.0)), ((100.0, 300.0), (50.0, 50.0))])
    def test_box_bounds_must_increase(self, box):
        target = forward_model(TSLParams(200.0, 60.0))
        with pytest.raises(ValueError, match="box bounds must increase"):
            inverse_identify(target, box, forward=pytest.fail)

    @pytest.mark.parametrize(
        "budget",
        [
            {"tol": np.nan}, {"tol": -0.01}, {"max_outer": 0}, {"max_outer": -3},
            {"max_outer": 2.5}, {"max_outer": True},
        ],
        ids=[
            "tol-nan", "tol-negative", "budget-zero", "budget-negative",
            "budget-fraction", "budget-bool",
        ],
    )
    def test_bad_tol_or_budget_rejected_before_forward(self, budget):
        target = forward_model(TSLParams(200.0, 60.0))
        with pytest.raises(ValueError, match="tol|max_outer"):
            inverse_identify(target, BOX, forward=pytest.fail, **budget)

    def test_self_consistent_recovery(self):
        target = forward_model(TSLParams(200.0, 60.0))
        params, history = inverse_identify(target, BOX)
        assert params.Tc == pytest.approx(200.0, rel=0.02)
        assert params.Gamma_c == pytest.approx(60.0, rel=0.02)
        assert len(history) <= 10

    def test_initial_sample_target_returns_immediately(self):
        # box center is an initial design point: exact hit at iteration 1
        target = forward_model(TSLParams(200.0, 60.0))
        _, history = inverse_identify(target, BOX)
        assert len(history) == 1
        assert history[0].incumbent_mismatch == pytest.approx(0.0, abs=1e-12)

    def test_off_design_target(self):
        true = TSLParams(237.0, 47.0)
        target = forward_model(true)
        params, history = inverse_identify(target, BOX, tol=0.005, max_outer=15)
        assert params.Tc == pytest.approx(true.Tc, rel=0.02)
        assert params.Gamma_c == pytest.approx(true.Gamma_c, rel=0.02)
        best = [s.incumbent_mismatch for s in history]
        assert all(b <= a + 1e-15 for a, b in zip(best, best[1:]))

    def test_unreachable_target_reported(self):
        base = forward_model(TSLParams(200.0, 60.0))
        impossible = ResponseCurve(cmod=base.cmod, load=base.load * 3.0)
        evaluated = []

        def recording_forward(params, config):
            evaluated.append((params.Tc, params.Gamma_c))
            return forward_model(params, config)

        with pytest.raises(NoConvergence, match="stalled"):
            inverse_identify(impossible, BOX, forward=recording_forward, max_outer=12)
        # a re-proposed known point is moved or reused, never re-run
        assert len(set(evaluated)) == len(evaluated)

    def test_training_set_growth(self):
        true = TSLParams(237.0, 47.0)
        target = forward_model(true)
        calls = {"n": 0}

        def counting_forward(params, config):
            calls["n"] += 1
            return forward_model(params, config)

        _, history = inverse_identify(
            target, BOX, forward=counting_forward, tol=0.005, max_outer=15
        )
        # 5 initial evaluations plus one verification per outer iteration
        assert calls["n"] == 5 + len(history)

    def test_mismatch_norm_definition(self):
        target = forward_model(TSLParams(200.0, 60.0))
        assert curve_mismatch(target.load, target) == 0.0
        shifted = target.load + 0.1 * target.peak_load
        assert curve_mismatch(shifted, target) == pytest.approx(0.1, rel=1e-12)


def known_curve_reference(samples, params):
    """The per-training-point np.allclose loop that _known_curve replaced."""
    for p, curve in samples:
        if np.allclose([params.Tc, params.Gamma_c], [p.Tc, p.Gamma_c]):
            return curve
    return None


def train_surrogate_reference(samples):
    """train_surrogate behind the np.unique(axis=0) duplicate test it replaced."""
    x = np.array([[p.Tc, p.Gamma_c] for p, _ in samples])
    if len(x) >= 3 and np.unique(x, axis=0).shape[0] != len(x):
        raise ValueError("coincident surrogate training inputs")
    return train_surrogate(samples)


def nudged(value, ulps):
    return float(value + ulps * np.spacing(value))


@st.composite
def boundary_coordinate(draw, query):
    """A training coordinate equal to *query*, far from it, or within a few
    ulps of either edge of np.isclose's tolerance atol + rtol * |training|."""
    kind = draw(st.sampled_from(["equal", "below", "above", "far"]))
    if kind == "equal":
        return query
    if kind == "far":
        return query * draw(st.sampled_from([0.5, 0.999, 1.001, 2.0]))
    # solve query - b = +-(1e-8 + 1e-5 * b) for the training value b
    edge = (query - 1e-8) / (1 + 1e-5) if kind == "below" else (query + 1e-8) / (1 - 1e-5)
    return nudged(edge, draw(st.integers(-3, 3)))


@st.composite
def boundary_samples(draw):
    query = TSLParams(draw(st.floats(100.0, 300.0)), draw(st.floats(20.0, 100.0)))
    samples = [
        (
            TSLParams(
                draw(boundary_coordinate(query.Tc)), draw(boundary_coordinate(query.Gamma_c))
            ),
            object(),
        )
        for _ in range(draw(st.integers(1, 8)))
    ]
    return samples, query


def seeded_targets(seed, count):
    """Off-design targets 15% inside BOX with peak CMOD Gamma_c / Tc <= 0.45."""
    rng = np.random.default_rng(seed)
    targets = []
    while len(targets) < count:
        tc, gc = rng.uniform(130.0, 270.0), rng.uniform(32.0, 88.0)
        if gc / tc <= 0.45:
            targets.append(TSLParams(float(tc), float(gc)))
    return targets


class TestBookkeepingReferences:
    """The known-point and duplicate tests agree with the code they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(boundary_samples())
    def test_known_curve_matches_allclose_loop(self, case):
        samples, query = case
        assert _known_curve(samples, query) is known_curve_reference(samples, query)

    def test_known_curve_boundary_both_sides(self):
        # up to four ulps either side of Tc's tolerance edge
        train = TSLParams(200.0, 60.0)
        edge = 200.0 + (1e-8 + 1e-5 * 200.0)
        curve = object()
        for ulps in range(-4, 5):
            query = TSLParams(nudged(edge, ulps), 60.0)
            expected = known_curve_reference([(train, curve)], query)
            assert _known_curve([(train, curve)], query) is expected
        assert _known_curve([(train, curve)], TSLParams(nudged(edge, -4), 60.0)) is curve
        assert _known_curve([(train, curve)], TSLParams(nudged(edge, 4), 60.0)) is None

    def test_known_curve_returns_first_hit(self):
        first, second = object(), object()
        samples = [(TSLParams(100.0, 20.0), object()), (TSLParams(200.0, 60.0), first),
                   (TSLParams(200.0 * (1 + 1e-7), 60.0), second)]
        assert _known_curve(samples, TSLParams(200.0, 60.0)) is first

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from([100.0, 150.5, 300.0]), st.sampled_from([20.0, 47.25, 100.0])),
            min_size=3,
            max_size=9,
        )
    )
    def test_duplicate_check_matches_unique(self, points):
        curve = forward_model(TSLParams(200.0, 60.0))
        samples = [(TSLParams(*p), curve) for p in points]
        if np.unique(np.array(points), axis=0).shape[0] != len(points):
            with pytest.raises(ValueError, match="^coincident surrogate training inputs$"):
                train_surrogate(samples)
        else:
            assert train_surrogate(samples).centres.shape == (len(points), 2)

    def test_identification_bit_identical_to_references(self, monkeypatch):
        base = forward_model(TSLParams(200.0, 60.0))
        # 20 off-design targets, and two unreachable ones that re-propose
        # known points (the allclose hit path)
        targets = [forward_model(t) for t in seeded_targets(20261019, 20)] + [
            ResponseCurve(cmod=base.cmod, load=base.load * f) for f in (3.0, 0.2)
        ]

        def identify_all():
            runs = []
            for target in targets:
                calls = []

                def forward(params, config):
                    calls.append(params)
                    return forward_model(params, config)

                try:
                    result = inverse_identify(target, BOX, forward=forward, tol=0.005, max_outer=15)
                except NoConvergence as exc:
                    result = (type(exc), str(exc))
                runs.append((result, calls))
            return runs

        fast = identify_all()
        monkeypatch.setattr(czm, "_known_curve", known_curve_reference)
        monkeypatch.setattr(czm, "train_surrogate", train_surrogate_reference)
        assert identify_all() == fast
        assert sum(isinstance(result[0], TSLParams) for result, _ in fast) == 20


class TestTargetIngestion:
    def test_resampling(self, tmp_path):
        config = ForwardConfig()
        curve = forward_model(TSLParams(200.0, 60.0), config)
        path = tmp_path / "target.csv"
        # write a denser, shifted sampling of the same underlying curve
        v = np.linspace(config.cmod_min, config.cmod_max, 101)
        p_pk = 25.0 * 200.0**0.8 * 60.0**0.2
        v_pk = 60.0 / 200.0
        load = p_pk * (v / v_pk) * np.exp(1.0 - v / v_pk)
        lines = ["cmod,load"] + [f"{a},{b}" for a, b in zip(v, load)]
        path.write_text("\n".join(lines) + "\n")
        resampled = load_target_csv(path, config)
        assert np.max(np.abs(resampled.load - curve.load)) / curve.peak_load < 1e-3

    @pytest.mark.parametrize(
        "cmod", [[0.2, 0.3], np.linspace(0.05, 0.45, 81)], ids=["two-rows", "stops-at-0.45"]
    )
    def test_target_must_cover_window(self, tmp_path, cmod):
        # np.interp would hold the end values flat over the rest of the window
        v = np.asarray(cmod)
        load = 25.0 * 200.0**0.8 * 60.0**0.2 * (v / 0.3) * np.exp(1.0 - v / 0.3)
        path = tmp_path / "target.csv"
        self.write_curve(path, zip(v, load))
        with pytest.raises(ValueError, match=re.escape(
            f"target CMOD range [{v[0]}, {v[-1]}] does not cover the model window [0.05, 0.6]"
        )):
            load_target_csv(path)

    @pytest.mark.parametrize("row", ["0.1", "0.1,5.0,7.0"])
    def test_wrong_column_count_rejected(self, tmp_path, row):
        path = tmp_path / "target.csv"
        path.write_text(f"cmod,load\n{row}\n")
        with pytest.raises(ValueError):
            load_target_csv(path)

    def write_curve(self, path, rows):
        path.write_text("cmod,load\n" + "".join(f"{float(v)!r},{float(p)!r}\n" for v, p in rows))

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_value_rejected(self, tmp_path, cell, column):
        curve = forward_model(TSLParams(200.0, 60.0))
        rows = [list(r) for r in zip(curve.cmod, curve.load)]
        rows[5][column] = float(cell)
        path = tmp_path / "target.csv"
        self.write_curve(path, rows)
        with pytest.raises(ValueError, match="finite"):
            load_target_csv(path)

    @pytest.mark.parametrize("column", ["cmod", "load"])
    def test_non_finite_curve_rejected(self, column):
        curve = forward_model(TSLParams(200.0, 60.0))
        values = {"cmod": curve.cmod.copy(), "load": curve.load.copy()}
        values[column][-1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ResponseCurve(**values)

    def test_repeated_cmod_rejected(self, tmp_path):
        curve = forward_model(TSLParams(200.0, 60.0))
        rows = list(zip(curve.cmod, curve.load))
        rows.append((curve.cmod[3], 5.0 * curve.load[3]))
        path = tmp_path / "target.csv"
        self.write_curve(path, rows)
        with pytest.raises(ValueError, match=re.escape(f"CMOD value {float(curve.cmod[3])!r} repeated")):
            load_target_csv(path)
