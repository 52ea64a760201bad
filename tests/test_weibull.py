import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from fempost import weibull
from fempost.weibull import (
    ElementField,
    FailureSample,
    WeibullParams,
    empirical_cdf,
    failure_probability,
    fit_three_parameter,
    hazard_map,
    load_element_fields_csv,
    max_principal_stress,
    rank_samples,
    weibull_stress,
)
from fempost.weibull import _cdf_terms, _fit_cdf


def quantile_samples(true: WeibullParams, n: int):
    """Failure loads whose sigma_w values sit exactly at the plotting
    positions of the true distribution (zero sampling noise)."""
    u = (np.arange(1, n + 1) - 0.3) / (n + 0.4)
    sw = true.sigma_th + true.sigma_u * (-np.log(1 - u)) ** (1.0 / true.m)
    return rank_samples((sw - 800.0) / 10.0)


def least_squares_fit(sw, pf_emp, start, bounds):
    """Reference inner fit: scipy's bounded trust-region solver at tight
    tolerances, with a closed interval's parameter held at its value."""
    lower, upper = np.array(bounds, dtype=float).T
    x = np.clip(np.asarray(start, dtype=float), lower, upper)
    free = lower < upper

    def full(x_free):
        params = x.copy()
        params[free] = x_free
        return params

    def residual(x_free):
        sigma_th, m, sigma_u = full(x_free)
        return 1.0 - np.exp(-((np.maximum(sw - sigma_th, 0.0) / sigma_u) ** m)) - pf_emp

    result = least_squares(
        residual, x[free], jac=lambda x_free: _cdf_terms(full(x_free), sw, pf_emp)[1][:, free],
        bounds=(lower[free], upper[free]), xtol=1e-15, ftol=1e-15, gtol=1e-15,
    )
    return full(result.x)


def linear_fields(lo=0.0, hi=400.0, n=81):
    """Single-element fields with sigma1 = 800 + 10 J, so sigma_w(J) is the
    same affine function for any threshold below it."""
    return [
        ElementField(J, [800.0 + 10.0 * J], [1.0])
        for J in np.linspace(lo, hi, n)
    ]


class TestParams:
    @pytest.mark.parametrize("name", ["sigma_th", "m", "sigma_u", "V0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_values_rejected(self, name, value):
        fields = dict(sigma_th=1000.0, m=4.0, sigma_u=1200.0, V0=1.0)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            WeibullParams(**{**fields, name: value})

    def test_only_threshold_may_be_zero(self):
        assert WeibullParams(0.0, 4.0, 1200.0).sigma_th == 0.0
        with pytest.raises(ValueError, match="^m must be positive, got 0.0"):
            WeibullParams(1000.0, 0.0, 1200.0)


class TestMaxPrincipalStress:
    def test_diagonal(self):
        assert max_principal_stress([3.0, 2.0, 1.0, 0.0]) == pytest.approx(3.0)

    def test_pure_shear(self):
        assert max_principal_stress([0.0, 0.0, 0.0, 5.0]) == pytest.approx(5.0)

    def test_six_components(self):
        assert max_principal_stress([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_bad_component_count(self):
        with pytest.raises(ValueError):
            max_principal_stress([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("shape", [(), (7, 5), (2, 3, 5)])
    def test_bad_batch_shape(self, shape):
        with pytest.raises(ValueError):
            max_principal_stress(np.ones(shape))

    @pytest.mark.parametrize("ncomp", [4, 6])
    def test_batch_equals_rows(self, ncomp):
        rows = np.random.default_rng(ncomp).normal(scale=100.0, size=(60, ncomp))
        expected = [max_principal_stress(tuple(r)) for r in rows.tolist()]
        assert all(type(v) is float for v in expected)
        batch = max_principal_stress(rows)
        assert batch.shape == (60,)
        assert batch.tolist() == expected
        stacked = max_principal_stress(rows.reshape(3, 20, ncomp))
        assert stacked.tolist() == np.reshape(expected, (3, 20)).tolist()

    def test_against_characteristic_polynomial(self):
        # oracle: roots of det(S - lambda I) = 0 via numpy.roots
        rng = np.random.default_rng(99)
        for _ in range(500):
            s11, s22, s33, s12, s13, s23 = rng.normal(scale=100.0, size=6)
            i1 = s11 + s22 + s33
            i2 = (
                s11 * s22 + s22 * s33 + s11 * s33
                - s12**2 - s13**2 - s23**2
            )
            i3 = (
                s11 * s22 * s33
                + 2 * s12 * s13 * s23
                - s11 * s23**2 - s22 * s13**2 - s33 * s12**2
            )
            roots = np.roots([1.0, -i1, i2, -i3])
            expected = float(np.max(roots.real))
            got = max_principal_stress([s11, s22, s33, s12, s13, s23])
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-8)


def tensors_with_eigenvalues(rng, eigenvalues):
    """(n, 6) component rows of Q diag(eigenvalues) Q' for random rotations Q."""
    q, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues), 3, 3)))
    a = q @ (eigenvalues[:, :, None] * np.swapaxes(q, 1, 2))
    return a[:, [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]]


TENSOR_FAMILIES = (
    "random",
    "repeated largest",
    "near-repeated largest",
    "repeated smallest",
    "near-isotropic",
    "4 components",
    "1e-300 scale",
    "1e300 scale",
)


def tensor_family(name, n=2000):
    """Seeded adversarial (n, 6) tensors for the closed-form sigma1 kernel."""
    rng = np.random.default_rng(TENSOR_FAMILIES.index(name))
    if name == "random":
        return rng.normal(scale=100.0, size=(n, 6))
    if name == "4 components":
        return np.pad(rng.normal(scale=100.0, size=(n, 4)), ((0, 0), (0, 2)))
    if name.endswith(" scale"):
        return rng.normal(size=(n, 6)) * float(name.split()[0])
    lam = rng.normal(scale=100.0, size=(n, 3))
    gap = np.abs(rng.normal(scale=100.0, size=n))
    if name == "repeated largest":
        lam[:, 1], lam[:, 2] = lam[:, 0], lam[:, 0] - gap
    elif name == "near-repeated largest":
        lam[:, 1] = lam[:, 0] - np.abs(lam[:, 0]) * 10.0 ** rng.uniform(-14, -1, n)
        lam[:, 2] = lam[:, 0] - gap
    elif name == "repeated smallest":
        lam[:, 1], lam[:, 2] = lam[:, 0], lam[:, 0] + gap
    else:  # near-isotropic
        lam = lam[:, :1] + rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-14, 0, (n, 1))
    return tensors_with_eigenvalues(rng, lam)


def assert_close_to_eigvalsh(rows, sigma1):
    """|sigma1 - eigvalsh| <= 1e-13 max|component| for (..., 6) rows."""
    reference = np.linalg.eigvalsh(rows.take(weibull._TENSOR_INDEX, axis=-1))[..., -1]
    assert np.all(np.abs(sigma1 - reference) <= 1e-13 * np.abs(rows).max(axis=-1))


def assert_within_exact(components, sigma1):
    """|sigma1 - largest eigenvalue| <= 1e-13 max|component|, decided in exact
    rational arithmetic on the characteristic polynomial f(x) = det(xI - A)
    = x**3 - i1 x**2 + i2 x - i3.  Its roots are real, so every root is at
    most x exactly when f, f' and f'' are all >= 0 at x."""
    s11, s22, s33, s12, s13, s23 = map(Fraction, components)
    i1 = s11 + s22 + s33
    i2 = s11 * s22 + s22 * s33 + s11 * s33 - s12 * s12 - s13 * s13 - s23 * s23
    i3 = (
        s11 * s22 * s33 + 2 * s12 * s13 * s23
        - s11 * s23 * s23 - s22 * s13 * s13 - s33 * s12 * s12
    )

    def f(x):
        return ((x - i1) * x + i2) * x - i3

    def roots_at_most(x):
        return f(x) >= 0 and (3 * x - 2 * i1) * x + i2 >= 0 and 6 * x - 2 * i1 >= 0

    delta = Fraction(1e-13) * max(map(abs, (s11, s22, s33, s12, s13, s23)))
    hi, lo = Fraction(sigma1) + delta, Fraction(sigma1) - delta
    assert roots_at_most(hi), "an eigenvalue lies above sigma1 + delta"
    assert not (roots_at_most(lo) and f(lo) > 0), "every eigenvalue lies below sigma1 - delta"


finite_components = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


class TestMaxPrincipalClosedForm:
    """The closed-form kernel against LAPACK, and the single-tensor path
    against the batch path."""

    @pytest.mark.parametrize("family", TENSOR_FAMILIES)
    def test_family_matches_eigvalsh(self, family):
        rows = tensor_family(family)
        ncomp = 4 if family == "4 components" else 6
        batch = max_principal_stress(rows[:, :ncomp])
        assert_close_to_eigvalsh(rows, batch)
        single = [max_principal_stress(tuple(r)) for r in rows[:, :ncomp].tolist()]
        assert all(type(v) is float for v in single)
        assert batch.tolist() == single

    def test_mixed_batch_equals_rows(self, monkeypatch):
        # fallback rows (a repeated largest eigenvalue) interleaved with
        # closed-form rows
        rows = np.empty((400, 6))
        rows[0::2] = tensor_family("repeated largest", 200)
        rows[1::2] = tensor_family("random", 200)
        handed_over = []
        eigvalsh_max = weibull._eigvalsh_max

        def spy(c6):
            handed_over.append(len(c6))
            return eigvalsh_max(c6)

        monkeypatch.setattr(weibull, "_eigvalsh_max", spy)
        batch = max_principal_stress(rows)
        assert len(handed_over) == 1 and 0 < handed_over[0] < 400
        single = [max_principal_stress(tuple(r)) for r in rows.tolist()]
        assert batch.tolist() == single
        assert_close_to_eigvalsh(rows, batch)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([4, 6]).flatmap(lambda n: st.lists(finite_components, min_size=n, max_size=n)))
    def test_property_exact_bound_and_batch(self, components):
        # the exact reference, not eigvalsh: on [0, 0, 4.96e159, 4.96e159,
        # -5788, 1.23e221] eigvalsh itself is off by 1.9e-13 max|component|
        sigma1 = max_principal_stress(components)
        assert type(sigma1) is float
        assert_within_exact(components + [0.0] * (6 - len(components)), sigma1)
        assert max_principal_stress(np.array([components] * 2)).tolist() == [sigma1] * 2

    @pytest.mark.parametrize("components", [(2.0, 2.0, 1.0, 0.0, 0.0, 0.0), (2.0, 2.0, 1.0, 0.0)])
    def test_repeated_largest_reproducer(self, components):
        # acos(r) at r = -1 printed 2.0000000040555825 for diag(2, 2, 1)
        assert max_principal_stress(components) == 2.0
        assert max_principal_stress(np.array([components])).tolist() == [2.0]

    @pytest.mark.parametrize(
        "components, expected",
        [
            ((0.0,) * 6, 0.0),
            ((0.0,) * 4, 0.0),
            ((3.5, 3.5, 3.5, 0.0, 0.0, 0.0), 3.5),
            ((-1e-310, -1e-310, -1e-310, 0.0), -1e-310),
        ],
    )
    def test_zero_and_isotropic(self, components, expected):
        assert max_principal_stress(components) == expected
        assert max_principal_stress(np.array([components])).tolist() == [expected]

    def test_numpy_scalars_and_ints(self):
        floats = (101.25, -33.0, 45.5, 12.0, -7.5, 3.25)
        expected = max_principal_stress(floats)
        assert max_principal_stress(tuple(map(np.float64, floats))) == expected
        assert max_principal_stress([3, 2, 1, 0]) == max_principal_stress([3.0, 2.0, 1.0, 0.0])
        assert type(max_principal_stress(np.array(floats))) is float

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 3, 5])
    def test_non_finite_raises(self, bad, position):
        components = [1.0, 2.0, 3.0, 0.5, 0.25, 0.125]
        components[position] = bad
        with pytest.raises(ValueError, match="must be finite"):
            max_principal_stress(components)
        if position < 4:
            with pytest.raises(ValueError, match="must be finite"):
                max_principal_stress(tuple(components[:4]))
        rows = np.ones((5, 6))
        rows[3:, position] = bad
        with pytest.raises(ValueError, match=r"must be finite, got .* in row 3$"):
            max_principal_stress(rows)
        grid = np.ones((2, 3, 6))
        grid[1, 1:, position] = bad
        with pytest.raises(ValueError, match=r"in row \(1, 1\)$"):
            max_principal_stress(grid)


class TestWeibullStress:
    params = WeibullParams(1000.0, 2.0, 1200.0, 1.0)

    def test_single_element_identity(self):
        field = ElementField(1.0, [2000.0], [1.0])
        assert weibull_stress(field, self.params) == 2000.0

    def test_two_equal_elements(self):
        field = ElementField(1.0, [2000.0, 2000.0], [1.0, 1.0])
        assert weibull_stress(field, self.params) == pytest.approx(
            1000.0 + 1000.0 * math.sqrt(2.0)
        )

    def test_all_below_threshold(self):
        field = ElementField(1.0, [900.0, 500.0], [1.0, 1.0])
        assert weibull_stress(field, self.params) == self.params.sigma_th

    def test_monotone_in_stress_and_volume(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            sigma1 = rng.uniform(500.0, 3000.0, size=5)
            volume = rng.uniform(0.1, 2.0, size=5)
            base = weibull_stress(ElementField(1.0, sigma1, volume), self.params)
            i = rng.integers(5)
            up_s = sigma1.copy()
            up_s[i] += 100.0
            up_v = volume.copy()
            up_v[i] *= 2.0
            assert weibull_stress(ElementField(1.0, up_s, volume), self.params) >= base
            assert weibull_stress(ElementField(1.0, sigma1, up_v), self.params) >= base

    def test_translation_homogeneity(self):
        # sigma1 = sigma_th + c*w: the excess over threshold scales linearly in c
        rng = np.random.default_rng(2)
        w = rng.uniform(0.1, 1.0, size=8)
        v = rng.uniform(0.5, 1.5, size=8)
        p = WeibullParams(1000.0, 3.0, 1.0, 1.0)
        base = weibull_stress(ElementField(1.0, 1000.0 + 100.0 * w, v), p) - 1000.0
        for c in (2.0, 5.0):
            scaled = weibull_stress(ElementField(1.0, 1000.0 + c * 100.0 * w, v), p) - 1000.0
            assert scaled == pytest.approx(c * base, rel=1e-12)


class TestFailureProbability:
    params = WeibullParams(1000.0, 4.0, 1200.0, 1.0)

    def test_at_threshold(self):
        assert failure_probability(1000.0, self.params) == 0.0

    def test_one_scale_above_threshold(self):
        got = failure_probability(2200.0, self.params)
        assert got == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_monotone_to_one(self):
        sw = np.linspace(1000.0, 50000.0, 200)
        pf = failure_probability(sw, self.params)
        assert np.all(np.diff(pf) >= 0)
        assert pf[-1] == pytest.approx(1.0)

    def test_below_threshold_raises(self):
        with pytest.raises(ValueError, match="^sigma_w below the threshold stress$"):
            failure_probability(999.0, self.params)

    @pytest.mark.parametrize(
        "sigma_w", [2200.0, np.float64(2200.0), np.array(2200.0)], ids=["float", "float64", "0-d"]
    )
    def test_scalar_gives_float(self, sigma_w):
        got = failure_probability(sigma_w, self.params)
        assert type(got) is float
        assert got == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_one_element_array_stays_array(self):
        got = failure_probability(np.array([2200.0]), self.params)
        assert isinstance(got, np.ndarray) and got.shape == (1,)

    @staticmethod
    def exact(sigma_w, params) -> Decimal:
        """1 - exp(-z**m) of the given doubles, to 50 significant digits."""
        with localcontext() as ctx:
            ctx.prec = 60
            z = (Decimal(sigma_w) - Decimal(params.sigma_th)) / Decimal(params.sigma_u)
            power = (Decimal(params.m) * z.ln()).exp()
            ctx.prec = 60 + max(0, -power.adjusted())  # keep 50 digits of 1 - exp
            return 1 - (-power).exp()

    @pytest.mark.parametrize("sigma_w, pf", [(0.03, "5.9049e-16"), (0.01, "1e-20")])
    def test_small_probability_keeps_its_digits(self, sigma_w, pf):
        params = WeibullParams(0.0, 10.0, 1.0, 1.0)
        exact = self.exact(sigma_w, params)
        assert float(exact) == pytest.approx(float(pf), rel=1e-14)
        got = failure_probability(sigma_w, params)
        assert abs(Decimal(got) - exact) <= exact * Decimal(14 * 2.0**-52)

    def test_relative_error_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(400):
            m = rng.uniform(0.5, 50.0)
            power = 10.0 ** rng.uniform(-300.0, math.log10(700.0))  # z**m
            sigma_th = rng.choice([0.0, rng.uniform(0.0, 1e3)])
            params = WeibullParams(sigma_th, m, 10.0 ** rng.uniform(-3.0, 12.0), 1.0)
            sigma_w = params.sigma_th + power ** (1.0 / m) * params.sigma_u
            exact = self.exact(sigma_w, params)
            got = failure_probability(sigma_w, params)
            assert abs(Decimal(got) - exact) <= exact * Decimal((m + 4) * 2.0**-52), (sigma_w, params)


class TestEmpiricalCdf:
    def test_single_sample(self):
        assert empirical_cdf(1, 1) == pytest.approx(0.5)

    def test_last_of_ten(self):
        assert empirical_cdf(10, 10) == pytest.approx(9.7 / 10.4)

    def test_strictly_increasing_inside_unit_interval(self):
        values = [empirical_cdf(j, 20) for j in range(1, 21)]
        assert all(0.0 < v < 1.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match=r"^rank 0 outside 1\.\.5$"):
            empirical_cdf(0, 5)
        with pytest.raises(ValueError, match=r"^rank 6 outside 1\.\.5$"):
            empirical_cdf(6, 5)
        with pytest.raises(ValueError, match=r"^rank 7 outside 1\.\.6$"):
            FailureSample(1.0, 7, 6)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_load_level(self, bad):
        with pytest.raises(ValueError, match="load level"):
            ElementField(bad, [1500.0], [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_sigma1(self, bad):
        with pytest.raises(ValueError, match="sigma1"):
            ElementField(1.0, [1500.0, bad], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_volume(self, bad):
        with pytest.raises(ValueError, match="volumes"):
            ElementField(1.0, [1500.0, 1600.0], [1.0, bad])

    def test_overflowing_sigma1_names_element(self):
        # finite components whose largest eigenvalue exceeds the double range
        huge = max_principal_stress([1.7e308] * 6)
        assert huge == math.inf
        sigma1 = [1500.0, 1600.0, huge, max_principal_stress(np.full((1, 6), 1.7e308))[0]]
        with pytest.raises(
            ValueError,
            match=r"^all element sigma1 values must be finite, got inf at element index 2$",
        ):
            ElementField(1.0, sigma1, [1.0] * 4)

    def test_bad_volume_names_element(self):
        with pytest.raises(
            ValueError,
            match=r"^all element volumes must be positive and finite, "
            r"got -0\.0 at element index 1$",
        ):
            ElementField(1.0, [1500.0, 1600.0, 1700.0], [1.0, -0.0, math.nan])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_failure_sample(self, bad):
        with pytest.raises(ValueError, match="failure load") as err:
            FailureSample(bad, 1, 1)
        assert "outside 1.." not in str(err.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rank_samples(self, bad):
        with pytest.raises(ValueError, match="failure load") as err:
            rank_samples([10.0, bad, 20.0, 30.0])
        assert "fewer distinct" not in str(err.value)
        assert "empty sigma_u interval" not in str(err.value)


class TestFit:
    def test_recovers_true_parameters(self):
        true = WeibullParams(1000.0, 4.0, 1200.0, 1.0)
        params, trace = fit_three_parameter(
            linear_fields(), quantile_samples(true, 200), V0=1.0
        )
        assert params.sigma_th == pytest.approx(1000.0, rel=1e-6)
        assert params.m == pytest.approx(4.0, rel=1e-6)
        assert params.sigma_u == pytest.approx(1200.0, rel=1e-6)
        assert len(trace) >= 1
        assert type(params.m) is float
        assert all(type(v) is float for v in (params.sigma_th, params.sigma_u, *trace[-1]))

    def test_zero_threshold_case(self):
        true = WeibullParams(0.0, 4.0, 1200.0, 1.0)
        u = (np.arange(1, 201) - 0.3) / 200.4
        sw = true.sigma_u * (-np.log(1 - u)) ** (1.0 / true.m)
        fields = [ElementField(J, [10.0 * J], [1.0]) for J in np.linspace(0, 400, 81)]
        params, _ = fit_three_parameter(fields, rank_samples(sw / 10.0), V0=1.0)
        assert params.m == pytest.approx(4.0, rel=0.05)
        assert params.sigma_u == pytest.approx(1200.0, rel=0.05)

    def test_failure_at_zero_stress(self):
        # a failure at zero Weibull stress closes the threshold's interval
        # [0, min sigma_w]; the fit then keeps sigma_th at 0
        u = (np.arange(1, 201) - 0.3) / 200.4
        sw = 1200.0 * (-np.log(1 - u)) ** 0.25
        sw[0] = 0.0
        fields = [ElementField(J, [10.0 * J], [1.0]) for J in np.linspace(0, 400, 81)]
        params, _ = fit_three_parameter(fields, rank_samples(sw / 10.0), V0=1.0)
        assert params.sigma_th == 0.0
        assert params.m == pytest.approx(4.0, rel=0.05)
        assert params.sigma_u == pytest.approx(1200.0, rel=0.05)

    def test_large_threshold_recovered(self):
        # sigma_th / sigma_u = 7.5: a start at sigma_u = std(sigma_w) put z near
        # 30, where F = 1 and the Jacobian vanish, and the fit returned its start
        true = WeibullParams(1500.0, 4.0, 200.0)
        u = (np.arange(1, 51) - 0.3) / 50.4
        sw = true.sigma_th + true.sigma_u * (-np.log(1 - u)) ** (1.0 / true.m)
        fields = [ElementField(J, [10.0 * J], [1.0]) for J in np.linspace(0, 400, 81)]
        params, _ = fit_three_parameter(fields, rank_samples(sw / 10.0))
        assert params.sigma_th == pytest.approx(1500.0, rel=1e-6)
        assert params.m == pytest.approx(4.0, rel=1e-6)
        assert params.sigma_u == pytest.approx(200.0, rel=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(ratio=st.floats(0.0, 10.0), m=st.floats(2.0, 20.0))
    def test_fits_any_threshold_ratio(self, ratio, m):
        # exact median-rank data of (ratio * 200, m, 200); the fields span the
        # failure loads, so the interpolated sigma_w is exact
        u = (np.arange(1, 31) - 0.3) / 30.4
        sw = 200.0 * (ratio + (-np.log(1 - u)) ** (1.0 / m))
        levels = np.linspace(sw[0] / 10.0, sw[-1] / 10.0, 5)
        fields = [ElementField(J, [10.0 * J], [1.0]) for J in levels]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params, _ = fit_three_parameter(fields, rank_samples(sw / 10.0))
        assert np.max(np.abs(failure_probability(sw, params) - u)) <= 0.02

    @pytest.mark.parametrize(
        "seed, n, th_upper",
        [(0, 200, None), (1, 30, None), (4, 200, None), (0, 30, None), (1, 200, 900.0),
         (None, 200, None)],
        ids=["interior-200", "interior-30", "interior-200b", "threshold-at-zero",
             "threshold-on-upper-bound", "closed-threshold-interval"],
    )
    def test_inner_fit_matches_least_squares(self, seed, n, th_upper):
        # seeded sigma_w samples of (1000, 4, 1200) with fit_three_parameter's
        # bounds and start; "threshold-at-zero" ends with sigma_th on its lower
        # bound, and an upper bound of 900 below the planted threshold holds
        # it there.  Without a seed, the data of test_failure_at_zero_stress:
        # a failure at zero stress closes sigma_th's interval.
        pf_emp = (np.arange(1, n + 1) - 0.3) / (n + 0.4)
        if seed is None:
            sw = 1200.0 * (-np.log(1 - pf_emp)) ** 0.25
            sw[0] = 0.0
        else:
            rng = np.random.default_rng(seed)
            sw = np.sort(1000.0 + 1200.0 * (-np.log1p(-rng.uniform(size=n))) ** 0.25)
        upper = sw.min() * (1 - 1e-9) if th_upper is None else th_upper
        bounds = [(0.0, upper), (0.5, 50.0), (1e-6, 10.0 * sw.max())]
        start = (0.0, 2.0, float(np.std(sw)))
        found = _fit_cdf(sw, pf_emp, start, bounds)
        reference = least_squares_fit(sw, pf_emp, start, bounds)
        # a parameter on the bound 0 is compared on the scale of sigma_w
        np.testing.assert_allclose(found, reference, rtol=1e-6, atol=1e-9 * sw.max())
        assert all(lo <= v <= hi for v, (lo, hi) in zip(found, bounds))
        if th_upper is not None:
            assert found[0] == th_upper
        if seed is None:
            assert found[0] == 0.0

    def test_huge_reference_volume_rejected(self):
        # V0 = 1e308 shrinks every sigma_w to about 1e-151, below sigma_u's
        # lower bound of 1e-6
        true = WeibullParams(1000.0, 4.0, 1200.0, 1.0)
        with pytest.raises(ValueError, match="empty sigma_u interval"):
            fit_three_parameter(linear_fields(), quantile_samples(true, 50), V0=1e308)

    @pytest.mark.parametrize("x", [(1100.0, 4.0, 1200.0), (1000.0, 0.7, 900.0)])
    def test_jacobian_matches_central_difference(self, x):
        # sw spans both sides of sigma_th, so some rows have z = 0
        sw = np.linspace(800.0, 3000.0, 45)
        assert np.any(sw < x[0])

        def cdf(p):
            z = np.maximum(sw - p[0], 0.0) / p[2]
            return 1.0 - np.exp(-(z ** p[1]))

        pf_emp = np.linspace(0.01, 0.99, sw.size)
        r, jac = _cdf_terms(np.array(x), sw, pf_emp)
        # the overflow guard on z**m does not bind at these z
        np.testing.assert_allclose(r, cdf(x) - pf_emp, rtol=0, atol=1e-15)
        assert jac.shape == (sw.size, 3)
        assert np.all(jac[sw <= x[0]] == 0.0)
        for k in range(3):
            h = 1e-5 * abs(x[k])
            up, down = np.array(x), np.array(x)
            up[k] += h
            down[k] -= h
            fd = (cdf(up) - cdf(down)) / (2 * h)
            # compare away from the kink at z = 0, where F is not differentiable
            smooth = np.abs(sw - x[0]) > 2 * h
            np.testing.assert_allclose(
                jac[smooth, k], fd[smooth], rtol=1e-6, atol=1e-6 * np.max(np.abs(fd))
            )

    def test_terms_saturate_without_overflow(self):
        # z**m = 1e500 would overflow a double: F saturates at 1 and its
        # derivatives at 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, jac = _cdf_terms(np.array([0.0, 50.0, 1.0]), np.array([1e10]), np.array([0.5]))
        assert r.tolist() == [0.5]
        assert jac.tolist() == [[0.0, 0.0, 0.0]]

    def test_infinite_tol_one_iteration(self):
        true = WeibullParams(1000.0, 4.0, 1200.0, 1.0)
        params, trace = fit_three_parameter(
            linear_fields(), quantile_samples(true, 50), V0=1.0, tol=math.inf
        )
        assert len(trace) == 1
        assert np.isfinite([params.sigma_th, params.m, params.sigma_u]).all()

    @pytest.mark.parametrize(
        "budget",
        [
            {"tol": math.nan}, {"tol": -1e-4}, {"max_iter": 0}, {"max_iter": -3},
            {"max_iter": 2.5}, {"max_iter": True},
        ],
        ids=[
            "tol-nan", "tol-negative", "budget-zero", "budget-negative",
            "budget-fraction", "budget-bool",
        ],
    )
    def test_bad_tol_or_budget_rejected_before_work(self, budget, monkeypatch):
        monkeypatch.setattr(weibull, "weibull_stress", pytest.fail)
        samples = quantile_samples(WeibullParams(1000.0, 4.0, 1200.0, 1.0), 50)
        with pytest.raises(ValueError, match="tol|max_iter"):
            fit_three_parameter(linear_fields(), samples, V0=1.0, **budget)

    def test_one_sigma_w_curve_per_iteration(self, monkeypatch):
        evaluated = []

        def counting(field, params):
            evaluated.append(field.load_level)
            return weibull_stress(field, params)

        monkeypatch.setattr(weibull, "weibull_stress", counting)
        fields = linear_fields()
        true = WeibullParams(1000.0, 4.0, 1200.0, 1.0)
        _, trace = fit_three_parameter(fields, quantile_samples(true, 200), V0=1.0)
        assert len(trace) > 1
        assert len(evaluated) == len(trace) * len(fields)

    def test_repeated_load_level_rejected(self):
        fields = linear_fields() + [ElementField(200.0, [9000.0], [1.0])]
        samples = quantile_samples(WeibullParams(1000.0, 4.0, 1200.0, 1.0), 200)
        with pytest.raises(ValueError, match="two element fields at load level 200.0"):
            fit_three_parameter(fields, samples, V0=1.0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_three_parameter(linear_fields(), quantile_samples(WeibullParams(1000, 4, 1200), 2))

    def test_degenerate_sigma_w(self):
        fields = [ElementField(J, [2000.0], [1.0]) for J in (0.0, 1.0)]
        samples = rank_samples([0.2, 0.5, 0.8])
        with pytest.raises(ValueError, match="fewer distinct Weibull-stress values than free parameters"):
            fit_three_parameter(fields, samples, V0=1.0)

    def test_extrapolation_rejected(self):
        true = WeibullParams(1000.0, 4.0, 1200.0, 1.0)
        with pytest.raises(ValueError):
            fit_three_parameter(linear_fields(0.0, 50.0, 11), quantile_samples(true, 20), V0=1.0)


class TestHazardMap:
    params = WeibullParams(1000.0, 4.0, 1200.0, 1.0)

    def test_below_threshold_floored(self):
        pf, log_pf = hazard_map(ElementField(1.0, [900.0], [1.0]), self.params)
        assert pf[0] == 0.0
        assert log_pf[0] == -16.0

    def test_unit_element_at_scale(self):
        pf, _ = hazard_map(ElementField(1.0, [2200.0], [1.0]), self.params)
        assert pf[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_single_element_consistency(self):
        field = ElementField(1.0, [1800.0], [0.7])
        pf, _ = hazard_map(field, self.params)
        expected = failure_probability(weibull_stress(field, self.params), self.params)
        assert pf[0] == expected


class TestCsvIngestion:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "fields.csv"
        path.write_text(
            "load_level,element_id,sigma1,volume\n"
            "1.0,1,1500.0,0.5\n"
            "1.0,2,1600.0,0.25\n"
            "2.0,1,1800.0,0.5\n"
            "2.0,2,1900.0,0.25\n"
        )
        fields = load_element_fields_csv(path)
        assert len(fields) == 2
        assert fields[0].load_level == 1.0
        assert list(fields[1].sigma1) == [1800.0, 1900.0]
        assert list(fields[0].volume) == [0.5, 0.25]

    def test_matches_row_by_row_reference(self, tmp_path):
        """Shuffled rows group and order exactly as a per-line parse does."""
        rng = np.random.default_rng(5)
        rows = [
            (level, eid, float(rng.normal(1500.0, 200.0)), float(rng.uniform(0.1, 1.0)))
            for level in (0.5, 2.0, 1.25)
            for eid in rng.permutation(40) + 1
        ]
        rng.shuffle(rows)
        path = tmp_path / "fields.csv"
        path.write_text(
            "load_level,element_id,sigma1,volume\n"
            + "".join(f"{lv!r},{eid},{s1!r},{vol!r}\n" for lv, eid, s1, vol in rows)
        )
        groups = {}
        for lv, eid, s1, vol in rows:
            groups.setdefault(lv, []).append((eid, s1, vol))
        fields = load_element_fields_csv(path)
        assert [f.load_level for f in fields] == sorted(groups)
        for f, level in zip(fields, sorted(groups)):
            ref = sorted(groups[level])
            assert np.array_equal(f.sigma1, [r[1] for r in ref])
            assert np.array_equal(f.volume, [r[2] for r in ref])

    def test_repeated_element_rejected(self, tmp_path):
        path = tmp_path / "fields.csv"
        path.write_text(
            "load_level,element_id,sigma1,volume\n"
            "1.0,1,1500.0,0.5\n"
            "2.0,7,1800.0,0.5\n"
            "1.0,7,1600.0,0.5\n"
            "2.0,7,1.0,0.5\n"
        )
        with pytest.raises(ValueError, match="element 7 repeated at load level 2.0"):
            load_element_fields_csv(path)

    @pytest.mark.parametrize(
        "row",
        [
            "1.0,1.5,1500.0,0.5",
            "1.0,inf,1500.0,0.5",
            "1.0,1,1500.0",
            "1.0,1,1500.0,0.5,9",
            "nan,1,1500.0,0.5",
            "1.0,1,nan,0.5",
            "1.0,1,1500.0,inf",
        ],
    )
    def test_bad_rows_rejected(self, tmp_path, row):
        path = tmp_path / "fields.csv"
        path.write_text(f"load_level,element_id,sigma1,volume\n{row}\n")
        with pytest.raises(ValueError):
            load_element_fields_csv(path)
