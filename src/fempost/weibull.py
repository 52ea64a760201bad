"""Three-parameter Weibull weakest-link analysis of cleavage fracture.

The failure probability of a component loaded to a Weibull stress sigma_w is

    P_f = 1 - exp[-((sigma_w - sigma_th) / sigma_u)**m]

where sigma_w aggregates the per-element maximum principal stresses above the
threshold sigma_th as a volume-weighted m-norm:

    sigma_w = sigma_th + [ sum_i max(sigma1_i - sigma_th, 0)**m * V_i/V0 ]**(1/m)

The calibration loop alternates between evaluating sigma_w at each observed
failure load (for the current threshold and modulus) and least-squares fitting
the three parameters against the empirical rank probabilities, until the
relative change of the parameter vector drops below tolerance (Gao,
Ruggieri & Dodds, Eng. Fract. Mech. 59, 1998).  The inner fit is a bounded
Levenberg-Marquardt least-squares solve with the analytic Jacobian of the CDF
(J. J. More, "The Levenberg-Marquardt algorithm: implementation and theory",
Lecture Notes in Mathematics 630, 1978).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._base import NoConvergence, check_number, read_csv

__all__ = [
    "WeibullParams",
    "ElementField",
    "FailureSample",
    "NoConvergence",
    "max_principal_stress",
    "weibull_stress",
    "failure_probability",
    "rank_samples",
    "fit_three_parameter",
    "hazard_map",
    "load_element_fields_csv",
]

LOG10_FLOOR = -16.0

#: The inner fit stops once a Levenberg-Marquardt step moves the parameter
#: vector by less than this fraction of its norm, or after LM_MAX_STEPS steps.
LM_XTOL = 1e-10
LM_MAX_STEPS = 200


@dataclass(frozen=True)
class WeibullParams:
    """Threshold stress, modulus, scaling stress and reference volume."""

    sigma_th: float
    m: float
    sigma_u: float
    V0: float = 1.0

    def __post_init__(self):
        check_number("sigma_th", self.sigma_th, zero=True)
        check_number("m", self.m)
        check_number("sigma_u", self.sigma_u)
        check_number("V0", self.V0)


def _require_all(ok, values, rule):
    """Raise ValueError naming the first element index where *ok* is False."""
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"all element {rule}, got {values[i]} at element index {i}")


@dataclass(frozen=True)
class ElementField:
    """Per-element (max principal stress, volume) arrays at one load level."""

    load_level: float
    sigma1: np.ndarray
    volume: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.load_level):
            raise ValueError(f"load level must be finite, got {self.load_level}")
        sigma1 = np.atleast_1d(np.asarray(self.sigma1, dtype=float))
        volume = np.atleast_1d(np.asarray(self.volume, dtype=float))
        if sigma1.shape != volume.shape or sigma1.ndim != 1 or sigma1.size < 1:
            raise ValueError("sigma1 and volume must be equal-length 1-d arrays")
        _require_all(np.isfinite(sigma1), sigma1, "sigma1 values must be finite")
        _require_all(
            np.isfinite(volume) & (volume > 0), volume, "volumes must be positive and finite"
        )
        object.__setattr__(self, "sigma1", sigma1)
        object.__setattr__(self, "volume", volume)


@dataclass(frozen=True)
class FailureSample:
    """One experiment: failure load, empirical rank j of n."""

    failure_load: float
    rank: int
    count: int

    def __post_init__(self):
        if not np.isfinite(self.failure_load):
            raise ValueError(f"failure load must be finite, got {self.failure_load}")
        if not 1 <= self.rank <= self.count:
            raise ValueError(f"rank {self.rank} outside 1..{self.count}")


# positions of (S11, S22, S33, S12, S13, S23) in the symmetric 3x3 tensor
_TENSOR_INDEX = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])

#: Below this r = det(A - qI) / (2 p**3) the two largest eigenvalues nearly
#: coincide and acos(r) has lost about sqrt(eps): such tensors go to eigvalsh.
_R_FALLBACK = -1.0 + 1e-4
#: A scaled tensor whose p**2 is at or below this returns q, which is off by
#: at most 2p = 2**-299; below it p**3 could underflow.
_P2_ISOTROPIC = 2.0**-600
#: Lowest scale exponent: the factor 2**1000 stays finite and lifts even a
#: subnormal tensor's largest component to 2**-74 or more.
_MIN_EXPONENT = -1000
#: Component types of a tuple or list that takes the single-tensor path.
_PLAIN_NUMBERS = frozenset((float, int))


def _invariants(a11, a22, a33, a12, a13, a23):
    """q = tr(A)/3, p**2 = |A - qI|**2 / 6 and det(A - qI), for floats or arrays.

    The single-tensor and batch paths share this arithmetic, so they agree
    bit for bit."""
    q = (a11 + a22 + a33) / 3.0
    b11, b22, b33 = a11 - q, a22 - q, a33 - q
    p2 = (b11 * b11 + b22 * b22 + b33 * b33 + 2.0 * (a12 * a12 + a13 * a13 + a23 * a23)) / 6.0
    det = (
        b11 * (b22 * b33 - a23 * a23)
        - a12 * (a12 * b33 - a23 * a13)
        + a13 * (a12 * a23 - b22 * a13)
    )
    return q, p2, det


def _eigvalsh_max(c6):
    """Largest eigenvalue of each (..., 6) tensor by LAPACK."""
    return np.linalg.eigvalsh(np.take(c6, _TENSOR_INDEX, axis=-1))[..., -1]


def _not_finite(values, row=()):
    where = f" in row {row[0] if len(row) == 1 else row}" if row else ""
    return ValueError(f"stress components must be finite, got {values}{where}")


def _sigma1_one(c):
    """max_principal_stress of a tuple or list of 4 or 6 Python floats or
    ints, with ``math`` alone."""
    if not all(map(math.isfinite, c)):
        raise _not_finite(list(c))
    if len(c) == 4:
        a11, a22, a33, a12 = c
        a13 = a23 = 0.0
    else:
        a11, a22, a33, a12, a13, a23 = c
    e = math.frexp(max(max(c), -min(c)))[1]
    s = math.ldexp(1.0, -e if e > _MIN_EXPONENT else -_MIN_EXPONENT)
    q, p2, det = _invariants(a11 * s, a22 * s, a33 * s, a12 * s, a13 * s, a23 * s)
    if p2 <= _P2_ISOTROPIC:
        return q / s
    p = math.sqrt(p2)
    r = det / (2.0 * p * p2)
    if r < _R_FALLBACK:
        return float(_eigvalsh_max(np.array((a11, a22, a33, a12, a13, a23), dtype=float)))
    return (q + 2.0 * p * math.cos(math.acos(r if r < 1.0 else 1.0) / 3.0)) / s


def max_principal_stress(components):
    """Largest eigenvalue of a symmetric stress tensor.

    Accepts 4 components (S11, S22, S33, S12; plane problems) or 6 components
    (S11, S22, S33, S12, S13, S23) along the last axis.  One tensor returns a
    ``float``; a batch of shape ``(..., 4|6)`` returns an array of shape
    ``(...)``.  A tuple or list of 4 or 6 Python floats or ints is computed
    with ``math`` alone, anything else through numpy.  Both paths do the
    same arithmetic, so a batch equals its rows taken one at a time bit for
    bit.

    The method is closed form (O. K. Smith, Comm. ACM 4(4), 1961): scale the
    tensor A by a power of two so its largest component lies in [0.5, 1),
    form q = tr(A)/3, p**2 = |A - qI|**2 / 6 and r = det(A - qI) / (2 p**3),
    and return q + 2p cos(acos(r)/3), scaled back.  An isotropic tensor
    (p = 0) returns q.  When the two largest eigenvalues (nearly) coincide,
    r < -1 + 1e-4 and acos loses accuracy, so such a tensor is handed to
    ``np.linalg.eigvalsh``.  The result is within 1e-13 times the largest
    absolute component of the exact eigenvalue.  A non-finite component
    raises ValueError naming the first bad row.
    """
    if (
        type(components) in (tuple, list)
        and len(components) in (4, 6)
        and _PLAIN_NUMBERS.issuperset(map(type, components))
    ):
        return _sigma1_one(components)
    c = np.asarray(components, dtype=float)
    if c.ndim == 0 or c.shape[-1] not in (4, 6):
        raise ValueError(f"expected 4 or 6 stress components, got shape {c.shape}")
    rows = c.reshape(-1, c.shape[-1])
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        row = tuple(int(k) for k in np.unravel_index(i, c.shape[:-1]))
        raise _not_finite(rows[i].tolist(), row)
    if c.shape[-1] == 4:
        rows = np.pad(rows, ((0, 0), (0, 2)))
    s = np.ldexp(1.0, -np.maximum(np.frexp(np.abs(rows).max(axis=1))[1], _MIN_EXPONENT))
    q, p2, det = _invariants(*(rows * s[:, None]).T)
    isotropic = p2 <= _P2_ISOTROPIC
    p2 = np.where(isotropic, 1.0, p2)
    p = np.sqrt(p2)
    r = np.clip(det / (2.0 * p * p2), -1.0, 1.0)
    cos = np.array([math.cos(math.acos(x) / 3.0) for x in r.tolist()])
    with np.errstate(over="ignore"):
        sigma1 = np.where(isotropic, q, q + 2.0 * p * cos) / s
    fallback = r < _R_FALLBACK
    if fallback.any():
        sigma1[fallback] = _eigvalsh_max(rows[fallback])
    sigma1 = sigma1.reshape(c.shape[:-1])
    return float(sigma1) if sigma1.ndim == 0 else sigma1


def _weighted_excess(field: ElementField, params: WeibullParams) -> np.ndarray:
    """Per-element term max(sigma1 - sigma_th, 0)**m * V/V0 of the m-norm."""
    excess = np.maximum(field.sigma1 - params.sigma_th, 0.0)
    return excess**params.m * (field.volume / params.V0)


def weibull_stress(field: ElementField, params: WeibullParams) -> float:
    """Weibull stress of one element field.

    Elements at or below the threshold contribute nothing; if no element
    exceeds it the Weibull stress equals the threshold.
    """
    total = np.sum(_weighted_excess(field, params))
    return params.sigma_th + float(total ** (1.0 / params.m))


def failure_probability(sigma_w, params: WeibullParams):
    """Cumulative failure probability at a given Weibull stress,
    P_f = 1 - exp(-z**m) with z = (sigma_w - sigma_th) / sigma_u.

    Computed as -expm1(-z**m), so small probabilities keep their relative
    accuracy: for the given doubles, P_f is within (m + 4) * 2**-52 relative
    of the exact value wherever z**m is a normal double (above 2.2e-308).
    """
    sw = np.asarray(sigma_w, dtype=float)
    if np.any(sw < params.sigma_th):
        raise ValueError("sigma_w below the threshold stress")
    pf = -np.expm1(-(((sw - params.sigma_th) / params.sigma_u) ** params.m))
    return float(pf) if sw.ndim == 0 else pf


def empirical_cdf(rank: int, count: int) -> float:
    """Median-rank plotting position (j - 0.3) / (n + 0.4)."""
    if not 1 <= rank <= count:
        raise ValueError(f"rank {rank} outside 1..{count}")
    return (rank - 0.3) / (count + 0.4)


def rank_samples(failure_loads) -> list:
    """Build rank-ordered FailureSamples from raw failure loads."""
    loads = sorted(float(x) for x in failure_loads)
    return [FailureSample(load, j + 1, len(loads)) for j, load in enumerate(loads)]


def _cdf_terms(x, sw, pf_emp):
    """Residual F(sw) - P_emp and Jacobian of F = 1 - exp(-z**m), z = max(sw -
    sigma_th, 0) / sigma_u, with respect to x = (sigma_th, m, sigma_u).

    With S = exp(-z**m): dF/dsigma_th = -S m z**(m-1) / sigma_u,
    dF/dm = S z**m ln z and dF/dsigma_u = -S m z**m / sigma_u; rows where
    z = 0 are zero.  z**m = exp(min(m ln z, 700)) cannot overflow: far out in
    the tail F saturates at 1.
    """
    sigma_th, m, sigma_u = x
    z = (sw - sigma_th) / sigma_u
    above = z > 0
    za = z[above]
    log_z = np.log(za)
    zm = np.exp(np.minimum(m * log_z, 700.0))
    survival = np.exp(-zm)
    s_zm = survival * zm
    r = -pf_emp
    r[above] += 1.0 - survival
    jac = np.zeros((sw.size, 3))
    jac[above, 0] = -m * s_zm / (za * sigma_u)
    jac[above, 1] = s_zm * log_z
    jac[above, 2] = -m * s_zm / sigma_u
    return r, jac


def _fit_cdf(sw, pf_emp, start, bounds):
    """Bounded Levenberg-Marquardt fit of the three-parameter CDF to empirical
    points.  Each step solves (J'J + lambda diag(J'J)) dx = -J'r and clips the
    result into the bounds; lambda starts at 1e-3, shrinks tenfold after a
    step that lowers the squared residual and grows tenfold after one that
    does not."""
    lower, upper = np.array(bounds, dtype=float).T
    # the threshold's upper bound moves between iterations: clip the start in
    x = np.clip(np.asarray(start, dtype=float), lower, upper)
    r, jac = _cdf_terms(x, sw, pf_emp)
    damping = 1e-3
    for _ in range(LM_MAX_STEPS):
        grad = jac.T @ r
        # hold a parameter whose interval has closed (sigma_th after a failure at
        # zero Weibull stress) or that sits on a bound the descent -grad points past
        move = (lower < upper) & ~((x == lower) & (grad > 0)) & ~((x == upper) & (grad < 0))
        hess = jac[:, move].T @ jac[:, move]
        # the floor keeps the system regular where a Jacobian column vanishes
        scale = np.diag(hess).clip(min=np.finfo(float).tiny)
        step = np.zeros(3)
        step[move] = np.linalg.solve(hess + damping * np.diag(scale), -grad[move])
        trial = np.clip(x + step, lower, upper)
        if np.linalg.norm(trial - x) <= LM_XTOL * np.linalg.norm(x):
            break
        r_trial, jac_trial = _cdf_terms(trial, sw, pf_emp)
        if r_trial @ r_trial < r @ r:
            x, r, jac = trial, r_trial, jac_trial
            damping *= 0.1
        else:
            damping *= 10.0
    return x


def fit_three_parameter(
    fields,
    samples,
    V0: float = 1.0,
    tol: float = 1e-4,
    max_iter: int = 100,
):
    """Iteratively calibrate (sigma_th, m, sigma_u) from failure experiments.

    Each iteration evaluates the Weibull stress at every sample's failure load
    (piecewise-linear in the load level) using the previous threshold and
    modulus, then refits all three parameters to the empirical rank
    probabilities by least squares.  Stops when the relative norm of the
    parameter change drops below *tol*.  The Weibull stress does not depend
    on sigma_u, so each iteration evaluates one sigma_w curve.

    Returns ``(WeibullParams, trace)`` where *trace* is the per-iteration list
    of parameter triples.  Raises ValueError when *tol* is NaN or negative or
    *max_iter* is not a positive integer.
    """
    check_number("tol", tol, zero=True, inf=True)
    check_number("max_iter", max_iter, integer=True)
    if len(samples) < 3:
        raise ValueError("at least 3 failure samples are required")
    fields = sorted(fields, key=lambda f: f.load_level)
    load_levels = np.array([f.load_level for f in fields])
    repeated = np.flatnonzero(load_levels[1:] == load_levels[:-1])
    if repeated.size:
        raise ValueError(f"two element fields at load level {load_levels[repeated[0]]}")
    loads = np.array([s.failure_load for s in samples])
    lo, hi = load_levels[0], load_levels[-1]
    if np.any(loads < lo) or np.any(loads > hi):
        raise ValueError(
            f"failure loads outside the field load-level range [{lo}, {hi}]; "
            "extrapolation is not supported"
        )
    pf_emp = np.array([empirical_cdf(s.rank, s.count) for s in samples])

    def sigma_w(sigma_th, m):
        """Weibull stress at each failure load, piecewise-linear in the level."""
        params = WeibullParams(sigma_th, m, 1.0, V0)
        return np.interp(loads, load_levels, [weibull_stress(f, params) for f in fields])

    # neutral start: no threshold, modest modulus, z near 1 (sigma_u = median sigma_w)
    sigma_th, m = 0.0, 2.0
    sw = sigma_w(sigma_th, m)
    sigma_u = float(np.median(sw))

    trace = []
    for _ in range(max_iter):
        if np.unique(sw).size < 3:
            raise ValueError(
                "fewer distinct Weibull-stress values than free parameters"
            )
        bounds = [
            (0.0, float(sw.min()) * (1 - 1e-9)),
            (0.5, 50.0),
            (1e-6, 10.0 * float(sw.max())),
        ]
        if bounds[2][0] > bounds[2][1]:
            raise ValueError(
                f"empty sigma_u interval [{bounds[2][0]}, {bounds[2][1]}]: the Weibull "
                f"stresses (at most {float(sw.max())}) are too small for V0 = {V0}"
            )
        new = _fit_cdf(sw, pf_emp, (sigma_th, m, sigma_u), bounds)
        old = np.array([sigma_th, m, sigma_u])
        trace.append(tuple(float(v) for v in new))
        change = np.linalg.norm(new - old) / np.linalg.norm(old)
        sigma_th, m, sigma_u = trace[-1]
        if change < tol:
            return WeibullParams(sigma_th, m, sigma_u, V0), trace
        sw = sigma_w(sigma_th, m)
    raise NoConvergence(f"no convergence after {max_iter} iterations")


def hazard_map(field: ElementField, params: WeibullParams):
    """Local failure probability of each element, linear and log10 scale.

    Each element is treated as its own weakest link: its local Weibull stress
    uses only its own volume.  Returns ``(pf, log10_pf)`` arrays; the log is
    floored at -16 so zero-probability elements stay plottable.
    """
    sw_local = params.sigma_th + _weighted_excess(field, params) ** (1.0 / params.m)
    pf = failure_probability(sw_local, params)
    with np.errstate(divide="ignore"):
        log_pf = np.log10(pf)
    log_pf = np.maximum(log_pf, LOG10_FLOOR)
    return pf, log_pf


def load_element_fields_csv(path) -> list:
    """Read element fields from comma-separated text.

    Expected columns: load_level, element_id, sigma1, volume (one-line
    header).  Rows are grouped by load level; element order within a level
    follows element_id.  An element may appear once per load level.
    """
    table = read_csv(path)
    if table.shape[1] != 4:
        raise ValueError(
            f"expected 4 columns (load_level,element_id,sigma1,volume), got {table.shape[1]}"
        )
    eid = table[:, 1]
    if not np.all(np.isfinite(eid) & (eid == np.trunc(eid))):
        raise ValueError("element ids must be integers")
    # sort rows by (load_level, element_id), then split per level
    level, eid, sigma1, volume = table[np.lexsort((eid, table[:, 0]))].T
    repeated = np.flatnonzero((level[1:] == level[:-1]) & (eid[1:] == eid[:-1]))
    if repeated.size:
        i = repeated[0]
        raise ValueError(f"element {int(eid[i])} repeated at load level {float(level[i])}")
    levels, starts = np.unique(level, return_index=True)
    return [
        ElementField(float(lv), s1, vol)
        for lv, s1, vol in zip(
            levels, np.split(sigma1, starts[1:]), np.split(volume, starts[1:])
        )
    ]
