"""Surrogate-assisted inverse identification of cohesive parameters.

A bilinear traction-separation law is fixed by the cohesive strength Tc and
cohesive energy Gamma_c, related through the critical separation:

    Gamma_c = 0.5 * Tc * delta_c

The identification loop samples a handful of (Tc, Gamma_c) pairs, runs the
forward model to obtain load-CMOD response curves, fits an exact radial-basis
network to them, minimizes the network-vs-target mismatch over the parameter
box (three nested grid scans), verifies the optimum with a real forward run,
and feeds the verification pair back into the training set until the verified
mismatch drops below tolerance.

The built-in forward model is a desk-scale closed-form stand-in for the
cohesive finite element simulation; any callable with the same signature can
replace it (e.g. a subprocess-driven external solver).

A target must cover the fixed CMOD window all curves are compared on.  The
model's peak CMOD is Gamma_c / Tc; beyond Gamma_c / Tc = 0.45 the peak nears
the window's end, and a mismatch of 0.005 can leave Gamma_c 2-4% off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._base import NoConvergence, check_number, read_csv

__all__ = [
    "TSLParams",
    "ForwardConfig",
    "ResponseCurve",
    "SurrogateModel",
    "NoConvergence",
    "cohesive_energy",
    "delta_from",
    "forward_model",
    "curve_mismatch",
    "inverse_identify",
    "load_target_csv",
]

N_POINTS = 12

#: Points per side of the grid on which the surrogate mismatch is scanned.
SEARCH_GRID = 41

#: Nested scans per search; each rescans the +-1-cell neighbourhood of the
#: previous best point, so the last step is 1/16,000 of the box per axis.
SEARCH_LEVELS = 3

#: Outer iterations without a 1% verified improvement before giving up.
STALL_LIMIT = 3


@dataclass(frozen=True)
class TSLParams:
    """Cohesive strength Tc [MPa] and cohesive energy Gamma_c [N/mm]."""

    Tc: float
    Gamma_c: float

    def __post_init__(self):
        check_number("Tc", self.Tc)
        check_number("Gamma_c", self.Gamma_c)

    @property
    def delta_c(self) -> float:
        return 2.0 * self.Gamma_c / self.Tc


def cohesive_energy(Tc: float, delta_c: float) -> float:
    """Cohesive energy of the bilinear law, 0.5 * Tc * delta_c."""
    check_number("Tc", Tc)
    check_number("delta_c", delta_c, zero=True)
    return 0.5 * Tc * delta_c


def delta_from(Tc: float, Gamma_c: float) -> float:
    """Critical separation, inverse of :func:`cohesive_energy`."""
    return TSLParams(Tc, Gamma_c).delta_c


@dataclass(frozen=True)
class ForwardConfig:
    """Constants of the closed-form forward model.

    Peak load scales as alpha * Tc**0.8 * Gamma_c**0.2; peak CMOD as
    beta * Gamma_c / Tc.  The curve is sampled at 12 equally spaced CMOD
    values over the fixed global window [cmod_min, cmod_max]; the defaults
    bracket the peak of a nominal (Tc=200, Gamma_c=60) response.
    """

    alpha: float = 25.0
    beta: float = 1.0
    cmod_min: float = 0.05
    cmod_max: float = 0.6


@dataclass(frozen=True)
class ResponseCurve:
    """Load-CMOD curve sampled at 12 fixed, strictly increasing CMOD values."""

    cmod: np.ndarray
    load: np.ndarray

    def __post_init__(self):
        cmod = np.asarray(self.cmod, dtype=float)
        load = np.asarray(self.load, dtype=float)
        if cmod.shape != (N_POINTS,) or load.shape != (N_POINTS,):
            raise ValueError(f"response curves carry exactly {N_POINTS} points")
        if not np.isfinite([cmod, load]).all():
            raise ValueError("CMOD and load values must be finite")
        if np.any(np.diff(cmod) <= 0):
            raise ValueError("CMOD values must be strictly increasing")
        if np.any(load < 0):
            raise ValueError("loads must be non-negative")
        object.__setattr__(self, "cmod", cmod)
        object.__setattr__(self, "load", load)

    @property
    def peak_load(self) -> float:
        return float(self.load.max())


def _cmod_grid(config: ForwardConfig) -> np.ndarray:
    """The 12 CMOD abscissae every response curve is sampled at."""
    return np.linspace(config.cmod_min, config.cmod_max, N_POINTS)


def forward_model(params: TSLParams, config: ForwardConfig = ForwardConfig()) -> ResponseCurve:
    """Deterministic closed-form load-CMOD response for given cohesive params.

    P(v) = P_pk * (v/v_pk) * exp(1 - v/v_pk) with P_pk = alpha*Tc^0.8*Gc^0.2
    and v_pk = beta*Gc/Tc, sampled on the config's fixed CMOD window.
    """
    p_pk = config.alpha * params.Tc**0.8 * params.Gamma_c**0.2
    v_pk = config.beta * params.Gamma_c / params.Tc
    v = _cmod_grid(config)
    load = p_pk * (v / v_pk) * np.exp(1.0 - v / v_pk)
    return ResponseCurve(cmod=v, load=load)


def _gaussian(x: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Hidden-unit outputs exp(-|x - c|^2), (m, n) for m inputs and n centres;
    summing (m, n) terms per coordinate beats an (m, n, 2) broadcast."""
    return np.exp(-sum((x[:, k, None] - centres[:, k]) ** 2 for k in range(x.shape[1])))


@dataclass
class SurrogateModel:
    """Exact Gaussian radial-basis network over normalized (Tc, Gamma_c)."""

    lo: np.ndarray              # normalization origin
    span: np.ndarray            # normalization width per input
    centres: np.ndarray         # (n, 2) normalized training inputs
    weights: np.ndarray         # (n + 1, 12) output layer; last row the constant

    def predict(self, params) -> np.ndarray:
        """Predicted load vectors: shape (12,) for a :class:`TSLParams` or a
        (Tc, Gamma_c) pair, (n, 12) for an (n, 2) array of pairs."""
        if isinstance(params, TSLParams):
            params = (params.Tc, params.Gamma_c)
        x = np.asarray(params, dtype=float)
        hidden = _gaussian(np.atleast_2d((x - self.lo) / self.span), self.centres)
        y = hidden @ self.weights[:-1] + self.weights[-1]
        return y.reshape(x.shape[:-1] + (N_POINTS,))


def train_surrogate(samples) -> SurrogateModel:
    """Fit the surrogate to (TSLParams, ResponseCurve) training pairs.

    The output layer solves [K 1; 1' 0] [W; b] = [Y; 0], K the hidden-unit
    matrix of the training inputs, so the training curves are reproduced
    exactly."""
    if len(samples) < 3:
        raise ValueError("at least 3 training samples are required")
    x = np.array([[p.Tc, p.Gamma_c] for p, _ in samples])
    y = np.array([c.load for _, c in samples])
    # TSLParams admits no NaN and no -0.0, so equal rows are equal tuples
    if len(set(map(tuple, x.tolist()))) != len(x):
        raise ValueError("coincident surrogate training inputs")
    lo = x.min(axis=0)
    span = np.ptp(x, axis=0)
    span = np.where(span > 0, span, 1.0)
    centres = (x - lo) / span
    lhs = np.ones((len(x) + 1, len(x) + 1))
    lhs[:-1, :-1], lhs[-1, -1] = _gaussian(centres, centres), 0.0
    weights = np.linalg.solve(lhs, np.vstack([y, np.zeros(N_POINTS)]))
    return SurrogateModel(lo, span, centres, weights)


def curve_mismatch(load, target: ResponseCurve) -> float:
    """RMS load difference over the 12 points, normalized by the target peak."""
    load = np.asarray(load, dtype=float)
    return float(
        np.sqrt(np.mean((load - target.load) ** 2)) / target.peak_load
    )


def _initial_design(box) -> list:
    """Corner-plus-center design of 5 points in the parameter box."""
    (t_lo, t_hi), (g_lo, g_hi) = box
    return [
        TSLParams(t_lo, g_lo),
        TSLParams(t_lo, g_hi),
        TSLParams(t_hi, g_lo),
        TSLParams(t_hi, g_hi),
        TSLParams(0.5 * (t_lo + t_hi), 0.5 * (g_lo + g_hi)),
    ]


def _mismatch_map(model: SurrogateModel, target: ResponseCurve, tc, gc) -> np.ndarray:
    """Mean squared surrogate-vs-target load error on the grid of *tc* x *gc*
    values, shape (gc.size, tc.size) as from ``np.meshgrid(tc, gc)``.

    The hidden unit factorizes, exp(-du**2 - dv**2) = exp(-du**2) exp(-dv**2),
    so with per-axis factors a (Tc) and b (Gamma_c) the error at grid point
    (q, p) is sum_j b[q, j] a[p, j] W[j] + c, c the constant row minus the
    target: one product, and no hidden matrix with a row per grid point.
    Expanding the square through W W' instead would lose digits once the
    weights are large."""
    u = (tc - model.lo[0]) / model.span[0]
    v = (gc - model.lo[1]) / model.span[1]
    a = _gaussian(u[:, None], model.centres[:, :1])
    b = _gaussian(v[:, None], model.centres[:, 1:])
    w = model.weights[:-1]
    aw = (a.T[:, :, None] * w[:, None, :]).reshape(len(w), -1)
    error = (b @ aw).reshape(v.size, u.size, N_POINTS)
    error += model.weights[-1] - target.load
    return np.einsum("qpk,qpk->qp", error, error) / N_POINTS


def _minimize_surrogate(model: SurrogateModel, target: ResponseCurve, box) -> TSLParams:
    """Nested grid scan of the surrogate mismatch: scan the box, then rescan
    the +-1-cell neighbourhood of the best point, clipped to the box."""
    box_lo, box_hi = lo, hi = np.array(box, dtype=float).T
    for _ in range(SEARCH_LEVELS):
        tc, gc = np.linspace(lo, hi, SEARCH_GRID).T
        row, col = np.unravel_index(
            np.argmin(_mismatch_map(model, target, tc, gc)), (SEARCH_GRID, SEARCH_GRID)
        )
        best = np.array([tc[col], gc[row]])
        step = (hi - lo) / (SEARCH_GRID - 1)
        lo, hi = np.maximum(best - step, box_lo), np.minimum(best + step, box_hi)
    return TSLParams(float(best[0]), float(best[1]))


def _known_curve(samples, params: TSLParams):
    """Stored curve of the first training point allclose to *params*, or None."""
    x = np.array([[p.Tc, p.Gamma_c] for p, _ in samples])
    hits = np.flatnonzero(np.isclose([params.Tc, params.Gamma_c], x).all(axis=1))
    return samples[hits[0]][1] if hits.size else None


@dataclass
class IdentificationStep:
    """One outer iteration: proposed params and their verified mismatch."""

    params: TSLParams
    mismatch: float
    incumbent: TSLParams
    incumbent_mismatch: float


def inverse_identify(
    target: ResponseCurve,
    box,
    forward=forward_model,
    config: ForwardConfig = ForwardConfig(),
    tol: float = 0.01,
    max_outer: int = 10,
):
    """Identify (Tc, Gamma_c) whose forward response matches *target*.

    Returns ``(TSLParams, history)``; *history* lists one
    :class:`IdentificationStep` per outer iteration.  The returned optimum is
    the incumbent: the forward-verified evaluation with the smallest mismatch,
    so the incumbent mismatch is non-increasing across iterations.  A
    surrogate optimum that coincides with a training point is moved halfway
    to the box centre before verification; *forward* is never called twice
    on the same point.

    Raises ValueError when the box bounds do not increase, *tol* is NaN or
    negative or *max_outer* is not a positive integer, and
    :class:`NoConvergence` when the verified mismatch stalls above tolerance
    or the iteration budget runs out.
    """
    check_number("tol", tol, zero=True, inf=True)
    check_number("max_outer", max_outer, integer=True)
    if np.any(target.cmod != _cmod_grid(config)):
        raise ValueError("target CMOD abscissae differ from the model window")
    design = _initial_design(box)  # the corners go through TSLParams
    (t_lo, t_hi), (g_lo, g_hi) = box
    if not (t_lo < t_hi and g_lo < g_hi):
        raise ValueError(f"box bounds must increase, got {box}")
    samples = [(p, forward(p, config)) for p in design]

    incumbent, inc_mismatch = min(
        ((p, curve_mismatch(c.load, target)) for p, c in samples),
        key=lambda t: t[1],
    )
    history: list[IdentificationStep] = []
    if inc_mismatch <= tol:
        history.append(IdentificationStep(incumbent, inc_mismatch, incumbent, inc_mismatch))
        return incumbent, history

    stall = 0
    for _ in range(max_outer):
        model = train_surrogate(samples)
        candidate = _minimize_surrogate(model, target, box)
        verified = _known_curve(samples, candidate)
        if verified is not None:
            # re-proposing a known point adds nothing; move toward the box centre
            candidate = TSLParams(
                0.5 * (candidate.Tc + 0.5 * (t_lo + t_hi)),
                0.5 * (candidate.Gamma_c + 0.5 * (g_lo + g_hi)),
            )
            verified = _known_curve(samples, candidate)
        if verified is None:
            verified = forward(candidate, config)
            samples.append((candidate, verified))
        mismatch = curve_mismatch(verified.load, target)
        if mismatch < inc_mismatch * (1 - 1e-2):
            stall = 0
        else:
            stall += 1
        if mismatch < inc_mismatch:
            incumbent, inc_mismatch = candidate, mismatch
        history.append(
            IdentificationStep(candidate, mismatch, incumbent, inc_mismatch)
        )
        if inc_mismatch <= tol:
            return incumbent, history
        if stall >= STALL_LIMIT:
            raise NoConvergence(
                f"mismatch stalled at {inc_mismatch:.4g} > tol {tol:.4g}; "
                "the target may be unreachable inside the box"
            )
    raise NoConvergence(f"no convergence after {max_outer} outer iterations")


def load_target_csv(path, config: ForwardConfig = ForwardConfig()) -> ResponseCurve:
    """Read a (CMOD, load) curve from comma-separated text, reject non-finite
    values, repeated CMOD values and a curve that stops short of the window,
    then resample it onto the 12 common abscissae by linear interpolation."""
    table = read_csv(path)
    if table.shape[1] != 2:
        raise ValueError(f"expected 2 columns (cmod,load), got {table.shape[1]}")
    if not np.all(np.isfinite(table)):
        raise ValueError("CMOD and load values must be finite")
    v, p = table[np.argsort(table[:, 0])].T
    repeated = np.flatnonzero(v[1:] == v[:-1])
    if repeated.size:
        raise ValueError(f"CMOD value {float(v[repeated[0]])} repeated")
    grid = _cmod_grid(config)
    if v[0] > grid[0] or v[-1] < grid[-1]:
        raise ValueError(
            f"target CMOD range [{v[0]}, {v[-1]}] does not cover the model window "
            f"[{grid[0]}, {grid[-1]}]"
        )
    return ResponseCurve(cmod=grid, load=np.interp(grid, v, p))
