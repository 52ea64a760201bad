"""Surrogate-assisted inverse identification of cohesive parameters.

A bilinear traction-separation law is fixed by the cohesive strength Tc and
cohesive energy Gamma_c, related through the critical separation:

    Gamma_c = 0.5 * Tc * delta_c

The identification loop samples a handful of (Tc, Gamma_c) pairs, runs the
forward model to obtain load-CMOD response curves, trains a surrogate mapping
parameters to curves, minimizes the surrogate-vs-target mismatch over the
parameter box (one grid scan, then one local descent), verifies the optimum
with a real forward run, and feeds the verification pair back into the
training set until the verified mismatch drops below tolerance.

The built-in forward model is a desk-scale closed-form stand-in for the
cohesive finite element simulation; any callable with the same signature can
replace it (e.g. a subprocess-driven external solver).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import RBFInterpolator
from scipy.optimize import minimize

from ._base import FempostError, NoConvergence, read_csv

__all__ = [
    "TSLParams",
    "ForwardConfig",
    "ResponseCurve",
    "SurrogateModel",
    "NonPositiveInput",
    "DuplicateInputs",
    "BoxTooSmall",
    "NoConvergence",
    "cohesive_energy",
    "delta_from",
    "forward_model",
    "train_surrogate",
    "curve_mismatch",
    "inverse_identify",
    "load_target_csv",
]

N_POINTS = 12

#: Points per side of the grid on which the surrogate mismatch is scanned.
SEARCH_GRID = 41

#: Outer iterations without a 1% verified improvement before giving up.
STALL_LIMIT = 3


class NonPositiveInput(FempostError, ValueError):
    """A cohesive quantity that must be positive is not."""


class DuplicateInputs(FempostError, ValueError):
    """Two surrogate training inputs coincide."""


class BoxTooSmall(FempostError, RuntimeError):
    """Target curve unreachable inside the parameter box."""


@dataclass(frozen=True)
class TSLParams:
    """Cohesive strength Tc [MPa] and cohesive energy Gamma_c [N/mm]."""

    Tc: float
    Gamma_c: float

    def __post_init__(self):
        if self.Tc <= 0 or self.Gamma_c <= 0:
            raise NonPositiveInput(f"Tc and Gamma_c must be positive: {self}")

    @property
    def delta_c(self) -> float:
        return delta_from(self.Tc, self.Gamma_c)


def cohesive_energy(Tc: float, delta_c: float) -> float:
    """Cohesive energy of the bilinear law, 0.5 * Tc * delta_c."""
    if Tc <= 0 or delta_c < 0:
        raise NonPositiveInput(f"Tc must be > 0 and delta_c >= 0: ({Tc}, {delta_c})")
    return 0.5 * Tc * delta_c


def delta_from(Tc: float, Gamma_c: float) -> float:
    """Critical separation, inverse of :func:`cohesive_energy`."""
    if Tc <= 0 or Gamma_c <= 0:
        raise NonPositiveInput(f"Tc and Gamma_c must be positive: ({Tc}, {Gamma_c})")
    return 2.0 * Gamma_c / Tc


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


@dataclass
class SurrogateModel:
    """Parameter-to-curve surrogate over normalized (Tc, Gamma_c) inputs."""

    lo: np.ndarray              # normalization origin
    span: np.ndarray            # normalization width per input
    _predictor: object = field(repr=False)

    def predict(self, params) -> np.ndarray:
        """Predicted load vectors: shape (12,) for a :class:`TSLParams` or a
        (Tc, Gamma_c) pair, (n, 12) for an (n, 2) array of pairs."""
        if isinstance(params, TSLParams):
            params = (params.Tc, params.Gamma_c)
        x = np.asarray(params, dtype=float)
        y = np.asarray(self._predictor(np.atleast_2d((x - self.lo) / self.span)))
        return y.reshape(x.shape[:-1] + (N_POINTS,))


def _ridge_network(x, y, n_hidden=10, ridge=1e-8, seed=0):
    """Single-hidden-layer tanh network fit by regularized least squares.

    Hidden weights are drawn once from a fixed-seed generator; only the
    linear output layer is solved for, against the 80% training split.
    """
    rng = np.random.default_rng(seed)
    w = rng.normal(scale=2.0, size=(x.shape[1] + 1, n_hidden))
    n = x.shape[0]
    n_train = max(int(round(0.8 * n)), 3) if n > 3 else n
    perm = rng.permutation(n)
    train = perm[:n_train]

    def hidden(xx):
        return np.tanh(np.hstack([xx, np.ones((xx.shape[0], 1))]) @ w)

    h = hidden(x[train])
    beta = np.linalg.solve(
        h.T @ h + ridge * np.eye(n_hidden), h.T @ y[train]
    )
    return lambda xx: hidden(np.atleast_2d(xx)) @ beta


def train_surrogate(samples, kind: str = "interpolant", seed: int = 0) -> SurrogateModel:
    """Fit a surrogate from (TSLParams, ResponseCurve) training pairs.

    ``kind="interpolant"`` builds a Gaussian radial-basis interpolant that
    reproduces the training curves exactly; ``kind="network"`` fits a 10-unit
    single-hidden-layer network by regularized least squares.
    """
    if len(samples) < 3:
        raise ValueError("at least 3 training samples are required")
    x = np.array([[p.Tc, p.Gamma_c] for p, _ in samples])
    y = np.array([c.load for _, c in samples])
    if np.unique(x, axis=0).shape[0] != x.shape[0]:
        raise DuplicateInputs("coincident surrogate training inputs")
    lo = x.min(axis=0)
    span = np.ptp(x, axis=0)
    span = np.where(span > 0, span, 1.0)
    xn = (x - lo) / span
    if kind == "interpolant":
        predictor = RBFInterpolator(xn, y, kernel="gaussian", epsilon=1.0)
    elif kind == "network":
        predictor = _ridge_network(xn, y, seed=seed)
    else:
        raise ValueError(f"unknown surrogate kind {kind!r}")
    return SurrogateModel(lo=lo, span=span, _predictor=predictor)


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


def _minimize_surrogate(model: SurrogateModel, target: ResponseCurve, box) -> TSLParams:
    """Grid scan of the surrogate mismatch over the box, then one bounded
    local descent from the best grid point."""
    (t_lo, t_hi), (g_lo, g_hi) = box
    tc, gc = np.meshgrid(
        np.linspace(t_lo, t_hi, SEARCH_GRID), np.linspace(g_lo, g_hi, SEARCH_GRID)
    )
    grid = np.column_stack([tc.ravel(), gc.ravel()])
    sq_error = np.mean((model.predict(grid) - target.load) ** 2, axis=1)
    res = minimize(
        lambda x: curve_mismatch(model.predict(x), target),
        grid[np.argmin(sq_error)],
        method="L-BFGS-B",
        bounds=box,
    )
    return TSLParams(float(res.x[0]), float(res.x[1]))


def _known_curve(samples, params: TSLParams):
    """Stored curve of the training point allclose to *params*, or None."""
    for p, curve in samples:
        if np.allclose([params.Tc, params.Gamma_c], [p.Tc, p.Gamma_c]):
            return curve
    return None


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
    kind: str = "interpolant",
    seed: int = 0,
):
    """Identify (Tc, Gamma_c) whose forward response matches *target*.

    Returns ``(TSLParams, history)``; *history* lists one
    :class:`IdentificationStep` per outer iteration.  The returned optimum is
    the incumbent: the forward-verified evaluation with the smallest mismatch,
    so the incumbent mismatch is non-increasing across iterations.  A
    surrogate optimum that coincides with a training point is moved halfway
    to the box centre before verification; *forward* is never called twice
    on the same point.

    Raises :class:`BoxTooSmall` when the verified mismatch stops improving
    while still above tolerance, and :class:`NoConvergence` when the
    iteration budget runs out.
    """
    if np.any(target.cmod != _cmod_grid(config)):
        raise ValueError("target CMOD abscissae differ from the model window")
    samples = [(p, forward(p, config)) for p in _initial_design(box)]

    incumbent, inc_mismatch = min(
        ((p, curve_mismatch(c.load, target)) for p, c in samples),
        key=lambda t: t[1],
    )
    history: list[IdentificationStep] = []
    if inc_mismatch <= tol:
        history.append(IdentificationStep(incumbent, inc_mismatch, incumbent, inc_mismatch))
        return incumbent, history

    (t_lo, t_hi), (g_lo, g_hi) = box
    stall = 0
    for _ in range(max_outer):
        model = train_surrogate(samples, kind=kind, seed=seed)
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
            raise BoxTooSmall(
                f"mismatch stalled at {inc_mismatch:.4g} > tol {tol:.4g}; "
                "the target may be unreachable inside the box"
            )
    raise NoConvergence(f"no convergence after {max_outer} outer iterations")


def load_target_csv(path, config: ForwardConfig = ForwardConfig()) -> ResponseCurve:
    """Read a (CMOD, load) curve from comma-separated text and resample it
    onto the 12 common abscissae by linear interpolation."""
    table = read_csv(path)
    if table.shape[1] != 2:
        raise ValueError(f"expected 2 columns (cmod,load), got {table.shape[1]}")
    v, p = table[np.lexsort(table.T[::-1])].T
    grid = _cmod_grid(config)
    return ResponseCurve(cmod=grid, load=np.interp(grid, v, p))
