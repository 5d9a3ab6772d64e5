"""Exact-covariance fractional Brownian simulation and Monte-Carlo estimates.

Paths are sampled jointly Gaussian on a fixed grid from the dense covariance

    E[B_s B_t] = ( s^2H + t^2H - |t - s|^2H ) / 2,

factorized once by Cholesky, so the marginal law on the grid is exact for
any Hurst index in (1/2, 1); the only approximation anywhere downstream is
the trapezoid rule for time-integral functionals, controlled by the grid
refinement factor.  Draws come from a single counter-based generator keyed
by the seed, which makes every ensemble bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functional import Expr, GridPath, TimeGrid, evaluate, free_vars, times
from .kernel import _hval, abs_pow


def covariance(s: float, t: float, h) -> float:
    """E[B_s B_t] for fractional Brownian motion with Hurst index h."""
    hh = _hval(h)
    p = 2.0 * hh
    return 0.5 * (abs_pow(s, p) + abs_pow(t, p) - abs_pow(t - s, p))


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo run parameters; refinement subdivides every grid cell."""

    n_paths: int = 10_000
    seed: int = 0
    grid_refinement: int = 1

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        if self.grid_refinement < 1:
            raise ValueError("grid refinement factor must be >= 1")


@dataclass
class FbmEnsemble:
    """Simulated paths on a grid; values[i, k] = B_{t_k} of path i (column 0 is 0)."""

    grid: TimeGrid
    values: np.ndarray
    h: float
    seed: int

    def __post_init__(self):
        if self.values.shape[1] != len(self.grid.times):
            raise ValueError("value columns must match grid times")
        if np.any(self.values[:, 0] != 0.0):
            raise ValueError("paths must start at B_0 = 0")

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def as_grid_path(self) -> GridPath:
        """Vectorized view: evaluation broadcasts across all paths at once."""
        return GridPath(self.grid.times, self.values)

    def path(self, i: int) -> GridPath:
        return GridPath(self.grid.times, self.values[i])


def simulate(grid: TimeGrid, h, cfg: McConfig) -> FbmEnsemble:
    """Sample an ensemble with the exact joint law on the grid times."""
    hh = _hval(h)
    p = 2.0 * hh
    ts = np.asarray(grid.times[1:])
    # covariance(s, t) for s = ts[i], t = ts[j], in the same operation order
    pow_t = _abs_pow_each(ts, p)
    lag_pow = _abs_pow_each(ts[None, :] - ts[:, None], p)
    cov = 0.5 * ((pow_t[:, None] + pow_t[None, :]) - lag_pow)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"covariance factorization failed for grid {grid.times}: {exc}; "
            "grid times may be too close for the matrix to stay positive definite"
        ) from exc
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    z = rng.standard_normal((cfg.n_paths, ts.size))
    vals = np.hstack([np.zeros((cfg.n_paths, 1)), z @ chol.T])
    return FbmEnsemble(grid, vals, hh, cfg.seed)


def _abs_pow_each(x: np.ndarray, p: float) -> np.ndarray:
    """Scalar abs_pow at every entry of x, called once per distinct value."""
    distinct, where = np.unique(x, return_inverse=True)
    return np.asarray([abs_pow(v, p) for v in distinct])[where].reshape(x.shape)


def grid_for(expr: Expr, refinement: int = 1) -> TimeGrid:
    """Smallest grid carrying the functional's times, refined per cell."""
    return TimeGrid.covering(times(expr)).refine(refinement)


@dataclass
class McEstimate:
    estimate: float
    stderr: float
    n_paths: int
    grid: TimeGrid


def mc_expect(expr: Expr, h, cfg: McConfig, grid: "TimeGrid | None" = None,
              ensemble: "FbmEnsemble | None" = None) -> McEstimate:
    """Monte-Carlo E[expr] with standard error, on an exact-law ensemble.

    Continuous-time integrals inside expr are approximated by the trapezoid
    rule on the (refined) grid; everything else is exact in distribution.
    """
    if free_vars(expr):
        raise ValueError("cannot average a functional with unbound variables")
    if cfg.n_paths < 2:
        raise ValueError("standard error needs at least two paths")
    if ensemble is None:
        if grid is None:
            grid = grid_for(expr, cfg.grid_refinement)
        ensemble = simulate(grid, h, cfg)
    samples = np.asarray(evaluate(expr, h=ensemble.h,
                                  path=ensemble.as_grid_path()), dtype=float)
    samples = np.broadcast_to(samples, (ensemble.n_paths,))
    mean = math.fsum(samples.tolist()) / samples.size
    var = math.fsum(((samples - mean) ** 2).tolist()) / (samples.size - 1)
    return McEstimate(mean, math.sqrt(var / samples.size),
                      ensemble.n_paths, ensemble.grid)
