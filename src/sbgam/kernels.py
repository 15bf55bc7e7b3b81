"""Boundary-corrected kernel weights on the unit interval.

Smoothing always happens in rescaled coordinates, so every covariate lives
on [0, 1].  A base kernel K0 is a symmetric density supported on [-1, 1];
with bandwidth h it scales to K0((u - v) / h) / h.  Near the edges that
scaled kernel loses mass outside [0, 1], so it is divided by its own mass
over the interval:

    K_h(u, v) = K0_h(u - v) / integral_0^1 K0_h(w - v) dw

which restores unit integral in u for every data location v
(`boundary_kernel`).  Discrete rows evaluated on a working grid are
normalized under the trapezoid rule instead, so that grid-level
integration of any row is exact rather than only O(delta^2) accurate.
The 1/h and the continuous divisor are constant along a row, so that
normalization cancels them: `kernel_rows` evaluates only the base-kernel
shape K0((u - v) / h) and divides each row once by its trapezoid mass.
That discrete normalization is what makes the backfitting identities
(marginals of marginals, Fubini on the grid) hold to machine precision
downstream.  `kernel_design` makes a fit's rows, after the grid and
bandwidth checks that the fitters and the reference oracles share.

Conventions: `v` is the data location, `u` the evaluation point, both in
[0, 1]; bandwidths satisfy 0 < h <= 1/2 so at most one edge correction is
active at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .grid import Dataset, Grid, per_covariate

__all__ = [
    "KernelConstants",
    "base_kernel",
    "base_kernel_cdf",
    "boundary_kernel",
    "kernel_design",
    "kernel_rows",
    "kernel_constants",
    "partial_moment",
    "row_windows",
    "validate_bandwidths",
    "validate_kernel",
    "KERNEL_NAMES",
]

# each base kernel writes K0(t) into out, an array of t's shape that may
# be t itself, in passes that all work in place; `base_kernel` hands it a
# new array, `kernel_rows` the array of t


def _clipped_parabola(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """max(1 - t^2, 0), written into out."""
    np.square(t, out=out)
    np.subtract(1.0, out, out=out)
    return np.maximum(out, 0.0, out=out)


def _epanechnikov(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    s = _clipped_parabola(t, out)
    s *= 0.75
    return s


def _epanechnikov_cdf(t: np.ndarray) -> np.ndarray:
    tc = np.clip(t, -1.0, 1.0)
    return 0.25 * (2.0 + 3.0 * tc - tc**3)


def _quartic(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    s = _clipped_parabola(t, out)
    # s (15/16 s): the same rounding as (15/16) s s
    s *= s * (15.0 / 16.0)
    return s


def _quartic_cdf(t: np.ndarray) -> np.ndarray:
    tc = np.clip(t, -1.0, 1.0)
    return 0.5 + (15.0 / 16.0) * (tc - 2.0 * tc**3 / 3.0 + tc**5 / 5.0)


def _triangular(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.abs(t, out=out)
    np.subtract(1.0, out, out=out)
    return np.maximum(out, 0.0, out=out)


def _triangular_cdf(t: np.ndarray) -> np.ndarray:
    tc = np.clip(t, -1.0, 1.0)
    lower = 0.5 * (1.0 + tc) ** 2
    upper = 1.0 - 0.5 * (1.0 - tc) ** 2
    return np.where(tc < 0.0, lower, upper)


# name -> (pdf, cdf, mu2, roughness, kappa), the constants in closed form;
# kappa integrates mu1(-t) / mu0(-t) over [0, 1], a rational function of t:
#   epanechnikov  3 (1 - t)^2 / (4 (2 - t))
#   quartic       5 (1 - t)^3 / (2 (3 t^2 - 9 t + 8))
#   triangular    (1 - t)^2 (1 + 2 t) / (3 (1 + 2 t - t^2))
_BASES = {
    "epanechnikov": (_epanechnikov, _epanechnikov_cdf, 0.2, 0.6,
                     0.75 * math.log(2.0) - 0.375),
    "quartic": (_quartic, _quartic_cdf, 1.0 / 7.0, 5.0 / 7.0,
                math.sqrt(15.0) / 6.0 * math.atan(math.sqrt(15.0) / 7.0)
                + 5.0 / 18.0 * math.log(2.0) - 5.0 / 12.0),
    "triangular": (_triangular, _triangular_cdf, 1.0 / 6.0, 2.0 / 3.0,
                   math.sqrt(2.0) * math.log(1.0 + math.sqrt(2.0))
                   - 2.0 / 3.0 - 2.0 / 3.0 * math.log(2.0)),
}
KERNEL_NAMES = tuple(_BASES)


def validate_kernel(name: str) -> str:
    """Return name, or raise InputError unless it names a base kernel."""
    if name not in KERNEL_NAMES:
        raise InputError(
            f"unknown kernel {name!r}; choose one of {', '.join(KERNEL_NAMES)}"
        )
    return name


def _base(name: str):
    return _BASES[validate_kernel(name)]


def base_kernel(t: np.ndarray, name: str = "epanechnikov") -> np.ndarray:
    """Evaluate the base kernel K0 at ``t`` into a new array."""
    t = np.asarray(t, dtype=float)
    return _base(name)[0](t, np.empty_like(t))


def base_kernel_cdf(t: np.ndarray, name: str = "epanechnikov") -> np.ndarray:
    """Evaluate integral_{-1}^t K0, clipped to [0, 1] outside the support."""
    return _base(name)[1](np.asarray(t, dtype=float))


def validate_bandwidths(h, ndim: int) -> np.ndarray:
    """Broadcast and check bandwidths, one per covariate, each in (0, 1/2]."""
    h = per_covariate(h, ndim, "bandwidths")
    if not np.all(np.isfinite(h)):
        raise InputError("bandwidths must be finite")
    if np.any(h <= 0.0) or np.any(h > 0.5):
        raise InputError(
            "bandwidths must lie in (0, 0.5] in rescaled coordinates; "
            f"got {h}"
        )
    return h


def boundary_kernel(u, v, h: float, name: str = "epanechnikov") -> np.ndarray:
    """Boundary-corrected kernel K_h(u, v) for u, v in [0, 1].

    Parameters
    ----------
    u, v : array_like
        Evaluation points and data locations; broadcast against each other.
    h : float
        Bandwidth in (0, 1/2].
    name : str
        Base kernel name.

    Returns
    -------
    ndarray
        K0_h(u - v) divided by its mass over [0, 1] at location v, so that
        the continuous integral over u in [0, 1] equals one.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    cdf = _base(name)[1]
    vals = base_kernel((u - v) / h, name) / h
    mass = cdf((1.0 - v) / h) - cdf((0.0 - v) / h)
    return vals / mass


def kernel_rows(
    grid_points: np.ndarray,
    v: np.ndarray,
    h: float,
    name: str,
    weights: np.ndarray,
) -> np.ndarray:
    """Discrete kernel rows, one per data location, trapezoid-normalized.

    Parameters
    ----------
    grid_points : ndarray, shape (G,)
        Increasing working grid in [0, 1].
    v : ndarray, shape (n,)
        Data locations in [0, 1].
    h : float
        Bandwidth in (0, 1/2].
    name : str
        Base kernel name.
    weights : ndarray, shape (G,)
        Trapezoid weights of the grid.

    Returns
    -------
    ndarray, shape (n, G)
        Row i holds K_h(grid, v_i) renormalized so that its trapezoid-rule
        integral over the grid is exactly one.  The 1/h and the continuous
        edge divisor of `boundary_kernel` are constant along the row and
        cancel in that normalization, so the row is formed as
        K0((grid - v_i) / h) divided once by its trapezoid mass.
    """
    grid_points = np.asarray(grid_points, dtype=float)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    t = np.subtract(grid_points[None, :], v[:, None])
    t /= h
    rows = _base(name)[0](t, t)
    mass = rows @ weights
    if np.any(mass <= 0.0):
        bad = v[mass <= 0.0][0]
        raise InputError(
            f"no grid point falls inside the kernel support at v = {bad:.4f}; "
            f"bandwidth {h:.4g} is below the grid resolution"
        )
    rows /= mass[:, None]
    return rows


def kernel_design(dataset: Dataset, bandwidths, grid: Grid | None,
                  name: str):
    """The checked kernel design of a fit: (grid, h, rows).

    The grid defaults to the uniform one and must be a Grid with one axis
    per covariate, and the bandwidths (one, or one per covariate) must lie
    in (0, 1/2].  rows[j] holds the (n, G_j) kernel rows of covariate j.
    """
    d = dataset.ndim
    grid = Grid.uniform(d) if grid is None else grid
    if not isinstance(grid, Grid):
        raise InputError("grid must be a Grid")
    if grid.ndim != d:
        raise InputError(f"grid has {grid.ndim} dimensions, data has {d}")
    h = validate_bandwidths(bandwidths, d)
    return grid, h, [kernel_rows(grid.points[j], dataset.x[:, j], h[j], name,
                                 grid.weights[j]) for j in range(d)]


def row_windows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-open index ranges [lo, hi) of the nonzero part of each row."""
    nz = rows > 0.0
    lo = nz.argmax(axis=1)
    hi = rows.shape[1] - nz[:, ::-1].argmax(axis=1)
    return lo, hi


def partial_moment(j: int, c: float, name: str = "epanechnikov") -> float:
    """Truncated moment integral_c^1 u^j K0(u) du.

    Exact Gauss-Legendre evaluation; the triangular kernel is handled
    piecewise around its kink at zero.
    """
    pdf = _base(name)[0]
    c = float(max(c, -1.0))
    if c >= 1.0:
        return 0.0
    breaks = [c, 1.0] if c >= 0.0 else [c, 0.0, 1.0]
    nodes, wts = np.polynomial.legendre.leggauss(24)
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        u = mid + half * nodes
        total += half * float(np.sum(wts * u**j * pdf(u, np.empty_like(u))))
    return total


@dataclass(frozen=True)
class KernelConstants:
    """Moment constants of a base kernel.

    mu2 is the second moment, roughness the integral of the squared kernel,
    and kappa the boundary constant integral_0^1 mu1(-t) / mu0(-t) dt built
    from the truncated moments mu_j(c) = integral_c^1 u^j K0(u) du.
    """

    mu2: float
    roughness: float
    kappa: float


def kernel_constants(name: str = "epanechnikov") -> KernelConstants:
    """Moment constants for a base kernel by name."""
    return KernelConstants(*_base(name)[2:])
