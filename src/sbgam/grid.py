"""Working grids, rescaled datasets and trapezoid-rule integration.

All fitting happens on the unit cube: each covariate is mapped affinely to
[0, 1] and every integral that appears in the estimating equations is a
trapezoid-rule sum on a product grid.  Because kernel rows are renormalized
under the same rule (see `kernels`), grid-level integration identities such
as "the integral of a one-dimensional marginal equals the integral of the
full field" hold exactly, not just up to quadrature error.  The fitting
code leans on that.

The streaming helpers at the bottom accumulate one-dimensional curves
and two-dimensional surfaces of per-observation fields without ever
materializing a full d-dimensional tensor: each observation's kernel
product vanishes outside a small window per dimension, so only
window-sized blocks are ever formed.  They serve the local constant
smoother for d >= 3 with links other than the Gaussian identity and the
Poisson log, which have closed-form marginals (see `nw_fit` and
`backfit`); the local linear smoother batches observations on the same
windows itself (see `ll_fit`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from .errors import InputError, require_integer

__all__ = [
    "Grid",
    "Dataset",
    "trapz_weights",
    "integrate_tensor",
    "default_bandwidths",
    "resolve_bandwidths",
    "MarginalAccumulator",
    "window_tensor",
]


def trapz_weights(points: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights for an increasing point vector."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 1 or points.size < 2:
        raise InputError("grid needs at least two points per dimension")
    w = np.empty_like(points)
    w[1:-1] = 0.5 * (points[2:] - points[:-2])
    w[0] = 0.5 * (points[1] - points[0])
    w[-1] = 0.5 * (points[-1] - points[-2])
    return w


@dataclass(frozen=True)
class Grid:
    """Product grid on the unit cube.

    points : tuple of ndarray
        Per-dimension point vectors, each strictly increasing from 0 to 1.
    """

    points: tuple

    weights: tuple = field(init=False, repr=False, compare=False)
    # points per dimension, read inside per-iterate code, so set once
    shape: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple(as_floats(p, "grid points") for p in self.points)
        if not pts:
            raise InputError("grid needs at least one dimension")
        for p in pts:
            if p.ndim != 1 or p.size < 5:
                raise InputError("grid needs at least five points per dimension")
            if not np.all(np.diff(p) > 0.0):
                raise InputError("grid points must be strictly increasing")
            if p[0] < -1e-12 or p[-1] > 1.0 + 1e-12:
                raise InputError("grid points must lie in [0, 1]")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", tuple(trapz_weights(p) for p in pts))
        object.__setattr__(self, "shape", tuple(p.size for p in pts))

    @classmethod
    def uniform(cls, ndim: int, n_points: int = 41) -> "Grid":
        """Equispaced grid covering [0, 1] in every dimension."""
        require_integer("ndim", ndim, 1)
        require_integer("n_points", n_points, 5)
        p = np.linspace(0.0, 1.0, n_points)
        return cls(points=tuple(p.copy() for _ in range(ndim)))

    @property
    def ndim(self) -> int:
        return len(self.points)


def integrate_tensor(tensor: np.ndarray, grid: Grid, keep=()) -> np.ndarray:
    """Integrate a full product-grid tensor over all dimensions not kept.

    Intended for small problems (tests, oracles); the fitters never form
    full product-grid tensors beyond d = 2.

    Parameters
    ----------
    tensor : ndarray
        Values on the product grid, axis j matching grid.points[j].
    keep : sequence of int
        Dimensions to keep, in increasing order; everything else is
        integrated out with trapezoid weights.

    Returns
    -------
    float or ndarray
        Scalar when keep is empty, else the marginal on the kept axes.
    """
    keep = tuple(keep)
    out = np.asarray(tensor, dtype=float)
    # contract from the highest axis down so kept-axis numbering is stable
    for ax in reversed(range(grid.ndim)):
        if ax in keep:
            continue
        out = np.tensordot(out, grid.weights[ax], axes=([ax], [0]))
    if keep == ():
        return float(out)
    return out


def as_floats(values, what: str) -> np.ndarray:
    """values as a float array; InputError, not numpy's ValueError or
    TypeError, when they are not numeric."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be numeric: {exc}") from None


def _covariate_matrix(x_raw) -> np.ndarray:
    """Raw covariates as a float (n, d) matrix, a vector taken as one
    column; InputError unless they form one of finite values with at
    least two rows and one column, so no reduction or broadcast over
    them can fail."""
    x = as_floats(x_raw, "covariates")
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[1] == 0:
        raise InputError(f"covariates must form an (n, d) matrix with "
                         f"d >= 1, got shape {x.shape}")
    if x.shape[0] < 2:
        raise InputError("need at least two observations")
    if not np.all(np.isfinite(x)):
        raise InputError("covariates contain non-finite values")
    return x


def _responses(y, n: int) -> np.ndarray:
    """Responses as a float (n,) vector; InputError for any other shape."""
    y = as_floats(y, "responses")
    if y.shape != (n,):
        raise InputError(f"response length {y.shape} does not match {n} rows")
    return y


def per_covariate(values, d: int, what: str) -> np.ndarray:
    """One value per covariate, (d,), from one value or d; InputError
    for any other shape."""
    v = as_floats(values, what)
    if v.shape not in ((), (1,), (d,)):
        raise InputError(f"expected 1 or {d} {what}, got shape {v.shape}")
    return np.broadcast_to(v, (d,)).copy()


def _support_bounds(lo, hi, d: int):
    """Support bounds (lo, hi), each (d,) from one value or d; InputError
    unless they are finite with hi > lo."""
    lo, hi = (per_covariate(b, d, f"support bounds {nm}")
              for b, nm in ((lo, "lo"), (hi, "hi")))
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise InputError(f"support bounds must be finite, got "
                         f"lo={lo.tolist()}, hi={hi.tolist()}")
    if np.any(hi <= lo):
        raise InputError("support bounds must satisfy hi > lo")
    return lo, hi


@dataclass(frozen=True)
class Dataset:
    """Response vector with covariates rescaled to the unit cube.

    y : ndarray, shape (n,)
    x : ndarray, shape (n, d), entries in [0, 1]
    lo, hi : ndarray, shape (d,), from one value or d
        Original-coordinate bounds, finite with hi > lo, realizing the
        rescaling; `from_original` applies it and `to_original` undoes it.
    """

    y: np.ndarray
    x: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        # validates direct construction; from_raw and with_support check
        # their inputs themselves and build through _rescaled
        y = as_floats(self.y, "responses")
        x = as_floats(self.x, "covariates")
        if x.ndim != 2 or x.shape[1] == 0:
            raise InputError("covariates must form an (n, d) matrix, d >= 1")
        y = _responses(y, x.shape[0])
        if x.shape[0] < 2:
            raise InputError("need at least two observations")
        if not np.all(np.isfinite(x)):
            raise InputError("covariates contain non-finite values")
        if x.min() < -1e-12 or x.max() > 1.0 + 1e-12:
            raise InputError("rescaled covariates must lie in [0, 1]")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", np.clip(x, 0.0, 1.0))
        lo, hi = _support_bounds(self.lo, self.hi, x.shape[1])
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def from_raw(cls, x_raw: np.ndarray, y: np.ndarray) -> "Dataset":
        """Rescale each covariate by its own observed range."""
        x_raw = _covariate_matrix(x_raw)
        lo = x_raw.min(axis=0)
        hi = x_raw.max(axis=0)
        flat = np.nonzero(hi <= lo)[0]
        if flat.size:
            raise InputError(
                f"covariate column {flat[0] + 1} is constant and cannot "
                f"be rescaled"
            )
        return cls._rescaled(y, (x_raw - lo) / (hi - lo), lo, hi)

    @classmethod
    def with_support(cls, x_raw: np.ndarray, y: np.ndarray, lo, hi) -> "Dataset":
        """Rescale by known support bounds instead of the observed range."""
        x_raw = _covariate_matrix(x_raw)
        lo, hi = _support_bounds(lo, hi, x_raw.shape[1])
        u = (x_raw - lo) / (hi - lo)
        if u.min() < -1e-9 or u.max() > 1.0 + 1e-9:
            raise InputError("data fall outside the stated support bounds")
        return cls._rescaled(y, u, lo, hi)

    @classmethod
    def _rescaled(cls, y, u, lo, hi) -> "Dataset":
        """A Dataset of covariates u that the caller checked and rescaled
        by checked bounds into [0, 1] up to rounding.  Left to check are
        the responses and u's finiteness (hi - lo may overflow); the rest
        of `__post_init__` would repeat the caller's checks."""
        y = _responses(y, u.shape[0])
        if not np.all(np.isfinite(u)):
            raise InputError("covariates contain non-finite values")
        data = object.__new__(cls)
        for name, value in (("y", y), ("x", np.clip(u, 0.0, 1.0)),
                            ("lo", lo), ("hi", hi)):
            object.__setattr__(data, name, value)
        return data

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def ndim(self) -> int:
        return self.x.shape[1]

    def to_original(self, u: np.ndarray, j: int) -> np.ndarray:
        return self.lo[j] + np.asarray(u, dtype=float) * (self.hi[j] - self.lo[j])

    def from_original(self, x: np.ndarray, j: int) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.lo[j]) / (self.hi[j] - self.lo[j])


def default_bandwidths(x: np.ndarray, c: float = 1.0) -> np.ndarray:
    """Rule-of-thumb bandwidths c * sd(x_j) * n^{-1/5} on the rescaled scale.

    Values are clipped into (0, 1/2]; the constant c is the only tuning
    handle and multiplies every dimension alike.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    sd = x.std(axis=0, ddof=1)
    h = c * sd * n ** (-0.2)
    return np.clip(h, 1e-4, 0.5)


def resolve_bandwidths(bandwidths, d: int, scale=1.0):
    """The given bandwidths (one, or one per dimension) times scale, as a
    (d,) array; InputError for any other count, or for a scale that is
    not finite and positive.  None stays None, and the caller takes
    `default_bandwidths` of its data with c = scale."""
    if not (isfinite(scale) and scale > 0.0):
        raise InputError(f"bandwidth scale must be finite and positive, "
                         f"got {scale!r}")
    if bandwidths is None:
        return None
    return per_covariate(as_floats(bandwidths, "bandwidths") * scale, d,
                         "bandwidths")


# ---------------------------------------------------------------------------
# streaming marginal accumulation


_LETTERS = "abcdefgh"


def window_tensor(row_slices) -> np.ndarray:
    """Outer product of per-dimension row segments.

    row_slices is a sequence of one-dimensional arrays; the result has one
    axis per entry.  Used to form a single observation's kernel product on
    its support window.
    """
    out = np.asarray(row_slices[0], dtype=float)
    for seg in row_slices[1:]:
        out = out[..., None] * np.asarray(seg, dtype=float)
    return out


class MarginalAccumulator:
    """Accumulate trapezoid marginals of per-observation window fields.

    One instance accumulates, over calls to `add`, the one-dimensional
    marginal curves for dimensions listed in `curve_dims` and the
    two-dimensional marginal surfaces for the pairs in `pair_dims`.
    Each `add` receives the index windows of one observation's field and the
    field values on that window only; nothing of size prod(G_j) is ever
    formed.
    """

    def __init__(self, grid: Grid, curve_dims=(), pair_dims=()):
        self.grid = grid
        self.curve_dims = tuple(curve_dims)
        self.pair_dims = tuple(tuple(p) for p in pair_dims)
        self.curves = {j: np.zeros(grid.shape[j]) for j in self.curve_dims}
        self.pairs = {
            (j, l): np.zeros((grid.shape[j], grid.shape[l]))
            for (j, l) in self.pair_dims
        }

    def add(self, lo, hi, field: np.ndarray) -> None:
        """Add one observation's field given on its window.

        lo, hi : sequences of int, one per dimension
            Half-open index ranges of the window.
        field : ndarray
            Values on the window, axis order matching the grid.
        """
        grid = self.grid
        d = grid.ndim
        wseg = [grid.weights[j][lo[j]:hi[j]] for j in range(d)]
        letters = _LETTERS[:d]

        for j in self.curve_dims:
            spec = f"{letters},{''.join(c for i, c in enumerate(letters) if i != j)}->{letters[j]}"
            other = window_tensor([wseg[i] for i in range(d) if i != j]) if d > 1 else None
            if d == 1:
                contrib = field
            else:
                contrib = np.einsum(spec, field, other)
            self.curves[j][lo[j]:hi[j]] += contrib

        for (j, l) in self.pair_dims:
            rest = [i for i in range(d) if i not in (j, l)]
            if rest:
                other = window_tensor([wseg[i] for i in rest])
                spec = f"{letters},{''.join(letters[i] for i in rest)}->{letters[j]}{letters[l]}"
                contrib = np.einsum(spec, field, other)
            else:
                contrib = field
            self.pairs[(j, l)][lo[j]:hi[j], lo[l]:hi[l]] += contrib
