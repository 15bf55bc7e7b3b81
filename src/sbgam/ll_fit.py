"""Additive quasi-likelihood fitting with local linear smoothing.

Local linear smoothing replaces the single field eta(x) of the local
constant estimator by a predictor that is linear around each smoothing
point,

    eta(u, x) = eta_00 + sum_j [ eta_0j(x_j) + t_j(u_j, x_j) eta_j(x_j) ]

with t_j(u_j, x_j) = (u_j - x_j) / h_j, evaluated at the observations
u = X_i.  The components eta_0j are the fitted curves; eta_j are the
bandwidth-scaled slope curves that remove the boundary and design bias of
the local constant fit.

Each Newton step expands the smoothed quasi-likelihood to second order.
The curvature enters through the observation weights

    w_i(x) = -q2(eta(X_i, x), Y_i) K_h(x, X_i)

whose moments against the regressors (1, t_j) form, per component j, a
2 x 2 matrix field M_j(x_j) and, per pair (j, l), cross moment surfaces.
The inner Gauss-Seidel loop sweeps over components solving the 2 x 2
systems pointwise; the outer loop updates the predictor, recenters each
(eta_0j, eta_j) pair against the constraint

    integral [ eta_0j V00_j + eta_j V0j_j ] dx_j = 0,

and absorbs the shifts into the intercept, leaving the fitted predictor
unchanged.

Every moment is a sum over observations of a field supported on the
product of that observation's one-dimensional kernel windows, and the
regressors t_j enter only as per-observation, per-axis factors.  One
engine serves every d.  `ll_prepare` orders the observations by their
window widths and splits them into blocks once per fit, each padded only
to its own widest windows.  Per iterate, one family call per block gives
the weight, score and quasi-likelihood fields on the block's windows;
each field is integrated down to window curves and pair surfaces, the
t_j are multiplied in there, and the results are scattered onto the
grid.  Nothing of full product-grid size is formed.

The Newton loop, the Gauss-Seidel scaffold, the damped step with
recentering, input preparation and the fitted-model base live in
`nw_fit`; this module supplies the moment marginals, the pointwise 2 x 2
solve of each component block and the constraint functional above.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from operator import attrgetter

import numpy as np

from .family import Family
from .grid import Dataset, Grid
from .nw_fit import (
    AdditiveFit,
    FitConfig,
    FitContext,
    _check_weight,
    _damped_step,
    _gauss_seidel,
    _newton_fit,
)

__all__ = [
    "LlContext",
    "LlMarginals",
    "LlFit",
    "ll_prepare",
    "ll_marginals",
    "ll_inner_solve",
    "ll_outer_update",
    "fit_ll",
    "ll_predictor_field",
]

# cap, in scalar cells, on one block of observations times their padded
# windows; ll_prepare splits the data by it.  About seven such arrays are
# alive at once in ll_marginals (the predictor, the kernel product and the
# family's fields), so a block peaks near 3 MB; 100k cells raised the peak
# resident set by 5 MB and ran no faster
BLOCK_CELLS = 50_000


@dataclass
class LlContext(FitContext):
    """Shared precomputations plus regressor offsets and kernel windows.

    tvals[j] holds t_j on the grid, (n, G_j).  blocks holds one
    (obs, gathered) pair per block of observations: obs their indices,
    (B,), and gathered[j] the grid indices, kernel values, t_j and
    trapezoid weights on each observation's window of dimension j, each
    (B, W_j) for the block's widest window W_j, padded with zero kernel
    cells.
    """

    tvals: list | None = None
    blocks: list | None = None


@dataclass
class LlMarginals:
    """Weight moments and score marginals at one iterate.

    Curves (per dimension j): v00, v01 and v11 are the moments of the
    observation weights against 1, t_j and t_j^2 marginalized to x_j, and
    z0, z1 the score smooths against 1 and t_j.  Surfaces (per pair
    (j, l), j < l, on the (x_j, x_l) grid): p00, p0a, p0b, p11 are the
    moments against 1, t_j, t_l and t_j t_l.
    """

    mass: float
    v00: list
    v01: list
    v11: list
    p00: dict
    p0a: dict
    p0b: dict
    p11: dict
    z0: list
    z1: list
    score00: float
    sq: float

    total = property(attrgetter("mass"))

    def constraint(self, grid: Grid, j: int, curve0, curve1) -> float:
        """Constraint functional integral [c0 V00_j + c1 V0j_j] dx_j."""
        tw = grid.weights[j]
        return (float(tw @ (curve0 * self.v00[j]))
                + float(tw @ (curve1 * self.v01[j])))

    def residual_norm(self, grid: Grid) -> float:
        """Size of the estimating-equation fields at this iterate."""
        parts = self.score00 ** 2
        for j in range(grid.ndim):
            parts += float(grid.weights[j] @ (self.z0[j] ** 2))
            parts += float(grid.weights[j] @ (self.z1[j] ** 2))
        return float(np.sqrt(parts))


def ll_prepare(
    dataset: Dataset,
    bandwidths,
    grid: Grid | None = None,
    family: Family | str = "gaussian",
    kernel: str = "epanechnikov",
) -> LlContext:
    """Validate inputs and precompute rows, windows and regressor offsets."""
    ctx = LlContext.build(dataset, bandwidths, grid, family, kernel)
    grid, h = ctx.grid, ctx.bandwidths
    ctx.tvals = [
        (dataset.x[:, j][:, None] - grid.points[j][None, :]) / h[j]
        for j in range(dataset.ndim)
    ]
    ctx.blocks = []
    for obs, widths in _block_split(
            np.stack([hi - lo for lo, hi in ctx.windows], axis=1)):
        gathered = []
        for j, width in enumerate(widths):
            lo = np.minimum(ctx.windows[j][0][obs], grid.shape[j] - width)
            idx = lo[:, None] + np.arange(width)
            gathered.append((idx,
                             np.take_along_axis(ctx.rows[j][obs], idx, 1),
                             np.take_along_axis(ctx.tvals[j][obs], idx, 1),
                             grid.weights[j][idx]))
        ctx.blocks.append((obs, gathered))
    return ctx


def _block_split(widths):
    """Blocks of observations, each with its widest window per dimension.

    widths is (n, d), each observation's window width per dimension.
    Observations are ordered by their widths, lexicographically, and
    taken greedily while a block's padded cells stay within BLOCK_CELLS.
    """
    order = np.lexsort(widths.T[::-1])
    blocks, start = [], 0
    while start < len(order):
        top = np.maximum.accumulate(widths[order[start:]], axis=0)
        cells = np.arange(1, len(top) + 1) * top.prod(axis=1)
        size = max(1, int(np.searchsorted(cells, BLOCK_CELLS, "right")))
        blocks.append((order[start:start + size], top[size - 1].tolist()))
        start += size
    return blocks


def ll_predictor_field(ctx: LlContext, eta00: float, comps0, comps1,
                       i: int) -> np.ndarray:
    """The local linear predictor eta(X_i, x) on the full product grid.

    Meant for small problems (tests, diagnostics); the fitting code forms
    these fields only on kernel windows.
    """
    grid = ctx.grid
    out = np.full(grid.shape, float(eta00))
    for j in range(grid.ndim):
        shape = [1] * grid.ndim
        shape[j] = grid.shape[j]
        out = out + (comps0[j] + ctx.tvals[j][i] * comps1[j]).reshape(shape)
    return out


def _ll_check(marg: LlMarginals, grid: Grid):
    # the smaller eigenvalue of each pointwise 2 x 2 moment matrix
    lam_min = []
    for v00, v01, v11 in zip(marg.v00, marg.v01, marg.v11):
        tr = v00 + v11
        det = v00 * v11 - v01 ** 2
        lam_min.append(
            0.5 * (tr - np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))))
    _check_weight(marg.mass, lam_min, grid)


def _integrate_out(field, wts, keep):
    """Integrate a (B, W_1, ..., W_d) block over the window axes not kept.

    wts[j] holds each observation's trapezoid weights on its window of
    dimension j, shape (B, W_j); the kept axes stay in increasing order.
    """
    axes = list(range(len(wts) + 1))
    for j in reversed(range(len(wts))):
        if j not in keep:
            rest = [a for a in axes if a != j + 1]
            field = np.einsum(field, axes, wts[j], [0, j + 1], rest)
            axes = rest
    return field


def _window_marginals(field, wts, pairs):
    """Window curves (B, W_j) and pair surfaces (B, W_j, W_l) of a block.

    pairs must hold every (0, j): the curves are integrated from those.
    """
    if len(wts) == 1:
        return [field], {}
    surf = {p: _integrate_out(field, wts, p) for p in pairs}
    curves = [np.einsum("zab,zb->za", surf[0, 1], wts[1])]
    curves += [np.einsum("zab,za->zb", surf[0, j], wts[0])
               for j in range(1, len(wts))]
    return curves, surf


def ll_marginals(ctx: LlContext, eta00: float, comps0, comps1) -> LlMarginals:
    """Weight moments and score marginals at the given iterate.

    Each block of B observations is evaluated on its kernel windows,
    (B, W_1, ..., W_d), with one call of the family's `fields`, whose
    weight, score and quasi-likelihood fields are scaled in place by the
    kernel product; see the module docstring.
    """
    grid, fam, y = ctx.grid, ctx.family, ctx.dataset.y
    n, d, shape = ctx.dataset.n, grid.ndim, grid.shape
    # combinations lists the pairs (0, 1), ..., (0, d - 1) first
    pairs = list(combinations(range(d), 2))
    acc = defaultdict(float)
    sq = 0.0
    for obs, gathered in ctx.blocks:
        idx, k, t, w = zip(*gathered)
        u, kp = eta00, 1.0
        for j in range(d):
            axes = [len(obs)] + [1] * d
            axes[j + 1] = -1
            u = u + (comps0[j][idx[j]]
                     + t[j] * comps1[j][idx[j]]).reshape(axes)
            kp = kp * k[j].reshape(axes)
        fields = fam.fields(u, y[obs].reshape(-1, *[1] * d))
        for f in fields:
            f *= kp
        wfield, sfield, qfield = fields
        wc, ws = _window_marginals(wfield, w, pairs)
        sc, _ = _window_marginals(sfield, w, pairs[:d - 1])
        sq += float(_integrate_out(qfield, w, ()).sum())
        for j in range(d):
            for nm, vals in (("v00", wc[j]), ("v01", t[j] * wc[j]),
                             ("v11", t[j] * t[j] * wc[j]), ("z0", sc[j]),
                             ("z1", t[j] * sc[j])):
                acc[nm, j] += np.bincount(idx[j].ravel(), vals.ravel(),
                                          shape[j])
        for j, l in pairs:
            flat = (idx[j][:, :, None] * shape[l] + idx[l][:, None, :]).ravel()
            tj, tl, surf = t[j][:, :, None], t[l][:, None, :], ws[j, l]
            for nm, vals in (("p00", surf), ("p0a", tj * surf),
                             ("p0b", tl * surf), ("p11", tj * tl * surf)):
                acc[nm, (j, l)] += np.bincount(flat, vals.ravel(),
                                               shape[j] * shape[l])
    curves = {nm: [acc[nm, j] / n for j in range(d)]
              for nm in ("v00", "v01", "v11", "z0", "z1")}
    surfaces = {nm: {(j, l): acc[nm, (j, l)].reshape(shape[j], shape[l]) / n
                     for j, l in pairs} for nm in ("p00", "p0a", "p0b", "p11")}
    tw0 = grid.weights[0]
    marg = LlMarginals(mass=float(tw0 @ curves["v00"][0]),
                       score00=float(tw0 @ curves["z0"][0]), sq=sq / n,
                       **curves, **surfaces)
    _ll_check(marg, grid)
    return marg


def _solve2(marg: LlMarginals, j: int, r0, r1):
    """Pointwise solve of component j's 2 x 2 moment system."""
    v00, v01, v11 = marg.v00[j], marg.v01[j], marg.v11[j]
    det = v00 * v11 - v01 * v01
    return (v11 * r0 - v01 * r1) / det, (v00 * r1 - v01 * r0) / det


def ll_inner_solve(marg: LlMarginals, grid: Grid, config: FitConfig):
    """Gauss-Seidel sweeps over the pointwise 2 x 2 component systems.

    Returns (xi00, xi0, xi1, sweeps, contraction, change_history); each
    (xi0[j], xi1[j]) pair is centered against the constraint functional.
    """
    d = grid.ndim
    tw = grid.weights
    xi00 = marg.score00 / marg.mass

    def rhs(j):
        return (marg.z0[j] - xi00 * marg.v00[j],
                marg.z1[j] - xi00 * marg.v01[j])

    def update(j, xi0, xi1):
        r0, r1 = rhs(j)
        for l in range(d):
            if l == j:
                continue
            g0 = tw[l] * xi0[l]
            g1 = tw[l] * xi1[l]
            if j < l:
                r0 = r0 - marg.p00[(j, l)] @ g0 - marg.p0b[(j, l)] @ g1
                r1 = r1 - marg.p0a[(j, l)] @ g0 - marg.p11[(j, l)] @ g1
            else:
                r0 = r0 - g0 @ marg.p00[(l, j)] - g1 @ marg.p0a[(l, j)]
                r1 = r1 - g0 @ marg.p0b[(l, j)] - g1 @ marg.p11[(l, j)]
        return _solve2(marg, j, r0, r1)

    return (xi00, *_gauss_seidel(marg, grid, config,
                                 lambda j: _solve2(marg, j, *rhs(j)), update))


def ll_outer_update(ctx: LlContext, eta00: float, comps0, comps1,
                    xi00: float, xi0, xi1, config: FitConfig):
    """Apply one damped Newton step and recenter at the new iterate.

    Returns (eta00, comps0, comps1, marginals, constraint_residual, change).
    """
    return _damped_step(ctx, eta00, [comps0, comps1], xi00, [xi0, xi1],
                        config, ll_marginals)


@dataclass
class LlFit(AdditiveFit):
    """Fitted additive predictor with local linear components.

    components0[j] tabulates the centered component curve on
    grid.points[j]; components1[j] the bandwidth-scaled slope curve, so
    components1[j] / bandwidths[j] is the derivative of the component in
    rescaled coordinates.
    """

    eta00: float
    components0: list
    components1: list

    intercept = property(attrgetter("eta00"))
    curves = property(attrgetter("components0"))

    def derivative_curve(self, j: int) -> np.ndarray:
        """Component derivative in rescaled coordinates."""
        return self.components1[j] / self.bandwidths[j]


def fit_ll(
    dataset: Dataset,
    bandwidths,
    grid: Grid | None = None,
    family: Family | str = "gaussian",
    kernel: str = "epanechnikov",
    config: FitConfig | None = None,
) -> LlFit:
    """Fit the additive model with local linear smoothing.

    Same Newton-over-backfitting scheme as `fit_nw`, with slope curves
    carried along; see the module docstring.

    Raises
    ------
    InitializerError, DegenerateWeightError, NonConvergenceError
    """
    ctx = ll_prepare(dataset, bandwidths, grid, family, kernel)
    return _newton_fit(ctx, config, LlFit, 2, ll_marginals, ll_inner_solve,
                       ll_outer_update)
