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
2 x 2 matrix field M_j(x_j) and, per pair (j, l), cross moment surfaces:
the order-1 case of `nw_fit.Marginals`, whose order 0 is the local
constant smoother.  The inner Gauss-Seidel loop sweeps over components,
each update applying M_j^-1 pointwise; the outer loop updates the
predictor, recenters each (eta_0j, eta_j) pair against the constraint

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

The Newton loop, the one block Gauss-Seidel solver, the marginals type
with its constraint functional and weight check, the damped step with
recentering, input preparation and the fitted-model base live in
`nw_fit`; this module supplies only the order-1 moment marginals.
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
    Marginals,
    _damped_step,
    _newton_fit,
    inner_solve,
)

__all__ = [
    "LlContext",
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


def ll_marginals(ctx: LlContext, eta00: float, comps0, comps1) -> Marginals:
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
            for (kind, power), vals in (
                    (("w", 0), wc[j]), (("w", 1), t[j] * wc[j]),
                    (("w", 2), t[j] * t[j] * wc[j]),
                    (("z", 0), sc[j]), (("z", 1), t[j] * sc[j])):
                acc[kind, power, j] += np.bincount(idx[j].ravel(),
                                                   vals.ravel(), shape[j])
        for j, l in pairs:
            flat = (idx[j][:, :, None] * shape[l] + idx[l][:, None, :]).ravel()
            tj, tl, surf = t[j][:, :, None], t[l][:, None, :], ws[j, l]
            for (a, b), vals in (((0, 0), surf), ((1, 0), tj * surf),
                                 ((0, 1), tl * surf),
                                 ((1, 1), tj * tl * surf)):
                acc["p", a, b, j, l] += np.bincount(flat, vals.ravel(),
                                                    shape[j] * shape[l])
    weight = [np.stack([acc["w", k, j] for k in range(3)]) / n
              for j in range(d)]
    score = [np.stack([acc["z", a, j] for a in range(2)]) / n
             for j in range(d)]
    # block (a, b) of a pair's matrix is the moment against t_j^a t_l^b
    blocks = {(j, l): np.block([[acc["p", a, b, j, l].reshape(shape[j],
                                                              shape[l])
                                 for b in range(2)] for a in range(2)]) / n
              for j, l in pairs}
    tw0 = grid.weights[0]
    return Marginals(mass=float(tw0 @ weight[0][0]), weight=weight,
                     score=score, pairs=blocks,
                     score_total=float(tw0 @ score[0][0]),
                     sq=sq / n).check_weight(grid)


# the one solver of `nw_fit`, under LL's own name (see nw_inner_solve)
ll_inner_solve = inner_solve


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
