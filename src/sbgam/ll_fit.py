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
the order-1 case of `backfit.Marginals`, whose order 0 is the local
constant smoother.  The inner Gauss-Seidel loop sweeps over components,
each update applying M_j^-1 pointwise; the outer loop updates the
predictor, recenters each (eta_0j, eta_j) pair against the constraint

    integral [ eta_0j V00_j + eta_j V0j_j ] dx_j = 0,

and absorbs the shifts into the intercept, leaving the fitted predictor
unchanged.

Every moment is a sum over observations of a field supported on the
product of that observation's one-dimensional kernel windows, and the
regressors t_j enter only as per-observation, per-axis factors.  Under
the Gaussian identity link every moment is a data moment, computed once
per fit (`backfit.identity_marginals`); under the Poisson log link e^eta
is a product over axes, so every moment comes from per-axis window
integrals on the (n, G_j) kernel rows (`backfit.poisson_marginals`).
Neither does per-cell work at any d.  Every other family, and a Poisson
iterate whose predictor could reach the clamp, takes the block engine,
which serves every d.  On first use it orders the observations by their
window widths and splits them into blocks once per fit, each padded only
to its own widest windows, and allocates one workspace sized to the
largest block.  Per iterate, each block's predictor and kernel product
are written into views of that workspace, and one family call per block
writes the weight, score and quasi-likelihood fields beside them; each
field is integrated down to window curves and pair surfaces, the t_j are
multiplied in there (the block-sized pair products again in the
workspace), and the results are scattered onto the grid.  Nothing of
full product-grid size is formed, and for d >= 2 no array of block size
is allocated once the blocks are built (at d = 1 the window curves are
the block).

The Newton loop, the one block Gauss-Seidel solver, the marginals type
with its constraint functional and weight check, the damped step with
recentering, input preparation and the fitted-model base live in
`backfit`; this module supplies only the order-1 context, whose
regressor offsets, blocks and workspace are cached properties built on
first use, and moment marginals, routing Gaussian and Poisson to the
order-1 closed forms there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import prod
from operator import attrgetter

import numpy as np

from .family import Family
from .grid import Dataset, Grid
from .backfit import (
    AdditiveFit,
    FitConfig,
    FitContext,
    Marginals,
    damped_step,
    identity_marginals,
    inner_solve,
    newton_fit,
    poisson_marginals,
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
# windows; LlContext.blocks splits the data by it and LlContext.workspace
# is sized to the largest block: five float buffers and one index
# buffer, about 2.4 MB held for the fit's lifetime.  100k cells raised the
# peak resident set by 5 MB and ran no faster
BLOCK_CELLS = 50_000


class LlContext(FitContext):
    """The order-1 context: `FitContext` plus the regressor offsets and
    the block engine's blocks and workspace, which a Gaussian or Poisson
    fit that never falls back to the engine never builds."""

    order = 1

    @cached_property
    def tvals(self) -> list:
        """Regressor offsets t_j = (X_ij - x_j) / h_j, (n, G_j) per j."""
        x, points, h = self.dataset.x, self.grid.points, self.bandwidths
        return [(x[:, j][:, None] - points[j][None, :]) / h[j]
                for j in range(len(points))]

    @cached_property
    def blocks(self) -> list:
        """One (obs, gathered) pair per block of observations: obs their
        indices, (B,), and gathered[j] the grid indices, kernel values, t_j
        and trapezoid weights on each observation's window of dimension j,
        each (B, W_j) for the block's widest window W_j, padded with zero
        kernel cells."""
        grid, rows, tvals = self.grid, self.rows, self.tvals
        blocks = []
        for obs, widths in _block_split(
                np.stack([hi - lo for lo, hi in self.windows], axis=1)):
            gathered = []
            for j, width in enumerate(widths):
                lo = np.minimum(self.windows[j][0][obs], grid.shape[j] - width)
                idx = lo[:, None] + np.arange(width)
                gathered.append((idx,
                                 np.take_along_axis(rows[j][obs], idx, 1),
                                 np.take_along_axis(tvals[j][obs], idx, 1),
                                 grid.weights[j][idx]))
            blocks.append((obs, gathered))
        return blocks

    @cached_property
    def workspace(self) -> tuple:
        """The buffers the block engine works in, one (5, cells) float
        array and one (cells,) intp array for the largest block's padded
        cells; so one context serves one evaluation at a time."""
        cells = max(len(obs) * prod(g[0].shape[1] for g in gathered)
                    for obs, gathered in self.blocks)
        return np.empty((5, cells)), np.empty(cells, dtype=np.intp)


# LlContext.build under LL's own name (see nw_prepare)
ll_prepare = LlContext.build


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


def _window_marginals(field, wts, pairs, use_surface=None):
    """Window curves (B, W_j) of a block, each as a new array.

    Each pair surface (B, W_j, W_l) is made in turn, handed to
    use_surface(j, l, surface) and dropped, so at most one is alive.
    pairs must hold every (0, l): the curves are integrated from those.
    """
    curves = [field] if len(wts) == 1 else [None] * len(wts)
    for j, l in pairs:
        surf = _integrate_out(field, wts, (j, l))
        if j == 0:
            curves[l] = np.einsum("zab,za->zb", surf, wts[0])
            if l == 1:
                curves[0] = np.einsum("zab,zb->za", surf, wts[1])
        if use_surface is not None:
            use_surface(j, l, surf)
    return curves


def _add_curves(moments, curves, t, idx, shape):
    """Add each window curve times t_j^k to row k of moments[j]."""
    for j, curve in enumerate(curves):
        for k, row in enumerate(moments[j]):
            vals = curve if k == 0 else t[j] ** k * curve
            row += np.bincount(idx[j].ravel(), vals.ravel(), shape[j])


def _pair_moments(surf, tj, tl, scratch):
    """A pair surface times t_j^a t_l^b for (a, b) in {0, 1}^2.

    Each product is written into scratch, so it must be used before the
    next one is drawn.
    """
    yield (0, 0), surf
    yield (1, 0), np.multiply(tj, surf, out=scratch)
    yield (0, 1), np.multiply(tl, surf, out=scratch)
    np.multiply(tj, tl, out=scratch)
    scratch *= surf
    yield (1, 1), scratch


def _add_block(sums, ctx, pairs, obs, gathered, eta00, comps0, comps1):
    """Add one block's moments to sums; return its smoothed Q.

    sums is (weight, score, pairs) as `ll_marginals` fills them.  The
    predictor and the kernel product are written into the workspace, one
    call of the family's `fields` writes the weight, score and
    quasi-likelihood fields beside them, with the predictor as its
    scratch, and the fields are scaled in place by the kernel product.
    What else the block needs is of window-curve or pair-surface size and
    is freed when this returns.
    """
    d, shape, (floats, ints) = len(gathered), ctx.grid.shape, ctx.workspace
    weight, score, pair_sums = sums
    idx, k, t, w = zip(*gathered)
    block = (len(obs),) + tuple(i.shape[1] for i in idx)
    u, kp, *fields = (buf[:prod(block)].reshape(block) for buf in floats)
    for j in range(d):
        axes = [len(obs)] + [1] * d
        axes[j + 1] = -1
        term = (comps0[j][idx[j]] + t[j] * comps1[j][idx[j]]).reshape(axes)
        if j == 0:
            np.add(eta00, term, out=u)
            np.copyto(kp, k[j].reshape(axes))
        else:
            u += term
            kp *= k[j].reshape(axes)
    ctx.family.fields(u, ctx.dataset.y[obs].reshape(-1, *[1] * d),
                      out=fields)
    for f in fields:
        f *= kp
    wfield, sfield, qfield = fields

    def add_pair(j, l, surf):
        cells = len(obs) * block[j + 1] * block[l + 1]
        flat = ints[:cells].reshape(-1, block[j + 1], block[l + 1])
        np.add(idx[j][:, :, None] * shape[l], idx[l][:, None, :], out=flat)
        # the predictor's buffer is free once the fields are made
        scratch = floats[0, :cells].reshape(flat.shape)
        for (a, b), vals in _pair_moments(surf, t[j][:, :, None],
                                          t[l][:, None, :], scratch):
            pair_sums[j, l][a, :, b] += np.bincount(
                flat.ravel(), vals.ravel(), shape[j] * shape[l]
            ).reshape(shape[j], shape[l])

    _add_curves(weight, _window_marginals(wfield, w, pairs, add_pair), t,
                idx, shape)
    _add_curves(score, _window_marginals(sfield, w, pairs[:d - 1]), t, idx,
                shape)
    return float(_integrate_out(qfield, w, ()).sum())


def ll_marginals(ctx: LlContext, eta00: float, comps0, comps1) -> Marginals:
    """Weight moments and score marginals at the given iterate, checked
    against the positivity floor.

    The Gaussian identity and Poisson log links have them in closed form
    (`backfit.identity_marginals`, `backfit.poisson_marginals`); every
    other family, and a Poisson iterate whose predictor could reach the
    clamp, takes the block engine, `_block_marginals`.
    """
    marg = (identity_marginals(ctx, eta00, comps0, comps1)
            or poisson_marginals(ctx, eta00, comps0, comps1)
            or _block_marginals(ctx, eta00, comps0, comps1))
    return marg.check_weight(ctx.grid)


def _block_marginals(ctx: LlContext, eta00: float, comps0, comps1):
    """The block engine: each block of B observations is evaluated on its
    kernel windows, (B, W_1, ..., W_d), in views of the context's
    workspace; see `_add_block` and the module docstring.
    """
    grid, n, shape = ctx.grid, ctx.dataset.n, ctx.grid.shape
    # combinations lists the pairs (0, 1), ..., (0, d - 1) first
    pairs = list(combinations(range(grid.ndim), 2))
    weight = [np.zeros((3, g)) for g in shape]
    score = [np.zeros((2, g)) for g in shape]
    # block (a, b) of a pair's matrix, [a, :, b] here, is the moment
    # against t_j^a t_l^b
    blocks = {(j, l): np.zeros((2, shape[j], 2, shape[l])) for j, l in pairs}
    sq = 0.0
    for obs, gathered in ctx.blocks:
        sq += _add_block((weight, score, blocks), ctx, pairs, obs, gathered,
                         eta00, comps0, comps1)
    for m in [*weight, *score, *blocks.values()]:
        m /= n
    tw0 = grid.weights[0]
    return Marginals(mass=float(tw0 @ weight[0][0]), weight=weight,
                     score=score,
                     pairs={p: m.reshape(2 * shape[p[0]], 2 * shape[p[1]])
                            for p, m in blocks.items()},
                     score_total=float(tw0 @ score[0][0]),
                     sq=sq / n)


# the one solver of `backfit`, under LL's own name (see nw_inner_solve)
ll_inner_solve = inner_solve


def ll_outer_update(ctx: LlContext, eta00: float, comps0, comps1,
                    xi00: float, xi0, xi1, config: FitConfig):
    """Apply one damped Newton step and recenter at the new iterate.

    Returns (eta00, comps0, comps1, marginals, constraint_residual, change).
    """
    return damped_step(ctx, eta00, [comps0, comps1], xi00, [xi0, xi1],
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
    return newton_fit(ctx, config, LlFit, ll_marginals, ll_inner_solve,
                      ll_outer_update)
