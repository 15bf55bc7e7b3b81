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
integrals on the kernel rows and t_j laid out (G_j, n), the observation
axis last, once per fit (`backfit.poisson_marginals`).
Neither does per-cell work at any d, and neither does the constant start
of any family: there each observation's predictor is one number on its
whole window, so the moments are data moments weighted by its fields
(`backfit.start_marginals`).  Every other iterate, of every other
family and of a Poisson fit whose predictor could reach the clamp, takes
the block engine, which serves every d.  On first use it orders the
observations by their window widths and splits them into blocks once per
fit, each padded only to its own widest windows, gathers per block what
does not depend on the iterate (the kernel values k_j, the t_j and the
per-axis integration weights k_j tw_j, each (W_j, B) with the
observation axis last), and allocates one workspace sized to the
largest block.  Per iterate, each block's predictor is written into a
(W_1, ..., W_d, B) view of that workspace, so every per-axis and
per-observation factor broadcasts along contiguous runs of B cells, and
one family call per block writes the weight, score and quasi-likelihood
fields beside it.  The kernel product is never formed: the weight field
is scaled in place by each k_j, because its pair surfaces are scattered
cell by cell, while the score and Q fields are only integrated, against
the k_j tw_j.  Each field is integrated down to window curves and pair
surfaces, the t_j are multiplied in there (the block-sized pair products
again in the workspace), and the results are scattered onto the grid.
Nothing of full product-grid size is formed, and for d >= 2 no array of
block size is allocated once the blocks are built (at d = 1 the window
curves are the block).

The Newton loop, the one block Gauss-Seidel solver, the marginals type
with its constraint functional and weight check, the router over the
producers, the damped step with recentering, input preparation and the
fitted-model base live in `backfit`.  This module supplies only the
engine and the order-1 context, whose regressor offsets, blocks and
workspace are cached properties built on first use, and whose producers
are the order-1 closed forms there, tried first, and then the engine.
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
    marginals,
    newton_fit,
    poisson_marginals,
    start_marginals,
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
# is sized to the largest block: four float buffers and one index
# buffer, about 2.0 MB held for the fit's lifetime.  100k cells raised the
# peak resident set by 5 MB and ran no faster
BLOCK_CELLS = 50_000


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
    """Integrate a (W_1, ..., W_d, B) block over the window axes not kept.

    wts[j] holds each observation's trapezoid weights on its window of
    dimension j, shape (W_j, B); the kept axes stay in increasing order,
    with the observation axis last.
    """
    d = len(wts)
    axes = list(range(d + 1))
    for j in reversed(range(d)):
        if j not in keep:
            rest = [a for a in axes if a != j]
            field = np.einsum(field, axes, wts[j], [j, d], rest)
            axes = rest
    return field


def _window_marginals(field, wts, pairs, use_surface=None):
    """Window curves (W_j, B) of a block, each as a new array.

    Each pair surface (W_j, W_l, B) is made in turn, handed to
    use_surface(j, l, surface) and dropped, so at most one is alive.
    pairs must hold every (0, l): the curves are integrated from those.
    """
    curves = [field] if len(wts) == 1 else [None] * len(wts)
    for j, l in pairs:
        surf = _integrate_out(field, wts, (j, l))
        if j == 0:
            curves[l] = np.einsum("abz,az->bz", surf, wts[0])
            if l == 1:
                curves[0] = np.einsum("abz,bz->az", surf, wts[1])
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
    next one is drawn; (1, 1) is drawn from (1, 0) by one more product.
    """
    yield (0, 0), surf
    yield (1, 0), np.multiply(tj, surf, out=scratch)
    scratch *= tl
    yield (1, 1), scratch
    yield (0, 1), np.multiply(tl, surf, out=scratch)


def _add_block(sums, ctx, pairs, obs, gathered, eta00, comps0, comps1):
    """Add one block's moments to sums; return its smoothed Q.

    sums is (weight, score, pairs) as `ll_marginals` fills them.  The
    block is laid out (W_1, ..., W_d, B), the observation axis last, so
    every per-axis or per-observation factor broadcasts along contiguous
    runs of B cells.  The predictor is written into the workspace, with
    eta00 joined to the first axis's term, and one call of the family's
    `fields` writes the weight, score and quasi-likelihood fields beside
    it, with the predictor as its scratch.  The kernel product K_ij K_il
    does not depend on the iterate and is never formed: the weight field,
    whose pair surfaces are scattered cell by cell, is scaled in place by
    each k_j in turn, while the score and Q fields are integrated against
    the per-axis weights k_j tw_j of the blocks, and each score window
    curve is scaled by its own k_j afterwards.  What else the block needs
    is of window-curve or pair-surface size and is freed when this
    returns.
    """
    d, shape, (floats, ints) = len(gathered), ctx.grid.shape, ctx.workspace
    weight, score, pair_sums = sums
    idx, k, t, w, kw = zip(*gathered)
    block = tuple(i.shape[0] for i in idx) + (len(obs),)
    u, *fields = (buf[:prod(block)].reshape(block) for buf in floats)
    # axes[j] places a (W_j, B) factor on the block's axes j and d
    axes = [[-1 if a == j else 1 for a in range(d)] + [len(obs)]
            for j in range(d)]
    terms = ((comps0[j][idx[j]] + t[j] * comps1[j][idx[j]]).reshape(axes[j])
             for j in range(d))
    # eta00 joins the first axis's term, so each further axis is one
    # broadcast add into the predictor
    lead = np.add(eta00, next(terms), out=u if d == 1 else None)
    for term in terms:
        lead = np.add(lead, term, out=u)
    ctx.family.fields(u, ctx.dataset.y[obs], out=fields)
    wfield, sfield, qfield = fields
    for j in range(d):
        wfield *= k[j].reshape(axes[j])

    def add_pair(j, l, surf):
        flat = ints[:surf.size].reshape(surf.shape)
        np.add(idx[j][:, None] * shape[l], idx[l][None], out=flat)
        # the predictor's buffer is free once the fields are made
        scratch = floats[0, :surf.size].reshape(surf.shape)
        for (a, b), vals in _pair_moments(surf, t[j][:, None], t[l][None],
                                          scratch):
            pair_sums[j, l][a, :, b] += np.bincount(
                flat.ravel(), vals.ravel(), shape[j] * shape[l]
            ).reshape(shape[j], shape[l])

    _add_curves(weight, _window_marginals(wfield, w, pairs, add_pair), t,
                idx, shape)
    scurves = _window_marginals(sfield, kw, pairs[:d - 1])
    for curve, kj in zip(scurves, k):
        curve *= kj
    _add_curves(score, scurves, t, idx, shape)
    return float(_integrate_out(qfield, kw, ()).sum())


def _block_marginals(ctx: LlContext, eta00: float, comps0, comps1):
    """The block engine: each block of B observations is evaluated on its
    kernel windows, (W_1, ..., W_d, B), in views of the context's
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
    return Marginals(grid=grid, weight=weight, score=score,
                     pairs={p: m.reshape(2 * shape[p[0]], 2 * shape[p[1]])
                            for p, m in blocks.items()},
                     sq=sq / n)


class LlContext(FitContext):
    """The order-1 context: `FitContext` plus the regressor offsets and
    the block engine's blocks and workspace, which a Gaussian or Poisson
    fit that never falls back to the engine never builds."""

    order = 1
    producers = (identity_marginals, start_marginals, poisson_marginals,
                 _block_marginals)

    @cached_property
    def tvals(self) -> list:
        """Regressor offsets t_j = (X_ij - x_j) / h_j, (n, G_j) per j."""
        x, points, h = self.dataset.x, self.grid.points, self.bandwidths
        return [(x[:, j][:, None] - points[j][None, :]) / h[j]
                for j in range(len(points))]

    @cached_property
    def blocks(self) -> list:
        """One (obs, gathered) pair per block of observations: obs their
        indices, (B,), and gathered[j] the grid indices, kernel values k_j,
        t_j, trapezoid weights tw_j and their product k_j tw_j on each
        observation's window of dimension j, each a C-contiguous (W_j, B)
        array for the block's widest window W_j, the observation axis
        last, padded with zero kernel cells."""
        grid, rows, tvals = self.grid, self.rows, self.tvals
        blocks = []
        for obs, widths in _block_split(
                np.stack([hi - lo for lo, hi in self.windows], axis=1)):
            gathered = []
            for j, width in enumerate(widths):
                lo = np.minimum(self.windows[j][0][obs], grid.shape[j] - width)
                idx = np.arange(width)[:, None] + lo
                k = rows[j][obs, idx]
                tw = grid.weights[j][idx]
                gathered.append((idx, k, tvals[j][obs, idx], tw, k * tw))
            blocks.append((obs, gathered))
        return blocks

    @cached_property
    def workspace(self) -> tuple:
        """The buffers the block engine works in, one (4, cells) float
        array (the predictor and the three fields) and one (cells,) intp
        array for the largest block's padded cells; so one context serves
        one evaluation at a time."""
        cells = max(len(obs) * prod(g[0].shape[0] for g in gathered)
                    for obs, gathered in self.blocks)
        return np.empty((4, cells)), np.empty(cells, dtype=np.intp)


# LlContext.build, the router and the one solver of `backfit` under LL's
# own names (see nw_prepare)
ll_prepare = LlContext.build
ll_marginals = marginals
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
