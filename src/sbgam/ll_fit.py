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
largest block.  Per iterate, each block's per-axis terms
a_j = c0_j + t_j c1_j are formed on the (W_j, B) windows, and the
weight, score and quasi-likelihood fields are written into
(W_1, ..., W_d, B) views of that workspace, so every per-axis and
per-observation factor broadcasts along contiguous runs of B cells.
Under the Bernoulli logit link, when |eta00| + sum_j max(|c0_j| + |c1_j|)
is within the clamp (so no window cell can reach it), e^-u is a product
over axes: exp runs only on the (W_j, B) terms, and the fields follow
from products of per-axis factors (`_logit_fields`).  Every other
evaluation writes the predictor into the workspace and makes one family
call per block (`_family_fields`).  The kernel product is never formed:
the weight field carries each k_j, because its pair surfaces are
scattered cell by cell, while the score and Q fields are only
integrated, against the k_j tw_j.  Each field is integrated down to
window curves and pair surfaces, the t_j are multiplied in there (the
block-sized pair products again in the workspace), and the results are
scattered onto the grid.  Nothing of full product-grid size is formed,
and for d >= 2 no array of block size is allocated once the blocks are
built (at d = 1 the window curves are the block).

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

from .family import BernoulliLogit, Family
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


def _outer_product(factors, out, scratch):
    """prod_j factors[j], the (W_j, B) factors multiplied over the
    block's axes, written into out, a C-contiguous (W_1, ..., W_d, B)
    array.

    One two-operand einsum per further axis, each against the product so
    far flattened to (W_1 ... W_j, B); partial products alternate between
    scratch, an array of out's size, and out, so the last lands in out.
    A broadcast multiply took about 1.6 times as long: its inner loops
    run over only B cells.
    """
    lead, flat, tmp = factors[0], out.reshape(-1), scratch.reshape(-1)
    if len(factors) == 1:
        np.copyto(out, lead)
    for j, factor in enumerate(factors[1:], 2):
        dst = (flat, tmp)[(len(factors) - j) % 2]
        rows, width, cols = lead.shape[0], factor.shape[0], lead.shape[1]
        lead = np.einsum("az,bz->abz", lead, factor,
                         out=dst[:rows * width * cols].reshape(rows, width,
                                                               cols))
        lead = lead.reshape(rows * width, cols)


def _family_fields(ctx, y, a, k, u, fields):
    """The generic front end: the predictor sum_j a_j into u, one call of
    the family's `fields`, and the weight field scaled by each k_j in
    turn.  Q comes whole, so no part of SQ is returned apart."""
    # axes[j] places a (W_j, B) factor on the block's axes j and d
    d = len(a)
    axes = [[-1 if i == j else 1 for i in range(d)] + [len(y)]
            for j in range(d)]
    # a[0] holds eta00, so each further axis is one broadcast add
    lead = a[0].reshape(axes[0])
    if d == 1:
        np.copyto(u, lead)
    for aj, ax in zip(a[1:], axes[1:]):
        lead = np.add(lead, aj.reshape(ax), out=u)
    ctx.family.fields(u, y, out=fields)
    for kj, ax in zip(k, axes):
        fields[0] *= kj.reshape(ax)
    return 0.0


def _logit_fields(bounds, y, a, k, kw, u, fields):
    """The logit front end, from per-axis exponentials.

    With E = e^-u = prod_j e^-a_j, the mean is m = 1 / (1 + E), the
    weight times the kernel product is w K = (prod_j e^-a_j k_j) m^2 and
    Q = (y - 1) u - log(1 + E).  So exp runs per axis, and per cell
    this forms only E (in u), E K (in the weight buffer), D = 1 + E, m,
    -log D = log m (in the Q buffer), w and s = y - m: no exp, clamp,
    predictor or k_j scaling pass, and the weight keeps its digits at
    u >> 0, where m (1 - m) loses them.  The linear part of Q is
    integrated per axis, as every kernel row integrates to one:

        integral (y_i - 1) u_i K_i = (y_i - 1) sum_j sum_w kw_j a_j,

    and returned as this block's part of SQ apart from the Q field.
    Each a_j is first clipped to +-bounds[j], which changes no window
    cell (see `_logit_bounds`) and keeps the padded cells, where k_j = 0
    and |t_j| may exceed 1, within the same bounds, so every E and D is
    finite and no inf times 0 makes a NaN.
    """
    lin = 0.0
    for aj, kwj, bj in zip(a, kw, bounds):
        # two ufuncs cost less than np.clip's dispatch on arrays this small
        np.minimum(aj, bj, out=aj)
        np.maximum(aj, -bj, out=aj)
        lin = lin + np.einsum("wb,wb->b", kwj, aj)
    e = [np.exp(np.negative(aj, out=aj), out=aj) for aj in a]
    wfield, sfield, qfield = fields
    # the Q and score buffers are scratch until m is formed
    _outer_product(e, u, qfield)
    _outer_product([ej * kj for ej, kj in zip(e, k)], wfield, sfield)
    u += 1.0
    np.divide(1.0, u, out=sfield)
    np.log(sfield, out=qfield)
    wfield *= sfield
    wfield *= sfield
    np.subtract(y, sfield, out=sfield)
    return float((y - 1.0) @ lin)


def _add_block(sums, ctx, pairs, obs, gathered, bounds, eta00, comps0,
               comps1):
    """Add one block's moments to sums; return its smoothed Q.

    sums is (weight, score, pairs) as `ll_marginals` fills them.  The
    block is laid out (W_1, ..., W_d, B), the observation axis last, so
    every per-axis or per-observation factor broadcasts along contiguous
    runs of B cells.  Per axis, a_j = c0_j + t_j c1_j on the (W_j, B)
    window, with eta00 joined to a_0.  A front end then writes the
    weight field times the kernel product, the score field and the Q
    field into the workspace: `_logit_fields` from per-axis exponentials
    when bounds is given (see `_logit_bounds`), else `_family_fields`,
    from the predictor and one call of the family's `fields`.  The
    kernel product K_ij K_il does not depend on the iterate and is never
    formed: the weight field, whose pair surfaces are scattered cell by
    cell, carries each k_j, while the score and Q fields are integrated
    against the per-axis weights k_j tw_j of the blocks, and each score
    window curve is scaled by its own k_j afterwards.  The per-axis
    arrays are freed before the pair scatter; what else the block needs
    is of window-curve or pair-surface size and is freed when this
    returns.
    """
    d, shape, (floats, ints) = len(gathered), ctx.grid.shape, ctx.workspace
    weight, score, pair_sums = sums
    idx, k, t, w, kw = zip(*gathered)
    block = tuple(i.shape[0] for i in idx) + (len(obs),)
    u, *fields = (buf[:prod(block)].reshape(block) for buf in floats)
    terms = [comps0[j][idx[j]] + t[j] * comps1[j][idx[j]] for j in range(d)]
    np.add(eta00, terms[0], out=terms[0])
    y = ctx.dataset.y[obs]
    if bounds is None:
        sq = _family_fields(ctx, y, terms, k, u, fields)
    else:
        sq = _logit_fields(bounds, y, terms, k, kw, u, fields)
    del terms
    wfield, sfield, qfield = fields

    def add_pair(j, l, surf):
        flat = ints[:surf.size].reshape(surf.shape)
        np.add(idx[j][:, None] * shape[l], idx[l][None], out=flat)
        # the first buffer (the predictor, or e^-u) is free once the
        # fields are made
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
    return sq + float(_integrate_out(qfield, kw, ()).sum())


def _logit_bounds(ctx: LlContext, eta00: float, comps0, comps1):
    """Per-axis bounds b_j on |a_ij| wherever k_ij > 0, |eta00| joined
    to b_0, when the family is BernoulliLogit and their sum is within
    the clamp; None otherwise.

    Every kernel is supported on [-1, 1], so |t_ij| < 1 wherever
    k_ij > 0 and |a_ij| = |c0_j + t_ij c1_j| <= max_g (|c0_j| + |c1_j|)
    there, also after rounding, since rounding is monotone.  Within the
    clamp no window cell's predictor reaches it, the family's clip
    changes nothing, and e^-u is a product over axes.  The maximum runs
    over every grid point, so a large value where no window reaches
    still sends the evaluation to the generic front end.
    """
    if not isinstance(ctx.family, BernoulliLogit):
        return None
    bounds = [float((np.abs(c0) + np.abs(c1)).max())
              for c0, c1 in zip(comps0, comps1)]
    bounds[0] += abs(float(eta00))
    return bounds if sum(bounds) <= ctx.family.clamp_hi else None


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
    bounds, sq = _logit_bounds(ctx, eta00, comps0, comps1), 0.0
    for obs, gathered in ctx.blocks:
        sq += _add_block((weight, score, blocks), ctx, pairs, obs, gathered,
                         bounds, eta00, comps0, comps1)
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
        array (the predictor, or e^-u under the logit front end, and the
        three fields) and one (cells,) intp
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
