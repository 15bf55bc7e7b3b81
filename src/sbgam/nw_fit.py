"""Additive quasi-likelihood fitting with local constant smoothing.

This module holds the order-0 context and producers of the marginals
that the shared Newton-over-backfitting core solves with (see
`backfit`).  `NwContext.producers` tries the closed form
`backfit.identity_marginals` first, which serves Gaussian fits at every
d.  For d <= 2 the dense producer follows: because q1, q2 and Q are
affine in y (see `family`), each smoothed field is the kernel density
smooth times the family's field at the kernel-local mean response; both
smooths are a cached property of the context (`NwContext.dense_smooths`),
built on first use, so each evaluation is one family call on the dense
G x G grid.  For d >= 3 no d-dimensional tensor is ever materialized:
Poisson log-link fits take `backfit.poisson_marginals`, per-axis window
integrals on the kernel rows laid out (G_j, n), until the predictor
reaches the family's clamp; beyond it, and for other families,
the marginals are accumulated by streaming over observations on their
kernel support windows.  `nw_marginals` is the router `backfit.marginals`
under this module's name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import attrgetter

import numpy as np

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
)
from .family import Family
from .grid import Dataset, Grid, MarginalAccumulator, integrate_tensor

__all__ = [
    "NwContext",
    "NwFit",
    "nw_prepare",
    "nw_marginals",
    "nw_inner_solve",
    "nw_outer_update",
    "fit_nw",
]


def _dense_curves(field, tw):
    """One-dimensional marginals of a field on a 1-D or 2-D grid."""
    if field.ndim == 1:
        return [field]
    return [field @ tw[1], tw[0] @ field]


def _dense_integral(field, tw) -> float:
    """Trapezoid integral of a field on a 1-D or 2-D grid, through its
    first marginal alone."""
    first = field if field.ndim == 1 else field @ tw[1]
    return float(tw[0] @ first)


def _nw_marginals_dense(ctx, eta0, components, pairs=True):
    """Marginals for d <= 2: each smoothed field is phat times the family's
    field at the kernel-local mean response, plus sq_offset for SQ.  The
    one pair surface is the weight field itself, so pairs=False changes
    nothing.  Returns None for d >= 3."""
    if ctx.grid.ndim > 2:
        return None
    tw = ctx.grid.weights
    phat, ybar, sq_offset = ctx.dense_smooths
    u = eta0 + components[0]
    if len(components) == 2:
        u = u[:, None] + components[1]
    wfield, sfield, qfield = ctx.family.fields(u, ybar)
    for f in (wfield, sfield, qfield):
        f *= phat
    wcurves = _dense_curves(wfield, tw)
    scurves = _dense_curves(sfield, tw)
    return Marginals(
        grid=ctx.grid,
        weight=[w[None] for w in wcurves],
        score=[s[None] for s in scurves],
        pairs={(0, 1): wfield} if wfield.ndim == 2 else {},
        sq=_dense_integral(qfield, tw) + sq_offset,
    )


def _nw_marginals_streamed(ctx, eta0, components, pairs=True):
    """Marginals at any d, accumulated observation by observation on the
    product of its kernel windows, each curve, pair surface and SQ term
    by `integrate_tensor` on the window; pairs=False changes nothing."""
    grid, fam, y = ctx.grid, ctx.family, ctx.dataset.y
    n = ctx.dataset.n
    dims = range(grid.ndim)
    pair_dims = [(j, l) for j in dims for l in dims if j < l]
    wacc = MarginalAccumulator(grid, curve_dims=dims, pair_dims=pair_dims)
    sacc = MarginalAccumulator(grid, curve_dims=dims)
    sq_acc = 0.0
    for i in range(n):
        lo = [ctx.windows[j][0][i] for j in dims]
        hi = [ctx.windows[j][1][i] for j in dims]
        kprod = reduce(np.multiply.outer,
                       [ctx.rows[j][i, lo[j]:hi[j]] for j in dims])
        segs = [components[j][lo[j]:hi[j]] for j in dims]
        u = reduce(np.add.outer, segs[1:], eta0 + segs[0])
        wacc.add(lo, hi, -fam.q2(u, y[i]) * kprod)
        sacc.add(lo, hi, fam.q1(u, y[i]) * kprod)
        wseg = [w[a:b] for w, a, b in zip(grid.weights, lo, hi)]
        sq_acc += integrate_tensor(fam.qll(u, y[i]) * kprod, wseg)
    return Marginals(
        grid=grid,
        weight=[wacc.curves[j][None] / n for j in dims],
        score=[sacc.curves[j][None] / n for j in dims],
        pairs={k: v / n for k, v in wacc.pairs.items()},
        sq=sq_acc / n,
    )


class NwContext(FitContext):
    """The order-0 context: `FitContext` plus the dense path's smooths,
    which Gaussian fits, taking the closed form, never build."""

    order = 0
    producers = (identity_marginals, _nw_marginals_dense, poisson_marginals,
                 _nw_marginals_streamed)

    @cached_property
    def dense_smooths(self) -> tuple:
        """(phat, ybar, sq_offset) for d <= 2: phat is the density smooth
        n^{-1} sum_i K_i on the full grid, ybar the kernel-local mean
        response (the response smooth over phat; mean(y) where phat is
        0) and sq_offset the y-only term of SQ,
        mean_i Q(0, Y_i) - integral phat Q(0, ybar)."""
        rows, n, y = self.rows, self.dataset.n, self.dataset.y
        if len(rows) == 1:
            phat = rows[0].sum(axis=0) / n
            rhat = y @ rows[0] / n
        else:
            phat = rows[0].T @ rows[1] / n
            rhat = (rows[0] * y[:, None]).T @ rows[1] / n
        ybar = np.full(phat.shape, np.mean(y))
        np.divide(rhat, phat, out=ybar, where=phat != 0.0)
        # SQ is integral phat Q(u, ybar) plus the y-only part of Q, a
        # constant because every kernel row integrates to one
        q0 = self.family.fields(np.zeros(phat.shape), ybar)[2] * phat
        tw = self.grid.weights
        sq_offset = float(np.mean(self.family.fields(0.0, y)[2])
                          - _dense_integral(q0, tw))
        return phat, ybar, sq_offset


# each smoother's preparation, router, inner solve and outer update keep
# their own module-level names, so that each can be wrapped or traced on
# its own
nw_prepare = NwContext.build
nw_marginals = marginals
nw_inner_solve = inner_solve
nw_outer_update = damped_step


@dataclass
class NwFit(AdditiveFit):
    """Fitted additive predictor with local constant components.

    components[j] tabulates the centered component on grid.points[j] in
    rescaled coordinates; eta0 is the intercept.
    """

    eta0: float
    components: list

    intercept = property(attrgetter("eta0"))
    curves = property(attrgetter("components"))


def fit_nw(
    dataset: Dataset,
    bandwidths,
    grid: Grid | None = None,
    family: Family | str = "gaussian",
    kernel: str = "epanechnikov",
    config: FitConfig | None = None,
) -> NwFit:
    """Fit the additive model by Newton steps over smoothed backfitting.

    Starts from the constant fit eta_0 = g(mean(y)), iterates Newton steps
    solved by Gauss-Seidel backfitting, and stops when the relative
    sup-norm change of the fitted predictor falls below tol_outer.

    Raises
    ------
    InitializerError, DegenerateWeightError, NonConvergenceError
    """
    ctx = nw_prepare(dataset, bandwidths, grid, family, kernel)
    return newton_fit(ctx, config, NwFit, nw_marginals, nw_inner_solve,
                      nw_outer_update)
