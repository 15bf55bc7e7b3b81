"""Additive quasi-likelihood fitting with local constant smoothing.

This module holds the order-0 producers of the marginals that the shared
Newton-over-backfitting core solves with (see `backfit`).  Because q1,
q2 and Q are affine in y (see `family`), each smoothed field is the
kernel density smooth times the family's field at the kernel-local mean
response.  For d <= 2 both smooths are a cached property of the context
(`NwContext.dense_smooths`), built on first use, so each evaluation is
one family call on the dense G x G grid.

Gaussian fits take the order-0 closed form `backfit.identity_marginals`
at every d.  For d >= 3 no d-dimensional tensor is ever materialized:
Poisson log-link fits take `backfit.poisson_marginals` until the
predictor reaches the family's clamp; beyond it, and for other families,
the marginals are accumulated by streaming over observations on their
kernel support windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    newton_fit,
    poisson_marginals,
)
from .family import Family
from .grid import Dataset, Grid, MarginalAccumulator, window_tensor

__all__ = [
    "NwContext",
    "NwFit",
    "nw_prepare",
    "nw_marginals",
    "nw_inner_solve",
    "nw_outer_update",
    "fit_nw",
]


class NwContext(FitContext):
    """The order-0 context: `FitContext` plus the dense path's smooths,
    which Gaussian fits, taking the closed form, never build."""

    order = 0

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
                          - float(tw[0] @ _dense_curves(q0, tw)[0]))
        return phat, ybar, sq_offset


# each smoother's preparation keeps its own module-level name, so that it
# can be wrapped or traced on its own, as its inner solve does
nw_prepare = NwContext.build


def nw_marginals(ctx: NwContext, eta0: float, components) -> Marginals:
    """Order-0 marginals of the smoothed weight and score at the given
    additive predictor, checked against the positivity floor.

    Holds the weight mass, its one-dimensional curves and, for d >= 2, its
    two-dimensional surfaces keyed by dimension pairs (j, l) with j < l,
    together with the score total and curves and the smoothed
    quasi-likelihood value.
    """
    marg = identity_marginals(ctx, eta0, components)
    if marg is None and ctx.grid.ndim <= 2:
        marg = _nw_marginals_dense(ctx, eta0, components)
    elif marg is None:
        marg = (poisson_marginals(ctx, eta0, components)
                or _nw_marginals_streamed(ctx, eta0, components))
    return marg.check_weight(ctx.grid)


def _dense_curves(field, tw):
    """One-dimensional marginals of a field on a 1-D or 2-D grid."""
    if field.ndim == 1:
        return [field]
    return [field @ tw[1], tw[0] @ field]


def _nw_marginals_dense(ctx, eta0, components):
    """Marginals for d <= 2: each smoothed field is phat times the family's
    field at the kernel-local mean response, plus sq_offset for SQ."""
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
        mass=float(tw[0] @ wcurves[0]),
        weight=[w[None] for w in wcurves],
        score=[s[None] for s in scurves],
        pairs={(0, 1): wfield} if wfield.ndim == 2 else {},
        score_total=float(tw[0] @ scurves[0]),
        sq=float(tw[0] @ _dense_curves(qfield, tw)[0]) + sq_offset,
    )


def _nw_marginals_streamed(ctx, eta0, components):
    grid, fam, y = ctx.grid, ctx.family, ctx.dataset.y
    d = grid.ndim
    n = ctx.dataset.n
    dims = range(d)
    pairs = [(j, l) for j in dims for l in dims if j < l]
    wacc = MarginalAccumulator(grid, curve_dims=dims, pair_dims=pairs)
    sacc = MarginalAccumulator(grid, curve_dims=dims)
    sq_acc = 0.0
    for i in range(n):
        lo = [ctx.windows[j][0][i] for j in dims]
        hi = [ctx.windows[j][1][i] for j in dims]
        kprod = window_tensor([ctx.rows[j][i, lo[j]:hi[j]] for j in dims])
        u = eta0
        for j in dims:
            shape = [1] * d
            shape[j] = hi[j] - lo[j]
            u = u + components[j][lo[j]:hi[j]].reshape(shape)
        wacc.add(lo, hi, -fam.q2(u, y[i]) * kprod)
        sacc.add(lo, hi, fam.q1(u, y[i]) * kprod)
        qfield = fam.qll(u, y[i]) * kprod
        for ax in reversed(dims):
            qfield = np.tensordot(qfield, grid.weights[ax][lo[ax]:hi[ax]],
                                  axes=([ax], [0]))
        sq_acc += float(qfield)
    return Marginals(
        mass=wacc.total / n,
        weight=[wacc.curves[j][None] / n for j in dims],
        score=[sacc.curves[j][None] / n for j in dims],
        pairs={k: v / n for k, v in wacc.pairs.items()},
        score_total=sacc.total / n,
        sq=sq_acc / n,
    )


# each smoother's inner solve keeps its own module-level name, so that
# it can be wrapped or traced on its own
nw_inner_solve = inner_solve


def nw_outer_update(ctx: NwContext, eta0: float, components, xi0: float, xi,
                    config: FitConfig):
    """Apply one damped Newton step and recenter at the new iterate.

    Returns (eta0, components, marginals, constraint_residual, change)
    where marginals are evaluated at the updated predictor (they serve the
    next iteration), constraint_residual is the largest component
    constraint integral after recentering, and change is the exact sup-norm
    of the predictor update over the grid.
    """
    return damped_step(ctx, eta0, [components], xi0, [xi], config,
                       nw_marginals)


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
