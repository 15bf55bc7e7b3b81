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

For d <= 2 the weight moments are computed by dense blocked reductions
over observations on the full (at most G x G) grid; for d >= 3 they are
accumulated by streaming observations over their kernel support windows,
so nothing of full product-grid size is ever formed.

The Newton loop, the Gauss-Seidel scaffold, the damped step with
recentering, input preparation and the fitted-model base live in
`nw_fit`; this module supplies the moment marginals, the pointwise 2 x 2
solve of each component block and the constraint functional above.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .family import Family
from .grid import Dataset, Grid, MarginalAccumulator, window_tensor
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

# cap, in scalar cells, for caching the full (n, G1, G2) kernel product
CACHE_CELLS = 4_000_000
# cap, in scalar cells, for one block of observation-by-grid workspaces
BLOCK_CELLS = 2_000_000


@dataclass
class LlContext(FitContext):
    """Shared precomputations plus regressor offsets and kernel products."""

    tvals: list | None = None
    kprod: np.ndarray | None = None


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
    grid, h, rows = ctx.grid, ctx.bandwidths, ctx.rows
    d = dataset.ndim
    ctx.tvals = [
        (dataset.x[:, j][:, None] - grid.points[j][None, :]) / h[j]
        for j in range(d)
    ]
    if d == 2 and dataset.n * grid.shape[0] * grid.shape[1] <= CACHE_CELLS:
        ctx.kprod = rows[0][:, :, None] * rows[1][:, None, :]
    return ctx


def ll_predictor_field(ctx: LlContext, eta00: float, comps0, comps1,
                       i: int) -> np.ndarray:
    """The local linear predictor eta(X_i, x) on the full product grid.

    Meant for small problems (tests, diagnostics); the fitting code never
    forms these fields beyond d = 2.
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


def ll_marginals(ctx: LlContext, eta00: float, comps0, comps1) -> LlMarginals:
    """Weight moments and score marginals at the given iterate."""
    if ctx.grid.ndim <= 2:
        marg = _ll_marginals_dense(ctx, eta00, comps0, comps1)
    else:
        marg = _ll_marginals_streamed(ctx, eta00, comps0, comps1)
    _ll_check(marg, ctx.grid)
    return marg


def _ll_marginals_dense(ctx, eta00, comps0, comps1):
    grid, fam, y = ctx.grid, ctx.family, ctx.dataset.y
    n = ctx.dataset.n
    tw = grid.weights
    if grid.ndim == 1:
        t = ctx.tvals[0]
        k = ctx.rows[0]
        u = eta00 + comps0[0][None, :] + t * comps1[0][None, :]
        wk = -fam.q2(u, y[:, None]) * k
        sk = fam.q1(u, y[:, None]) * k
        sq = float(tw[0] @ (fam.qll(u, y[:, None]) * k).sum(axis=0)) / n
        v00 = wk.sum(axis=0) / n
        v01 = (t * wk).sum(axis=0) / n
        v11 = (t * t * wk).sum(axis=0) / n
        z0 = sk.sum(axis=0) / n
        z1 = (t * sk).sum(axis=0) / n
        return LlMarginals(
            mass=float(tw[0] @ v00), v00=[v00], v01=[v01], v11=[v11],
            p00={}, p0a={}, p0b={}, p11={},
            z0=[z0], z1=[z1], score00=float(tw[0] @ z0), sq=sq,
        )
    g1, g2 = grid.shape
    block = max(1, BLOCK_CELLS // (g1 * g2))
    t1f, t2f = ctx.tvals
    p00 = np.zeros((g1, g2))
    p0a = np.zeros((g1, g2))
    p0b = np.zeros((g1, g2))
    p11s = np.zeros((g1, g2))
    v11_1 = np.zeros(g1)
    v11_2 = np.zeros(g2)
    z0_1 = np.zeros(g1)
    z0_2 = np.zeros(g2)
    z1_1 = np.zeros(g1)
    z1_2 = np.zeros(g2)
    sq = 0.0
    for s in range(0, n, block):
        e = min(n, s + block)
        t1 = t1f[s:e]
        t2 = t2f[s:e]
        yb = y[s:e, None, None]
        if ctx.kprod is not None:
            kp = ctx.kprod[s:e]
        else:
            kp = ctx.rows[0][s:e, :, None] * ctx.rows[1][s:e, None, :]
        u = (eta00
             + (comps0[0][None, :] + t1 * comps1[0][None, :])[:, :, None]
             + (comps0[1][None, :] + t2 * comps1[1][None, :])[:, None, :])
        wk = -fam.q2(u, yb) * kp
        sk = fam.q1(u, yb) * kp
        sq += float(np.einsum("igh,g,h->", fam.qll(u, yb) * kp, tw[0], tw[1]))
        p00 += np.einsum("igh->gh", wk)
        p0a += np.einsum("ig,igh->gh", t1, wk)
        p0b += np.einsum("ih,igh->gh", t2, wk)
        p11s += np.einsum("ig,ih,igh->gh", t1, t2, wk)
        v11_1 += np.einsum("ig,igh,h->g", t1 * t1, wk, tw[1])
        v11_2 += np.einsum("ih,igh,g->h", t2 * t2, wk, tw[0])
        z0_1 += np.einsum("igh,h->g", sk, tw[1])
        z0_2 += np.einsum("igh,g->h", sk, tw[0])
        z1_1 += np.einsum("ig,igh,h->g", t1, sk, tw[1])
        z1_2 += np.einsum("ih,igh,g->h", t2, sk, tw[0])
    for arr in (p00, p0a, p0b, p11s, v11_1, v11_2, z0_1, z0_2, z1_1, z1_2):
        arr /= n
    sq /= n
    v00 = [p00 @ tw[1], tw[0] @ p00]
    v01 = [p0a @ tw[1], tw[0] @ p0b]
    return LlMarginals(
        mass=float(tw[0] @ v00[0]),
        v00=v00, v01=v01, v11=[v11_1, v11_2],
        p00={(0, 1): p00}, p0a={(0, 1): p0a},
        p0b={(0, 1): p0b}, p11={(0, 1): p11s},
        z0=[z0_1, z0_2], z1=[z1_1, z1_2],
        score00=float(tw[0] @ z0_1), sq=sq,
    )


def _ll_marginals_streamed(ctx, eta00, comps0, comps1):
    grid, fam, y = ctx.grid, ctx.family, ctx.dataset.y
    d = grid.ndim
    n = ctx.dataset.n
    dims = range(d)
    pairs = [(j, l) for j in dims for l in dims if j < l]
    w_acc = MarginalAccumulator(grid, curve_dims=dims, pair_dims=pairs)
    wt_acc = [
        MarginalAccumulator(
            grid, curve_dims=[j],
            pair_dims=[p for p in pairs if j in p],
        )
        for j in dims
    ]
    wtt_acc = [MarginalAccumulator(grid, curve_dims=[j]) for j in dims]
    wpp_acc = {p: MarginalAccumulator(grid, pair_dims=[p]) for p in pairs}
    s_acc = MarginalAccumulator(grid, curve_dims=dims)
    st_acc = [MarginalAccumulator(grid, curve_dims=[j]) for j in dims]
    sq_acc = 0.0
    for i in range(n):
        lo = [ctx.windows[j][0][i] for j in dims]
        hi = [ctx.windows[j][1][i] for j in dims]
        kprod = window_tensor([ctx.rows[j][i, lo[j]:hi[j]] for j in dims])
        tseg = []
        u = eta00
        for j in dims:
            shape = [1] * d
            shape[j] = hi[j] - lo[j]
            tj = ctx.tvals[j][i, lo[j]:hi[j]].reshape(shape)
            tseg.append(tj)
            u = u + (comps0[j][lo[j]:hi[j]]
                     + ctx.tvals[j][i, lo[j]:hi[j]] * comps1[j][lo[j]:hi[j]]
                     ).reshape(shape)
        wk = -fam.q2(u, y[i]) * kprod
        sk = fam.q1(u, y[i]) * kprod
        w_acc.add(lo, hi, wk)
        s_acc.add(lo, hi, sk)
        for j in dims:
            wt_acc[j].add(lo, hi, tseg[j] * wk)
            wtt_acc[j].add(lo, hi, tseg[j] * tseg[j] * wk)
            st_acc[j].add(lo, hi, tseg[j] * sk)
        for (a, b) in pairs:
            wpp_acc[(a, b)].add(lo, hi, tseg[a] * tseg[b] * wk)
        qfield = fam.qll(u, y[i]) * kprod
        for ax in reversed(dims):
            qfield = np.tensordot(qfield, grid.weights[ax][lo[ax]:hi[ax]],
                                  axes=([ax], [0]))
        sq_acc += float(qfield)
    return LlMarginals(
        mass=w_acc.total / n,
        v00=[w_acc.curves[j] / n for j in dims],
        v01=[wt_acc[j].curves[j] / n for j in dims],
        v11=[wtt_acc[j].curves[j] / n for j in dims],
        p00={p: v / n for p, v in w_acc.pairs.items()},
        p0a={(a, b): wt_acc[a].pairs[(a, b)] / n for (a, b) in pairs},
        p0b={(a, b): wt_acc[b].pairs[(a, b)] / n for (a, b) in pairs},
        p11={p: wpp_acc[p].pairs[p] / n for p in pairs},
        z0=[s_acc.curves[j] / n for j in dims],
        z1=[st_acc[j].curves[j] / n for j in dims],
        score00=s_acc.total / n,
        sq=sq_acc / n,
    )


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
