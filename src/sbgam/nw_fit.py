"""Additive quasi-likelihood fitting with local constant smoothing.

The estimator maximizes the smoothed quasi-likelihood

    SQ(eta) = integral n^{-1} sum_i Q(g^{-1}(eta(x)), Y_i) K_h(x, X_i) dx

over additive predictors eta(x) = eta_0 + sum_j eta_j(x_j), where K_h is
the product of boundary-corrected kernels and each component is pinned
down by the constraint integral eta_j(x_j) w_j(x_j) dx_j = 0 against the
current smoothed weight marginal.

The optimizer is a Newton scheme in function space.  At the current
iterate the quasi-likelihood is expanded to second order, which turns the
step into a penalized least-squares backfitting problem driven by two
smoothed fields,

    score(x)  = n^{-1} sum_i q1(eta(x), Y_i) K_h(x, X_i),
    weight(x) = n^{-1} sum_i -q2(eta(x), Y_i) K_h(x, X_i),

and that inner problem is solved by Gauss-Seidel sweeps over components
using only the weight's one- and two-dimensional marginals.  Because q1,
q2 and Q are affine in y (see `family`), each smoothed field is the kernel
density smooth times the family's field at the kernel-local mean response.
For d <= 2 both smooths are precomputed once per fit, so each evaluation
is one family call on the dense G x G grid.

For d >= 3 no d-dimensional tensor is ever materialized.  With the
Gaussian identity link q2 = -1, so the weight field is the density smooth
itself and the score is affine in the components: every marginal is then
an exact linear function of the one- and two-dimensional smooths
P_j = n^{-1} sum_i K_j(x_j, X_ij), P_jl = n^{-1} sum_i K_j K_l and
R_j = n^{-1} sum_i Y_i K_j, precomputed once per fit.  This is the smooth
backfitting system of Mammen, Linton and Nielsen (1999); it is exact on
the grid because every kernel row integrates to one under the trapezoid
rule.  With the Poisson log link e^eta is a product over axes, so every
marginal splits into per-observation, per-axis integrals over the kernel
windows (`_poisson_marginals`, which serves both smoothers); it is exact
until the predictor reaches the family's clamp, where the streamed path
takes over.  For other families the marginals are accumulated by
streaming over observations on their kernel support windows.

After every Newton step the components are recentered against the weight
marginals of the updated iterate, and the intercept absorbs the shifts,
which leaves the fitted predictor untouched and the constraints satisfied
to machine precision.

Both smoothers run the same algorithm, held here once and reused by
`ll_fit`, because the local constant system is the order-0 case of the
local linear one: `FitContext.build` (inputs, kernel rows), `Marginals`
(weight moments and score marginals of local-polynomial order p, with
the constraint functional and the weight check), `inner_solve` (block
Gauss-Seidel sweeps on operators formed once per Newton step),
`_newton_fit` (outer loop and diagnostics), `_damped_step` (step and
recentering) and `AdditiveFit` (prediction).  A smoother supplies only
the producer of its marginals, of order 0 here and 1 in `ll_fit`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import prod
from operator import attrgetter

import numpy as np

from . import kernels
from .errors import (
    DegenerateWeightError,
    InitializerError,
    InputError,
    NonConvergenceError,
)
from .family import Family, GaussianIdentity, PoissonLog, get_family
from .grid import Dataset, Grid, MarginalAccumulator, window_tensor

__all__ = [
    "FitConfig",
    "FitDiagnostics",
    "FitContext",
    "AdditiveFit",
    "NwContext",
    "Marginals",
    "NwFit",
    "nw_prepare",
    "nw_marginals",
    "inner_solve",
    "nw_inner_solve",
    "nw_outer_update",
    "fit_nw",
]

# positivity floor for smoothed weight marginals, relative to mass per cell
WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class FitConfig:
    """Iteration controls shared by both smoothers.

    tol_outer is the relative sup-norm change of the fitted predictor that
    stops the Newton loop; tol_inner the absolute sup-norm change of the
    step components that stops the backfitting sweeps.  damping scales the
    Newton step (1 is a full step).
    """

    tol_outer: float = 1e-6
    tol_inner: float = 1e-8
    max_outer: int = 30
    max_inner: int = 100
    damping: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.damping <= 1.0):
            raise InputError("damping must lie in (0, 1]")
        if self.tol_outer <= 0.0 or self.tol_inner <= 0.0:
            raise InputError("tolerances must be positive")
        if self.max_outer < 1 or self.max_inner < 1:
            raise InputError("iteration limits must be at least 1")


@dataclass
class FitDiagnostics:
    """Per-iteration record of a fit.

    outer_changes holds the relative sup-norm predictor changes, one per
    Newton step; constraint_residuals the largest component-constraint
    integral after each step's recentering; sq_path the smoothed
    quasi-likelihood at the start and after each step.
    """

    converged: bool = False
    outer_iterations: int = 0
    outer_changes: list = field(default_factory=list)
    inner_sweep_counts: list = field(default_factory=list)
    inner_contractions: list = field(default_factory=list)
    inner_change_histories: list = field(default_factory=list)
    constraint_residuals: list = field(default_factory=list)
    sq_path: list = field(default_factory=list)
    weight_total: float = 0.0
    residual_norm: float = float("nan")


@dataclass
class FitContext:
    """Per-fit precomputations both smoothers share.

    rows[j] holds the kernel rows of dimension j, (n, G_j), computed by
    `build`.  windows and response_smooths are computed on first access
    and kept, so a path that never reads them never pays for them:
    windows[j] is the (lo, hi) pair of `kernels.row_windows(rows[j])`, read
    only by the streamed NW path and the LL block engine, and
    response_smooths[j] the y-part of the Poisson score rows.
    """

    dataset: Dataset
    grid: Grid
    family: Family
    bandwidths: np.ndarray
    kernel: str
    rows: list

    @classmethod
    def build(cls, dataset: Dataset, bandwidths, grid, family, kernel: str):
        """Validate the inputs and compute the kernel rows."""
        fam = get_family(family)
        fam.validate_response(dataset.y)
        d = dataset.ndim
        if grid is None:
            grid = Grid.uniform(d)
        if grid.ndim != d:
            raise InputError(f"grid has {grid.ndim} dimensions, data has {d}")
        h = kernels.validate_bandwidths(bandwidths, d)
        rows = [
            kernels.kernel_rows(grid.points[j], dataset.x[:, j], h[j], kernel,
                                grid.weights[j])
            for j in range(d)
        ]
        return cls(dataset=dataset, grid=grid, family=fam, bandwidths=h,
                   kernel=kernel, rows=rows)

    @cached_property
    def windows(self) -> list:
        """Half-open index windows (lo, hi) of each dimension's rows."""
        return [kernels.row_windows(r) for r in self.rows]

    @cached_property
    def response_smooths(self) -> list:
        """The response smooths n^-1 sum_i Y_i K_ij, one (1, G_j) stack
        per dimension j."""
        y, n = self.dataset.y, self.dataset.n
        return [(y @ r / n)[None] for r in self.rows]


@dataclass
class NwContext(FitContext):
    """Shared precomputations plus the data smooths of the closed forms.

    For d <= 2, phat is the density smooth n^{-1} sum_i K_i on the full
    grid, ybar the kernel-local mean response (the response smooth over
    phat; mean(y) where phat is 0) and sq_offset the y-only term of SQ,
    mean_i Q(0, Y_i) - integral phat Q(0, ybar).
    For the Gaussian identity link at d >= 3, p_curves, p_pairs and
    r_curves hold the one- and two-dimensional density smooths and the
    response smooths, y_mean and y2_mean the first two response moments.
    """

    phat: np.ndarray | None = None
    ybar: np.ndarray | None = None
    sq_offset: float = 0.0
    p_curves: list | None = None
    p_pairs: dict | None = None
    r_curves: list | None = None
    y_mean: float = 0.0
    y2_mean: float = 0.0


@dataclass
class Marginals:
    """Weight moments and score marginals of local-polynomial order p at
    one iterate: p = 0 for the local constant smoother, p = 1 for the
    local linear one.

    With t_j the bandwidth-scaled regressor offset along x_j (absent when
    p = 0): weight[j] is the (2p + 1, G_j) stack of the observation-weight
    moments against t_j^k, k <= 2p, marginalized to x_j; score[j] the
    (p + 1, G_j) stack of the score smooths against t_j^a, a <= p; and
    pairs[j, l], j < l, the ((p + 1) G_j, (p + 1) G_l) block matrix whose
    block (a, b) is the weight moment surface against t_j^a t_l^b on the
    (x_j, x_l) grid.  mass and score_total integrate the weight and the
    score over the whole grid; sq is the smoothed quasi-likelihood.
    """

    mass: float
    weight: list
    score: list
    pairs: dict
    score_total: float
    sq: float

    def constraint(self, grid: Grid, j: int, *curves) -> float:
        """Constraint functional sum_a integral curve_a W_j^a dx_j of
        component j, W_j^a its weight moment against t_j^a."""
        tw = grid.weights[j]
        return sum(float(tw @ (c * m)) for c, m in zip(curves,
                                                         self.weight[j]))

    def residual_norm(self, grid: Grid) -> float:
        """Size of the estimating-equation fields at this iterate.

        The square root of score_total^2 plus the integrated squared score
        curves; identically zero exactly at a solution of the estimating
        equations.
        """
        parts = self.score_total ** 2
        for j, curves in enumerate(self.score):
            for s in curves:
                parts += float(grid.weights[j] @ (s * s))
        return float(np.sqrt(parts))

    def check_weight(self, grid: Grid) -> "Marginals":
        """Return self, or raise DegenerateWeightError unless the mass and,
        at every grid point, the smallest eigenvalue of the pointwise
        moment matrix clear the positivity floor."""
        if self.mass <= 0.0:
            raise DegenerateWeightError(0, 0.0, self.mass, 0.0)
        for j, moments in enumerate(self.weight):
            lam = _smallest_eigenvalue(moments)
            floor = WEIGHT_FLOOR * self.mass / grid.shape[j]
            k = int(np.argmin(lam))
            if lam[k] < floor:
                raise DegenerateWeightError(j, float(grid.points[j][k]),
                                            float(lam[k]), floor)
        return self


def _smallest_eigenvalue(m):
    """Smallest eigenvalue of each pointwise moment matrix [m_{a+b}],
    a, b <= p, from its 2p + 1 moment curves m (p <= 1); for p = 0 the
    weight curve itself."""
    if len(m) == 1:
        return m[0]
    tr = m[0] + m[2]
    det = m[0] * m[2] - m[1] ** 2
    return 0.5 * (tr - np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))


def _inverse_moments(m):
    """Inverse of each pointwise moment matrix [m_{a+b}], a, b <= p, as a
    (p + 1, p + 1, G) stack (p <= 1)."""
    if len(m) == 1:
        return 1.0 / m[None]
    det = m[0] * m[2] - m[1] * m[1]
    return np.array([[m[2], -m[1]], [-m[1], m[0]]]) / det


def _poisson_marginals(ctx: FitContext, eta0: float, comps0, comps1=None):
    """Exact Poisson log-link marginals of order p from per-axis integrals.

    Order 0 without comps1; order 1 with it, ctx.tvals then holding the
    t_j.  Observation i's predictor eta0 + sum_j a_ij(x_j), with
    a_ij = c0_j + t_ij c1_j (c_j alone for p = 0), is additive, so e^u
    is a product over axes, and each of the fields (e^u, y - e^u,
    y u - e^u) times the kernel product splits into one-dimensional
    integrals over the observation's kernel windows.  With m_ij the
    largest a_ij where k_ij > 0, e_ij = exp(a_ij - m_ij) k_ij,
    Phi_ij = integral e_ij, A_ij = integral a_ij k_ij and
    E_i = exp(eta0 + sum_j m_ij), and since every kernel row integrates
    to one under the trapezoid rule:

        weight[j][k] = n^-1 sum_i t_ij^k e_ij E_i prod_{l != j} Phi_il,
        pairs[j, l] block (a, b) = n^-1 sum_i (t_ij^a e_ij) (t_il^b e_il)
                                   E_i prod_{m != j, l} Phi_im,
        score[j][a]  = n^-1 sum_i y_i t_ij^a k_ij - weight[j][a],
        sq = n^-1 sum_i y_i (eta0 + sum_j A_ij) - E_i prod_j Phi_ij.

    The y-part of score[j] does not depend on the iterate; it is
    ctx.response_smooths[j], computed once per fit.  Each pair is one
    (p + 1) G_j by (p + 1) G_l matrix product over the
    observations; nothing of window-product size is formed.  The shift by
    m_ij keeps every exponential factor at most 1, so a large term on
    one axis offset by another cannot overflow.  Returns None unless the
    family is PoissonLog and no window's predictor exceeds the family's
    clamp, beyond which these identities stop holding.
    """
    fam = ctx.family
    if not isinstance(fam, PoissonLog):
        return None
    grid, y, n = ctx.grid, ctx.dataset.y, ctx.dataset.n
    tw, order = grid.weights, 0 if comps1 is None else 1
    # moms[j], (n, p + 1, G_j), holds a_ij - m_ij in row 0 until the
    # guard has passed, then t_ij^a e_ij in row a
    moms, lin, top = [], [], np.full(n, float(eta0))
    for j, k in enumerate(ctx.rows):
        mom = np.empty((n, order + 1, grid.shape[j]))
        a = mom[:, 0]
        if order:
            np.multiply(ctx.tvals[j], comps1[j], out=a)
            a += comps0[j]
        else:
            a[:] = comps0[j]
        lin.append((a * k) @ tw[j])
        np.copyto(a, -np.inf, where=k <= 0.0)
        m = a.max(axis=1)
        a -= m[:, None]
        top += m
        moms.append(mom)
    if top.max() > fam.clamp_hi:
        return None
    scale = np.exp(top) / n
    phi = []
    for j, mom in enumerate(moms):
        e = mom[:, 0]
        np.exp(e, out=e)
        e *= ctx.rows[j]
        if order:
            np.multiply(ctx.tvals[j], e, out=mom[:, 1])
        phi.append(e @ tw[j])
        # column block a of this view is t_j^a e_j
        moms[j] = mom.reshape(n, -1)

    def others(vals, *skip):
        return prod((v for l, v in enumerate(vals) if l not in skip),
                    start=np.ones(n))

    weight, score = [], []
    for j, g in enumerate(grid.shape):
        coef = scale * others(phi, j)
        w = [coef @ moms[j]]
        if order:
            w.append(coef @ (ctx.tvals[j] * moms[j][:, g:]))
        weight.append(np.concatenate(w).reshape(-1, g))
        score.append(ctx.response_smooths[j] - weight[j][:order + 1])
    pairs = {}
    for j, l in combinations(range(grid.ndim), 2):
        left = moms[j] * (scale * others(phi, j, l))[:, None]
        pairs[j, l] = left.T @ moms[l]
    ylin = eta0 + sum(lin)
    tw0 = tw[0]
    return Marginals(mass=float(tw0 @ weight[0][0]), weight=weight,
                     score=score, pairs=pairs,
                     score_total=float(tw0 @ score[0][0]),
                     sq=float(y @ ylin) / n - float(scale @ prod(phi)))


def nw_prepare(
    dataset: Dataset,
    bandwidths,
    grid: Grid | None = None,
    family: Family | str = "gaussian",
    kernel: str = "epanechnikov",
) -> NwContext:
    """Validate inputs and precompute everything that does not change
    across Newton iterations."""
    ctx = NwContext.build(dataset, bandwidths, grid, family, kernel)
    rows = ctx.rows
    n = dataset.n
    d = dataset.ndim
    y = dataset.y
    if d <= 2:
        if d == 1:
            ctx.phat = rows[0].sum(axis=0) / n
            rhat = y @ rows[0] / n
        else:
            ctx.phat = rows[0].T @ rows[1] / n
            rhat = (rows[0] * y[:, None]).T @ rows[1] / n
        ctx.ybar = np.full(ctx.phat.shape, np.mean(y))
        np.divide(rhat, ctx.phat, out=ctx.ybar, where=ctx.phat != 0.0)
        # SQ is integral phat Q(u, ybar) plus the y-only part of Q, a
        # constant because every kernel row integrates to one; at_zero.sq
        # is the first term at u = 0, taken while sq_offset is still 0
        at_zero = _nw_marginals_dense(ctx, 0.0, [np.zeros(g) for g in
                                                 ctx.grid.shape])
        ctx.sq_offset = float(np.mean(ctx.family.fields(0.0, y)[2])
                              - at_zero.sq)
    elif isinstance(ctx.family, GaussianIdentity):
        # P_j and R_j from one product per axis: a column sum of the rows
        # alone took longer than this product
        ones_y = np.stack([np.ones(n), y])
        smooths = [ones_y @ r / n for r in rows]
        ctx.p_curves = [m[0] for m in smooths]
        ctx.r_curves = [m[1] for m in smooths]
        ctx.p_pairs = {(j, l): rows[j].T @ rows[l] / n
                       for j in range(d) for l in range(j + 1, d)}
        ctx.y_mean = float(np.mean(y))
        ctx.y2_mean = float(np.mean(y * y))
    return ctx


def nw_marginals(ctx: NwContext, eta0: float, components) -> Marginals:
    """Order-0 marginals of the smoothed weight and score at the given
    additive predictor, checked against the positivity floor.

    Holds the weight mass, its one-dimensional curves and, for d >= 2, its
    two-dimensional surfaces keyed by dimension pairs (j, l) with j < l,
    together with the score total and curves and the smoothed
    quasi-likelihood value.
    """
    if ctx.p_curves is not None:
        marg = _nw_marginals_identity(ctx, eta0, components)
    elif ctx.grid.ndim <= 2:
        marg = _nw_marginals_dense(ctx, eta0, components)
    else:
        marg = _poisson_marginals(ctx, eta0, components)
        if marg is None:
            marg = _nw_marginals_streamed(ctx, eta0, components)
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
    u = eta0 + components[0]
    if len(components) == 2:
        u = u[:, None] + components[1]
    wfield, sfield, qfield = ctx.family.fields(u, ctx.ybar)
    for f in (wfield, sfield, qfield):
        f *= ctx.phat
    wcurves = _dense_curves(wfield, tw)
    scurves = _dense_curves(sfield, tw)
    return Marginals(
        mass=float(tw[0] @ wcurves[0]),
        weight=[w[None] for w in wcurves],
        score=[s[None] for s in scurves],
        pairs={(0, 1): wfield} if wfield.ndim == 2 else {},
        score_total=float(tw[0] @ scurves[0]),
        sq=float(tw[0] @ _dense_curves(qfield, tw)[0]) + ctx.sq_offset,
    )


def _nw_marginals_identity(ctx, eta0, components):
    """Closed-form marginals for the Gaussian identity link.

    With g_l = w_l eta_l the score curves are
    R_j - (eta0 + eta_j) P_j - sum_{l != j} P_jl g_l, and SQ is -1/2 times
    the expanded integral of n^{-1} sum_i (Y_i - eta)^2 K_i.
    """
    d = ctx.grid.ndim
    P, Ppair, R = ctx.p_curves, ctx.p_pairs, ctx.r_curves
    g = [w * c for w, c in zip(ctx.grid.weights, components)]
    scurves = []
    for j in range(d):
        s = R[j] - (eta0 + components[j]) * P[j]
        for l in range(d):
            if l < j:
                s -= g[l] @ Ppair[(l, j)]
            elif l > j:
                s -= Ppair[(j, l)] @ g[l]
        scurves.append(s)
    gP = sum(float(g[l] @ P[l]) for l in range(d))
    gR = sum(float(g[l] @ R[l]) for l in range(d))
    geP = sum(float((g[l] * components[l]) @ P[l]) for l in range(d))
    cross = sum(float(g[j] @ Ppair[(j, l)] @ g[l]) for j, l in Ppair)
    square = (ctx.y2_mean - 2.0 * (ctx.y_mean * eta0 + gR) + eta0 * eta0
              + 2.0 * eta0 * gP + geP + 2.0 * cross)
    return Marginals(
        mass=float(ctx.grid.weights[0] @ P[0]),
        weight=[p[None] for p in P],
        score=[s[None] for s in scurves],
        pairs=Ppair,
        score_total=ctx.y_mean - eta0 - gP,
        sq=-0.5 * square,
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


def inner_solve(marg: Marginals, grid: Grid, config: FitConfig):
    """Solve the linearized backfitting system by block Gauss-Seidel sweeps.

    The step is an intercept xi0 and, per component j, a stacked curve
    xi_j of p + 1 blocks: the component step, then for p = 1 the slope
    step.  With M_j the pointwise moment matrices, C_jl the pair block
    matrices, D_l the trapezoid weights of x_l and z_j the score stack,
    component j's estimating equations are

        M_j xi_j + xi0 m_j + sum_{l != j} C_jl D_l xi_l = z_j,

    m_j the first column of M_j.  Under the constraints xi0 is
    score_total / mass.  Each sweep sets xi_j = b_j - sum_{l != j} A_jl
    xi_l, then shifts the component block so that the constraint
    functional vanishes.  The shift is linear, so it is applied once per
    call to the operators A_jl = M_j^-1 C_jl D_l and to the right-hand
    sides b_j = M_j^-1 (z_j - xi0 m_j) instead of in every sweep.

    Returns (xi0, *xi, sweeps, contraction, change_history), one list of
    d curves in xi per block entry, sweeps the number of sweeps used and
    contraction the ratio of the last two sweep-change norms.
    """
    tw, mass, shape = grid.weights, marg.mass, grid.shape
    k = len(marg.score[0])
    spans, end = [], 0
    for g in shape:
        spans.append(slice(end, end + k * g))
        end += k * g
    cols = np.concatenate([w for w in tw for _ in range(k)])
    xi0 = marg.score_total / mass
    ops, rhs = [], []
    for j, moments in enumerate(marg.weight):
        # rows [C_j1 D_1 ... C_jd D_d | z_j - xi0 m_j] with C_jj = 0: one
        # pointwise inverse gives the operators A_jl and b_j together
        aug = np.zeros((k * shape[j], end + 1))
        for l in range(grid.ndim):
            if l != j:
                block = marg.pairs[j, l] if j < l else marg.pairs[l, j].T
                aug[:, spans[l]] = block * cols[spans[l]]
        aug[:, end] = (marg.score[j] - xi0 * moments[:k]).ravel()
        # row a G_j + g of aug belongs to regressor a at grid point g
        aug = np.einsum("abg,bgc->agc", _inverse_moments(moments),
                        aug.reshape(k, shape[j], -1)).reshape(aug.shape)
        # the centering shift: the constraint functional over the mass
        aug[:shape[j]] -= ((tw[j] * moments[:k]).ravel() / mass) @ aug
        ops.append(aug[:, :end])
        rhs.append(aug[:, end])

    xi = np.concatenate(rhs)
    changes = []
    for _ in range(config.max_inner):
        before = xi.copy()
        for j, span in enumerate(spans):
            xi[span] = rhs[j] - ops[j] @ xi
        changes.append(float(np.abs(xi - before).max()))
        if changes[-1] < config.tol_inner:
            break
    else:
        raise NonConvergenceError(
            f"backfitting sweeps did not converge in {config.max_inner} "
            f"iterations (last change {changes[-1]:.3e})",
            history=changes, loop="inner",
        )
    contraction = 0.0
    if len(changes) >= 2 and changes[-2] > 0.0:
        contraction = changes[-1] / changes[-2]
    blocks = [xi[span].reshape(k, -1) for span in spans]
    return (xi0, *([b[a] for b in blocks] for a in range(k)), len(changes),
            contraction, changes)


# each smoother's inner solve keeps its own module-level name, so that
# it can be wrapped or traced on its own
nw_inner_solve = inner_solve


def _additive_sup(const: float, curves) -> float:
    """Exact sup norm of const + sum_j curve_j(x_j) over the product grid."""
    hi = const + sum(float(c.max()) for c in curves)
    lo = const + sum(float(c.min()) for c in curves)
    return max(abs(hi), abs(lo))


def _damped_step(ctx: FitContext, eta0: float, blocks, xi0: float, xi,
                 config: FitConfig, marginals):
    """Damped Newton step, then recentering against marg.constraint.

    blocks and xi hold one list of d curves per block entry, component
    curves first; only those are shifted, and the intercept absorbs the
    shifts.  Returns (eta0, *blocks, marginals, residual, change).
    """
    grid = ctx.grid
    d = grid.ndim
    step0 = config.damping * xi0
    steps = [[config.damping * s[j] for j in range(d)] for s in xi]
    change = _additive_sup(step0, steps[0])
    new_eta0 = eta0 + step0
    new = [[b[j] + s[j] for j in range(d)] for b, s in zip(blocks, steps)]
    marg = marginals(ctx, new_eta0, *new)
    shifts = [marg.constraint(grid, j, *(b[j] for b in new)) / marg.mass
              for j in range(d)]
    new[0] = [new[0][j] - shifts[j] for j in range(d)]
    new_eta0 = new_eta0 + sum(shifts)
    residual = max(abs(marg.constraint(grid, j, *(b[j] for b in new)))
                   for j in range(d))
    return (new_eta0, *new, marg, residual, change)


def nw_outer_update(ctx: NwContext, eta0: float, components, xi0: float, xi,
                    config: FitConfig):
    """Apply one damped Newton step and recenter at the new iterate.

    Returns (eta0, components, marginals, constraint_residual, change)
    where marginals are evaluated at the updated predictor (they serve the
    next iteration), constraint_residual is the largest component
    constraint integral after recentering, and change is the exact sup-norm
    of the predictor update over the grid.
    """
    return _damped_step(ctx, eta0, [components], xi0, [xi], config,
                        nw_marginals)


@dataclass(kw_only=True)
class AdditiveFit:
    """Fitted additive predictor: the part both smoothers share.

    Subclasses name their intercept and centered component curves and
    expose them as `intercept` and `curves`.
    """

    grid: Grid
    bandwidths: np.ndarray
    family: str
    kernel: str
    lo: np.ndarray
    hi: np.ndarray
    diagnostics: FitDiagnostics

    def predictor_on_grid(self) -> np.ndarray:
        """Full additive predictor on the product grid (small d only)."""
        out = np.full(self.grid.shape, self.intercept)
        for j, comp in enumerate(self.curves):
            shape = [1] * self.grid.ndim
            shape[j] = comp.size
            out = out + comp.reshape(shape)
        return out

    def component_at(self, j: int, u: np.ndarray) -> np.ndarray:
        """Linear interpolation of component j at rescaled coordinates."""
        return np.interp(np.asarray(u, dtype=float),
                         self.grid.points[j], self.curves[j])

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Additive predictor at covariate rows (n, d), original scale.

        Points outside the training support are clamped to its edges.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.full(x.shape[0], self.intercept)
        for j in range(self.grid.ndim):
            u = (x[:, j] - self.lo[j]) / (self.hi[j] - self.lo[j])
            out += self.component_at(j, np.clip(u, 0.0, 1.0))
        return out

    def predict_mean(self, x: np.ndarray) -> np.ndarray:
        """Fitted response mean at original-scale covariate rows."""
        return get_family(self.family).mean(self.predict(x))


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


def _newton_fit(ctx: FitContext, config: FitConfig | None, fit_class,
                n_blocks: int, marginals, inner_solve, outer_update):
    """Newton steps over smoothed backfitting, shared by both smoothers.

    Starts from eta_0 = g(mean(y)) and n_blocks lists of zero curves and
    stops when the relative sup-norm change of the fitted predictor falls
    below tol_outer.  Returns fit_class(eta0, *blocks, ...).
    """
    config = config or FitConfig()
    grid = ctx.grid
    fam = ctx.family
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        eta0 = float(np.asarray(fam.link(np.mean(ctx.dataset.y))))
    if not np.isfinite(eta0):
        raise InitializerError(
            f"constant-model start g(mean(y)) is not finite for family "
            f"{fam.name!r}; the response is degenerate"
        )
    blocks = [[np.zeros(g) for g in grid.shape] for _ in range(n_blocks)]
    marg = marginals(ctx, eta0, *blocks)
    diag = FitDiagnostics(sq_path=[marg.sq])
    for _ in range(config.max_outer):
        xi0, *xi, sweeps, contraction, history = inner_solve(marg, grid,
                                                             config)
        eta0, *blocks, marg, resid, change = outer_update(
            ctx, eta0, *blocks, xi0, *xi, config
        )
        rel = change / max(1.0, _additive_sup(eta0, blocks[0]))
        diag.outer_iterations += 1
        diag.outer_changes.append(rel)
        diag.inner_sweep_counts.append(sweeps)
        diag.inner_contractions.append(contraction)
        diag.inner_change_histories.append(history)
        diag.constraint_residuals.append(resid)
        diag.sq_path.append(marg.sq)
        if rel < config.tol_outer:
            diag.converged = True
            break
    if not diag.converged:
        raise NonConvergenceError(
            f"no convergence in {config.max_outer} Newton steps "
            f"(last relative change {diag.outer_changes[-1]:.3e})",
            history=diag.outer_changes, loop="outer",
        )
    diag.weight_total = marg.mass
    diag.residual_norm = marg.residual_norm(grid)
    return fit_class(
        eta0, *blocks, grid=grid, bandwidths=ctx.bandwidths,
        family=fam.name, kernel=ctx.kernel, lo=ctx.dataset.lo,
        hi=ctx.dataset.hi, diagnostics=diag,
    )


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
    return _newton_fit(ctx, config, NwFit, 1, nw_marginals, nw_inner_solve,
                       nw_outer_update)
