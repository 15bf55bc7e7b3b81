"""The smoothed backfitting core that both smoothers share.

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
using only the weight's one- and two-dimensional marginals.

After every Newton step the components are recentered against the weight
marginals of the updated iterate, and the intercept absorbs the shifts,
which leaves the fitted predictor untouched and the constraints satisfied
to machine precision.  The evaluation after the step that stops the
loop serves only that recentering, the last SQ and the residual norm;
no inner solve reads its pair moments, so it omits them (`damped_step`).

The local constant system is the order-0 case of the local linear one,
so one algorithm serves both smoothers: `FitContext` (inputs, kernel
rows, and every other precomputation cached on first use), `Marginals`
(weight moments and score marginals of local-polynomial order p on their
grid, from which it derives the totals, the constraint functional and
the weight check), `inner_solve` (block Gauss-Seidel sweeps on operators
formed once per Newton step: (xi0, xi, changes)), `damped_step` (step
and recentering: (eta0, blocks, marg, residual, change)), `newton_fit`
(outer loop and diagnostics) and `AdditiveFit` (prediction).  A
producer maps an iterate (ctx, eta0, *blocks) to its `Marginals`, or to
None where it does not apply, and with pairs=False may leave out the
pair moments, the largest part of an evaluation where they are not
precomputed (the LL block engine and `poisson_marginals` do);
`identity_marginals` (Gaussian identity link), `start_marginals` (any
family at the constant start, from weighted data moments) and
`poisson_marginals` (Poisson log link) serve either order.  A smoother
supplies its fit class and its context class, which declares the order
p (0 in `nw_fit`, 1 in `ll_fit`) and the producers to try in turn, the
last applying everywhere; the router `marginals` returns the first
result, checked against the positivity floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations, product
from math import isfinite, prod

import numpy as np

from . import kernels
from .errors import (
    DegenerateWeightError,
    InitializerError,
    InputError,
    NonConvergenceError,
    is_number,
    require_integer,
)
from .family import Family, GaussianIdentity, PoissonLog, get_family
from .grid import Dataset, Grid, as_floats

__all__ = [
    "WEIGHT_FLOOR",
    "FitConfig",
    "FitDiagnostics",
    "FitContext",
    "Marginals",
    "AdditiveFit",
    "poisson_marginals",
    "identity_marginals",
    "start_marginals",
    "marginals",
    "inner_solve",
    "damped_step",
    "newton_fit",
]

# positivity floor for smoothed weight marginals, relative to mass per cell
WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class FitConfig:
    """Iteration controls shared by both smoothers.

    tol_outer is the relative sup-norm change of the fitted predictor that
    stops the Newton loop; tol_inner the absolute sup-norm change of the
    step components that stops the backfitting sweeps.  damping scales the
    Newton step (1 is a full step).  The tolerances must be finite and
    positive, the iteration limits integers (not bools) of at least 1.
    """

    tol_outer: float = 1e-6
    tol_inner: float = 1e-8
    max_outer: int = 30
    max_inner: int = 100
    damping: float = 1.0

    def __post_init__(self):
        if not (is_number(self.damping) and 0.0 < self.damping <= 1.0):
            raise InputError("damping must lie in (0, 1]")
        if not all(is_number(v) and isfinite(v) and v > 0.0
                   for v in (self.tol_outer, self.tol_inner)):
            raise InputError("tolerances must be finite and positive")
        require_integer("max_outer", self.max_outer, 1)
        require_integer("max_inner", self.max_inner, 1)


@dataclass
class FitDiagnostics:
    """Per-iteration record of a fit.

    outer_changes holds the relative sup-norm predictor changes, one per
    Newton step; inner_change_histories each step's sweep-change norms;
    constraint_residuals the largest component-constraint integral after
    each step's recentering; sq_path the smoothed quasi-likelihood at the
    start and after each step.  The counts derive from the first two.
    """

    converged: bool = False
    outer_changes: list = field(default_factory=list)
    inner_change_histories: list = field(default_factory=list)
    constraint_residuals: list = field(default_factory=list)
    sq_path: list = field(default_factory=list)
    weight_total: float = 0.0
    residual_norm: float = float("nan")

    @property
    def outer_iterations(self) -> int:
        """The number of Newton steps taken."""
        return len(self.outer_changes)

    @property
    def inner_sweep_counts(self) -> list:
        """The number of backfitting sweeps of each step."""
        return [len(h) for h in self.inner_change_histories]

    @property
    def inner_contractions(self) -> list:
        """Each step's ratio of its last two sweep changes; 0.0 when it
        took one sweep or its second-last change is 0."""
        return [h[-1] / h[-2] if len(h) >= 2 and h[-2] > 0.0 else 0.0
                for h in self.inner_change_histories]


@dataclass
class FitContext:
    """Per-fit precomputations both smoothers share.

    A subclass declares two class attributes: its local-polynomial order
    `order`, 0 for the local constant smoother and 1 for the local linear
    one, and `producers`, the marginals producers `marginals` tries in
    turn.  The fields are the inputs and rows[j], the kernel rows of
    dimension j, (n, G_j), computed by `build`.  Everything else a path
    reads is a cached property, computed on its first access and kept,
    so a path that never reads it never pays for it: tvals[j] holds the
    regressor offsets t_j, read only by order-1 paths, windows[j] the
    (lo, hi) pair of `kernels.row_windows(rows[j])`, read only by the
    streamed NW path and the LL block engine, response_smooths[j] the
    y-part of the closed forms' score rows, and identity_moments the
    other moments of `identity_marginals`.  Both come from
    `weighted_moments`, as do the moments of `start_marginals`.
    axis_rows[j], read only by `poisson_marginals`, holds the kernel
    rows, the regressor offsets t_j (order 1), the window penalty (0 on
    the window, -inf off it) and that producer's work buffer, each
    C-contiguous with the observation axis last.
    """

    dataset: Dataset
    grid: Grid
    family: Family
    bandwidths: np.ndarray
    kernel: str
    rows: list

    @classmethod
    def build(cls, dataset: Dataset, bandwidths, grid: Grid | None = None,
              family: Family | str = "gaussian",
              kernel: str = "epanechnikov"):
        """Validate the inputs and compute the kernel rows; everything else
        waits for first use."""
        fam = get_family(family)
        fam.validate_response(dataset.y)
        grid, h, rows = kernels.kernel_design(dataset, bandwidths, grid,
                                              kernel)
        return cls(dataset=dataset, grid=grid, family=fam, bandwidths=h,
                   kernel=kernel, rows=rows)

    @cached_property
    def tvals(self) -> list:
        """Regressor offsets t_j = (X_ij - x_j) / h_j, (n, G_j) per j."""
        x, points, h = self.dataset.x, self.grid.points, self.bandwidths
        return [(x[:, j][:, None] - points[j][None, :]) / h[j]
                for j in range(len(points))]

    @cached_property
    def windows(self) -> list:
        """Half-open index windows (lo, hi) of each dimension's rows."""
        return [kernels.row_windows(r) for r in self.rows]

    def weighted_moments(self, vs, powers: int, pairs: bool = False):
        """Data moments weighted per observation: one product of each
        weight vector with each axis's kernel rows times t_j^k.

        For each v in vs, an (n,) array or None for unit weights, the
        (powers, G_j) stacks n^-1 sum_i v_i t_ij^k K_ij, k < powers, one
        per axis j.  With pairs, also the pair blocks of the first v,
        n^-1 (v o t_j^a K_j)^T (t_l^b K_l) for a, b <= p, keyed (j, l)
        with j < l.  Returns (one list of stacks per v, pair blocks).
        """
        p, n = self.order, self.dataset.n
        stacks, cols = [[] for _ in vs], []
        for j, r in enumerate(self.rows):
            g = r.shape[1]
            # t_j^k K_j for k < powers side by side: for one power the rows
            tk = r if powers == 1 else np.empty((n, powers * g))
            if powers > 1:
                tk[:, :g] = r
                np.multiply(self.tvals[j], r, out=tk[:, g:2 * g])
            if powers > 2:
                np.square(self.tvals[j], out=tk[:, 2 * g:])
                tk[:, 2 * g:] *= r
            for out, v in zip(stacks, vs):
                # a column sum of the rows took longer than this product
                out.append(((np.ones(n) if v is None else v) @ tk / n)
                           .reshape(powers, g))
            cols.append(tk[:, :(p + 1) * g])
        blocks, v = {}, vs[0]
        for j in range(len(cols) - 1) if pairs else ():
            left = cols[j] if v is None else cols[j] * v[:, None]
            for l in range(j + 1, len(cols)):
                blocks[j, l] = left.T @ cols[l] / n
        return stacks, blocks

    @cached_property
    def axis_rows(self) -> list:
        """(k_j, t_j, penalty_j, work_j) per dimension j, each a
        C-contiguous array with the observation axis last: the kernel
        rows, the regressor offsets (None for order 0) and the window
        penalty, 0 where k_ij > 0 and -inf elsewhere, each (G_j, n), and
        the ((2p + 1) G_j, n) buffer `poisson_marginals` works in, so
        one context serves one evaluation at a time."""
        return [(np.ascontiguousarray(k.T),
                 np.ascontiguousarray(self.tvals[j].T) if self.order
                 else None,
                 np.where(k.T > 0.0, 0.0, -np.inf),
                 np.empty(((2 * self.order + 1) * k.shape[1], k.shape[0])))
                for j, k in enumerate(self.rows)]

    @cached_property
    def response_smooths(self) -> list:
        """The response smooths n^-1 sum_i Y_i t_ij^a K_ij, a <= p, one
        (p + 1, G_j) stack per dimension j."""
        return self.weighted_moments([self.dataset.y], self.order + 1)[0][0]

    @cached_property
    def identity_moments(self) -> tuple:
        """The data moments of order p that `identity_marginals` reads:
        (weight, pairs, R, Q, D, the axes' spans in R, mean y^2)."""
        p, n, y = self.order, self.dataset.n, self.dataset.y
        (weight,), pairs = self.weighted_moments([None], 2 * p + 1, True)
        ends = np.cumsum([(p + 1) * m.shape[1] for m in weight])
        spans = [slice(e - (p + 1) * m.shape[1], e)
                 for m, e in zip(weight, ends)]
        dw = np.concatenate([np.tile(w, p + 1) for w in self.grid.weights])
        system = np.zeros((ends[-1], ends[-1]))
        for (j, l), c in pairs.items():
            system[spans[j], spans[l]] = c * dw[spans[l]]
            system[spans[l], spans[j]] = c.T * dw[spans[j]]
        for j, m in enumerate(weight):
            at = spans[j].start + np.arange(m.shape[1])
            for a, b in product(range(p + 1), repeat=2):
                system[at + a * len(at), at + b * len(at)] = m[a + b]
        resp = np.concatenate([r.ravel() for r in self.response_smooths])
        return weight, pairs, resp, system, dw, spans, float(y @ y) / n


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
    (x_j, x_l) grid; sq is the smoothed quasi-likelihood.  mass and
    score_total, the weight and score integrated over the whole grid,
    are derived from the first curves, as the trapezoid rule is exact.
    pairs is None where the producer was asked to leave them out
    (pairs=False): only `inner_solve` reads them, and it rejects such
    marginals.
    """

    grid: Grid
    weight: list
    score: list
    pairs: dict | None
    sq: float

    @cached_property
    def mass(self) -> float:
        return float(self.grid.weights[0] @ self.weight[0][0])

    @cached_property
    def score_total(self) -> float:
        return float(self.grid.weights[0] @ self.score[0][0])

    def constraint(self, j: int, *curves) -> float:
        """Constraint functional sum_a integral curve_a W_j^a dx_j of
        component j, W_j^a its weight moment against t_j^a."""
        tw = self.grid.weights[j]
        return sum(float(tw @ (c * m)) for c, m in zip(curves,
                                                         self.weight[j]))

    def residual_norm(self) -> float:
        """Size of the estimating-equation fields at this iterate.

        The square root of score_total^2 plus the integrated squared score
        curves; identically zero exactly at a solution of the estimating
        equations.
        """
        parts = self.score_total ** 2
        for tw, curves in zip(self.grid.weights, self.score):
            for s in curves:
                parts += float(tw @ (s * s))
        return float(np.sqrt(parts))

    def check_weight(self) -> "Marginals":
        """Return self, or raise DegenerateWeightError unless the mass and,
        at every grid point, the smallest eigenvalue of the pointwise
        moment matrix clear the positivity floor."""
        if self.mass <= 0.0:
            raise DegenerateWeightError(0, 0.0, self.mass, 0.0)
        for j, moments in enumerate(self.weight):
            lam = _smallest_eigenvalue(moments)
            floor = WEIGHT_FLOOR * self.mass / self.grid.shape[j]
            k = int(np.argmin(lam))
            if lam[k] < floor:
                raise DegenerateWeightError(j, float(self.grid.points[j][k]),
                                            float(lam[k]), floor)
        return self


def marginals(ctx: FitContext, eta0: float, *blocks,
              pairs: bool = True) -> Marginals:
    """The marginals at the iterate (eta0, *blocks), checked against the
    positivity floor: the first result of the context's producers that is
    not None.  With pairs=False the producers may leave out the pair
    moments, which `damped_step` asks for after the step that stops the
    Newton loop.  Each smoother keeps this router under its own name."""
    for produce in ctx.producers:
        marg = produce(ctx, eta0, *blocks, pairs=pairs)
        if marg is not None:
            return marg.check_weight()


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


def poisson_marginals(ctx: FitContext, eta0: float, comps0, comps1=None,
                      pairs: bool = True):
    """Exact Poisson log-link marginals of order p from per-axis integrals.

    Of the context's order p: comps1 holds the slopes when p = 1.
    Observation i's predictor eta0 + sum_j a_ij(x_j), with
    a_ij = c0_j + t_ij c1_j (c_j alone for p = 0), is additive, so e^u
    is a product over axes, and each of the fields (e^u, y - e^u,
    y u - e^u) times the kernel product splits into one-dimensional
    integrals over the observation's kernel windows.  With m_ij the
    largest a_ij where k_ij > 0, e_ij = exp(a_ij - m_ij) k_ij,
    Phi_ij = integral e_ij and E_i = exp(eta0 + sum_j m_ij), and since
    every kernel row integrates to one under the trapezoid rule:

        weight[j][k] = n^-1 sum_i t_ij^k e_ij E_i prod_{l != j} Phi_il,
        pairs[j, l] block (a, b) = n^-1 sum_i (t_ij^a e_ij) (t_il^b e_il)
                                   E_i prod_{m != j, l} Phi_im,
        score[j][a]  = R_j^a - weight[j][a],
        sq = eta0 mean(y) + sum_j sum_a integral R_j^a c_j^a
             - n^-1 sum_i E_i prod_j Phi_ij,

    with R_j^a = n^-1 sum_i y_i t_ij^a k_ij the response smooths
    (ctx.response_smooths) and c_j^a the curves (c0_j, c1_j), so the
    y-part of SQ needs no pass over the observations either.

    Each call does only per-iterate work, on the arrays of
    ctx.axis_rows, built once per fit with the observation axis last
    (the kernel rows, t_j and the window penalty, each (G_j, n), and a
    work buffer), so every pass over an axis runs along the
    observations, and the only array of the rows' size a call allocates
    is the scaled left operand of each pair product.  m_ij is the
    maximum of a_ij plus the penalty, and a_ij - m_ij is clipped at 0
    before exp: exp never sees -inf, and a large curve value at a grid
    point in no window, where k_ij = 0, cannot overflow.  Inside the
    windows the shift keeps every factor at most 1, so a large term on
    one axis offset by another cannot overflow either.  Each pair is
    one (p + 1) G_j by (p + 1) G_l matrix product over the
    observations, the largest single step of a call, left out with
    pairs=False; nothing of window-product size is formed.  Returns
    None unless the family is PoissonLog and no window's predictor
    exceeds the family's clamp, beyond which these identities stop
    holding.
    """
    fam = ctx.family
    if not isinstance(fam, PoissonLog):
        return None
    grid, n, order = ctx.grid, ctx.dataset.n, ctx.order
    # work_j holds a_ij - m_ij in its first G_j rows until the guard has
    # passed, then t_ij^k e_ij in row block k; its last block takes
    # a_ij plus the penalty first
    top = np.full(n, float(eta0))
    for j, (k, t, pen, work) in enumerate(ctx.axis_rows):
        g = len(k)
        a = comps0[j][:, None]
        if order:
            a = np.multiply(t, comps1[j][:, None], out=work[:g])
            a += comps0[j][:, None]
        m = np.add(a, pen, out=work[-g:]).max(axis=0)
        # outside the windows, where k_ij = 0, a_ij - m_ij may be positive
        shifted = np.subtract(a, m, out=work[:g])
        np.minimum(shifted, 0.0, out=shifted)
        top += m
    if top.max() > fam.clamp_hi:
        return None
    scale, phi = np.exp(top) / n, []
    for (k, t, _, work), tw in zip(ctx.axis_rows, grid.weights):
        g = len(k)
        e = np.exp(work[:g], out=work[:g])
        e *= k
        for r in range(g, len(work), g):
            np.multiply(t, work[r - g:r], out=work[r:r + g])
        phi.append(tw @ e)
    moms = [work for *_, work in ctx.axis_rows]

    def coef(*skip):
        """E_i / n times Phi_il over every axis l not skipped."""
        return prod((v for l, v in enumerate(phi) if l not in skip),
                    start=scale)

    weight = [(mom @ coef(j)).reshape(-1, g)
              for j, (mom, g) in enumerate(zip(moms, grid.shape))]
    score = [r - w[:order + 1] for r, w in zip(ctx.response_smooths, weight)]
    # rows t_ij^a e_ij, a <= p, of each axis
    cols = [mom[:(order + 1) * g] for mom, g in zip(moms, grid.shape)]
    blocks = ({(j, l): (cols[j] * coef(j, l)) @ cols[l].T
               for j, l in combinations(range(grid.ndim), 2)}
              if pairs else None)
    curves = zip(comps0, *([comps1] if order else []))
    data = sum(float(tw @ (r * c)) for tw, rs, cs in
               zip(grid.weights, ctx.response_smooths, curves)
               for r, c in zip(rs, cs))
    return Marginals(grid=grid, weight=weight, score=score, pairs=blocks,
                     sq=float(eta0) * float(np.mean(ctx.dataset.y)) + data
                     - float(coef().sum()))


def identity_marginals(ctx: FitContext, eta0: float, comps0, comps1=None,
                       pairs: bool = True):
    """Exact Gaussian identity-link marginals of the context's order p.

    With q2 = -1, q1 = y - u and every kernel row integrating to one, the
    weights are the data moments M_j^k = n^-1 sum_i t_ij^k K_ij (k <= 2p),
    the pairs the C_jl^ab = n^-1 (K_j t_j^a)^T (K_l t_l^b), and with
    R_j^a = n^-1 sum_i Y_i t_ij^a K_ij and D_l the trapezoid weights the
    score is

        z_j^a = R_j^a - eta0 M_j^a - sum_b M_j^(a+b) c_j^b
                - sum_{l != j} (C_jl D_l c_l)_a,

    or z = R - Q c on the stack c of all curves with eta0 added to the
    first, as C_jl D_l maps a constant to M_j^a; SQ is
    -1/2 [mean Y^2 - (D c).(R + z)].  This is the smooth backfitting
    system of Mammen, Linton and Nielsen (1999).  The pairs are data
    moments, computed once per fit, so pairs=False changes nothing.
    Returns None unless the family is GaussianIdentity: a QuasiFamily
    with an identity link can have a weight that depends on the iterate.
    """
    if not isinstance(ctx.family, GaussianIdentity):
        return None
    weight, pairs, resp, system, dw, spans, y2m = ctx.identity_moments
    c = np.concatenate(comps0 if comps1 is None else
                       [x for cs in zip(comps0, comps1) for x in cs])
    c[:len(weight[0][0])] += eta0
    z = resp - system @ c
    score = [z[s].reshape(-1, len(w[0])) for s, w in zip(spans, weight)]
    return Marginals(grid=ctx.grid, weight=weight, score=score, pairs=pairs,
                     sq=-0.5 * (y2m - float((dw * c) @ (resp + z))))


def start_marginals(ctx: FitContext, eta0: float, comps0, comps1=None,
                    pairs: bool = True):
    """Exact marginals of the context's order p at the constant start.

    Where every curve and every slope is zero, observation i's predictor
    is eta0 on its whole window, so its fields are the constants
    (w_i, s_i, q_i) = family.fields(eta0, Y_i), and the smoothed fields
    are data moments weighted per observation (w_i depends on Y_i for a
    QuasiFamily).  With every kernel row integrating to one:

        weight[j][k] = n^-1 sum_i w_i t_ij^k K_ij,  k <= 2p,
        pairs[j, l] block (a, b) = n^-1 (w o t_j^a K_j)^T (t_l^b K_l),
        score[j][a]  = n^-1 sum_i s_i t_ij^a K_ij,  a <= p,
        sq = n^-1 sum_i q_i.

    The constant start is never a fit's last evaluation, so pairs=False
    changes nothing.  Returns None unless every curve and every slope is
    zero.
    """
    if any(c.any() for cs in (comps0, comps1 or ()) for c in cs):
        return None
    p, y = ctx.order, ctx.dataset.y
    w, s, q = ctx.family.fields(np.full(y.shape, float(eta0)), y)
    (weight, score), pairs = ctx.weighted_moments([w, s], 2 * p + 1, True)
    score = [m[:p + 1] for m in score]
    return Marginals(grid=ctx.grid, weight=weight, score=score, pairs=pairs,
                     sq=float(np.mean(q)))


def inner_solve(marg: Marginals, config: FitConfig):
    """Solve the linearized backfitting system by block Gauss-Seidel sweeps.

    The step is an intercept xi0 and, per component j, a stacked curve
    xi_j of p + 1 blocks: the component step, then for p = 1 the slope
    step.  With M_j the pointwise moment matrices, C_jl the pair block
    matrices, D_l the trapezoid weights of x_l on marg.grid and z_j the
    score stack, component j's estimating equations are

        M_j xi_j + xi0 m_j + sum_{l != j} C_jl D_l xi_l = z_j,

    m_j the first column of M_j.  Under the constraints xi0 is
    score_total / mass.  Each sweep sets xi_j = b_j - sum_{l != j} A_jl
    xi_l, then shifts the component block so that the constraint
    functional vanishes.  The shift is linear, so it is applied once per
    call to the operators A_jl = M_j^-1 C_jl D_l and to the right-hand
    sides b_j = M_j^-1 (z_j - xi0 m_j) instead of in every sweep.

    Returns (xi0, xi, changes): xi holds one list of d curves per block
    entry, component steps first, and changes the sup-norm change of each
    sweep, so its length is the number of sweeps.  Marginals evaluated
    without their pairs raise ValueError.
    """
    if marg.pairs is None:
        raise ValueError("inner_solve needs the pair moments; these "
                         "marginals were evaluated with pairs=False")
    tw, shape, mass = marg.grid.weights, marg.grid.shape, marg.mass
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
        for l in range(len(shape)):
            if l != j:
                block = marg.pairs[j, l] if j < l else marg.pairs[l, j].T
                aug[:, spans[l]] = block * cols[spans[l]]
        aug[:, end] = (marg.score[j] - xi0 * moments[:k]).ravel()
        # row a G_j + g of aug belongs to regressor a at grid point g; at
        # order 0 the pointwise inverse is a reciprocal, and a product
        # costs less than the 1 x 1 einsum
        inverse = _inverse_moments(moments)
        if k == 1:
            aug *= inverse[0, 0][:, None]
        else:
            aug = np.einsum("abg,bgc->agc", inverse,
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
    blocks = [xi[span].reshape(k, -1) for span in spans]
    return xi0, [[b[a] for b in blocks] for a in range(k)], changes


def _additive_sup(const: float, curves) -> float:
    """Exact sup norm of const + sum_j curve_j(x_j) over the product grid."""
    hi = const + sum(float(c.max()) for c in curves)
    lo = const + sum(float(c.min()) for c in curves)
    return max(abs(hi), abs(lo))


def damped_step(ctx: FitContext, eta0: float, blocks, xi0: float, xi,
                config: FitConfig, marginals):
    """Damped Newton step, then recentering against marg.constraint.

    blocks and xi hold one list of d curves per block entry, component
    curves first; only those are shifted, and the intercept absorbs the
    shifts.  The step's relative change, its sup norm over that of the
    new predictor or 1 if that is smaller, is known before the new
    marginals are evaluated, and is the quantity `newton_fit` stops on:
    a step whose change falls below tol_outer is the last, no inner
    solve reads its marginals' pair moments, and they are left out
    (pairs=False).  Recentering leaves the predictor, and so its sup
    norm, unchanged up to rounding.  marginals is the router.  Returns
    (eta0, blocks, marg, residual, change), marg the new marginals and
    residual the largest constraint integral after recentering.
    """
    d = ctx.grid.ndim
    step0 = config.damping * xi0
    steps = [[config.damping * s[j] for j in range(d)] for s in xi]
    new_eta0 = eta0 + step0
    new = [[b[j] + s[j] for j in range(d)] for b, s in zip(blocks, steps)]
    change = (_additive_sup(step0, steps[0])
              / max(1.0, _additive_sup(new_eta0, new[0])))
    marg = marginals(ctx, new_eta0, *new, pairs=change >= config.tol_outer)
    shifts = [marg.constraint(j, *(b[j] for b in new)) / marg.mass
              for j in range(d)]
    new[0] = [new[0][j] - shifts[j] for j in range(d)]
    new_eta0 += sum(shifts)
    residual = max(abs(marg.constraint(j, *(b[j] for b in new)))
                   for j in range(d))
    return new_eta0, new, marg, residual, change


@dataclass(kw_only=True)
class AdditiveFit:
    """Fitted additive predictor: the part both smoothers share.

    Subclasses name their intercept and centered component curves and
    expose them as `intercept` and `curves`.  family is the family the
    fit was made with, a built-in or a QuasiFamily, which maps the
    predictor to the response mean.
    """

    grid: Grid
    bandwidths: np.ndarray
    family: Family
    kernel: str
    lo: np.ndarray
    hi: np.ndarray
    diagnostics: FitDiagnostics

    def predictor_on_grid(self) -> np.ndarray:
        """Full additive predictor on the product grid (small d only)."""
        curves = self.curves
        return reduce(np.add.outer, curves[1:], self.intercept + curves[0])

    def component_at(self, j: int, u: np.ndarray) -> np.ndarray:
        """Linear interpolation of component j at rescaled coordinates."""
        return np.interp(np.asarray(u, dtype=float),
                         self.grid.points[j], self.curves[j])

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Additive predictor at covariate rows (n, d), original scale.

        For d = 1 a one-dimensional x holds n points, as in
        `Dataset.from_raw`; for d >= 2 it is one point.  Points outside
        the training support, infinite ones too, are clamped to its
        edges; a NaN coordinate raises InputError.
        """
        d = self.grid.ndim
        x = as_floats(x, "covariate rows")
        x = np.atleast_2d(x[:, None] if x.ndim == 1 and d == 1 else x)
        if x.ndim != 2 or x.shape[1] != d:
            raise InputError(f"expected covariate rows of width {d}, got "
                             f"shape {x.shape}")
        if np.isnan(x).any():
            raise InputError("covariate rows must not contain NaN")
        out = np.full(x.shape[0], self.intercept)
        for j in range(d):
            u = (x[:, j] - self.lo[j]) / (self.hi[j] - self.lo[j])
            out += self.component_at(j, np.clip(u, 0.0, 1.0))
        return out

    def predict_mean(self, x: np.ndarray) -> np.ndarray:
        """Fitted response mean at original-scale covariate rows."""
        return self.family.mean(self.predict(x))


def newton_fit(ctx: FitContext, config: FitConfig | None, fit_class,
               marginals, inner_solve, outer_update):
    """Newton steps over smoothed backfitting, shared by both smoothers.

    Starts from eta_0 = g(mean(y)) and ctx.order + 1 lists of zero curves
    and stops on the step whose relative sup-norm change of the fitted
    predictor, as `damped_step` returns it, is below tol_outer.  The
    marginals after it serve only the recentering, the last sq_path
    entry, weight_total and residual_norm, so `damped_step` evaluates
    them without pair moments; every evaluation an inner solve reads has
    them.  The blocks travel as one list through inner_solve(marg,
    config) and outer_update(ctx, eta0, blocks, xi0, xi, config,
    marginals), which return as `inner_solve` and `damped_step` do.
    Returns fit_class(eta0, *blocks, ...).
    """
    config = FitConfig() if config is None else config
    if not isinstance(config, FitConfig):
        raise InputError("config must be a FitConfig")
    grid = ctx.grid
    fam = ctx.family
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        eta0 = float(np.asarray(fam.link(np.mean(ctx.dataset.y))))
    if not np.isfinite(eta0):
        raise InitializerError(
            f"constant-model start g(mean(y)) is not finite for family "
            f"{fam.name!r}; the response is degenerate"
        )
    blocks = [[np.zeros(g) for g in grid.shape] for _ in range(ctx.order + 1)]
    marg = marginals(ctx, eta0, *blocks)
    diag = FitDiagnostics(sq_path=[marg.sq])
    for _ in range(config.max_outer):
        xi0, xi, history = inner_solve(marg, config)
        eta0, blocks, marg, resid, change = outer_update(
            ctx, eta0, blocks, xi0, xi, config, marginals
        )
        diag.outer_changes.append(change)
        diag.inner_change_histories.append(history)
        diag.constraint_residuals.append(resid)
        diag.sq_path.append(marg.sq)
        if change < config.tol_outer:
            diag.converged = True
            break
    if not diag.converged:
        raise NonConvergenceError(
            f"no convergence in {config.max_outer} Newton steps "
            f"(last relative change {diag.outer_changes[-1]:.3e})",
            history=diag.outer_changes, loop="outer",
        )
    diag.weight_total = marg.mass
    diag.residual_norm = marg.residual_norm()
    return fit_class(
        eta0, *blocks, grid=grid, bandwidths=ctx.bandwidths,
        family=fam, kernel=ctx.kernel, lo=ctx.dataset.lo,
        hi=ctx.dataset.hi, diagnostics=diag,
    )
