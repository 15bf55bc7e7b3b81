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
to machine precision.

The local constant system is the order-0 case of the local linear one,
so one algorithm serves both smoothers: `FitContext` (inputs, kernel
rows, and every other precomputation cached on first use), `Marginals`
(weight moments and score marginals of local-polynomial order p, with
the constraint functional and the weight check), `inner_solve` (block
Gauss-Seidel sweeps on operators formed once per Newton step),
`newton_fit` (outer loop and diagnostics), `damped_step` (step and
recentering), `AdditiveFit` (prediction) and the closed-form producers
of either order, `identity_marginals` (Gaussian identity link) and
`poisson_marginals` (Poisson log link).  A smoother supplies its context
class, which declares the order p (0 in `nw_fit`, 1 in `ll_fit`), the
producer of its other marginals and its fit class.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from math import isfinite, prod

import numpy as np

from . import kernels
from .errors import (
    DegenerateWeightError,
    InitializerError,
    InputError,
    NonConvergenceError,
)
from .family import Family, GaussianIdentity, PoissonLog, get_family
from .grid import Dataset, Grid

__all__ = [
    "WEIGHT_FLOOR",
    "FitConfig",
    "FitDiagnostics",
    "FitContext",
    "Marginals",
    "AdditiveFit",
    "poisson_marginals",
    "identity_marginals",
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
        if not (_is(self.damping, numbers.Real) and 0.0 < self.damping <= 1.0):
            raise InputError("damping must lie in (0, 1]")
        if not all(_is(v, numbers.Real) and isfinite(v) and v > 0.0
                   for v in (self.tol_outer, self.tol_inner)):
            raise InputError("tolerances must be finite and positive")
        if not all(_is(v, numbers.Integral) and v >= 1
                   for v in (self.max_outer, self.max_inner)):
            raise InputError("iteration limits must be integers of at "
                             "least 1")


def _is(value, kind) -> bool:
    """Whether value is an instance of the numeric kind; bools are not."""
    return isinstance(value, kind) and not isinstance(value, bool)


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

    A subclass declares its local-polynomial order as the class attribute
    `order`: 0 for the local constant smoother, 1 for the local linear
    one.  The fields are the inputs and rows[j], the kernel rows of
    dimension j, (n, G_j), computed by `build`.  Everything else a path
    reads is a cached property, computed on its first access and kept,
    so a path that never reads it never pays for it: windows[j] is the
    (lo, hi) pair of `kernels.row_windows(rows[j])`, read only by the
    streamed NW path and the LL block engine, response_smooths[j] the
    y-part of the closed forms' score rows, and identity_moments the
    other moments of `identity_marginals`.
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
        """The response smooths n^-1 sum_i Y_i t_ij^a K_ij, a <= p, one
        (p + 1, G_j) stack per dimension j."""
        y, n = self.dataset.y, self.dataset.n
        if self.order == 0:
            return [(y @ r / n)[None] for r in self.rows]
        return [np.stack([y @ r, y @ (t * r)]) / n
                for r, t in zip(self.rows, self.tvals)]

    @cached_property
    def identity_moments(self) -> tuple:
        """The data moments of order p that `identity_marginals` reads:
        (weight, pairs, R, Q, D, the axes' spans in R, mean y^2)."""
        p, n, y = self.order, self.dataset.n, self.dataset.y
        weight, cols = [], []
        for j, r in enumerate(self.rows):
            # t_j^k K_j for k <= 2p: at p = 0 the rows themselves
            tk = r if p == 0 else np.hstack([r, self.tvals[j] * r,
                                             self.tvals[j] ** 2 * r])
            # a column sum of the rows took longer than this product
            weight.append((np.ones(n) @ tk / n).reshape(2 * p + 1, -1))
            cols.append(tk[:, :(p + 1) * r.shape[1]])
        ends = np.cumsum([c.shape[1] for c in cols])
        spans = [slice(e - c.shape[1], e) for c, e in zip(cols, ends)]
        dw = np.concatenate([np.tile(w, p + 1) for w in self.grid.weights])
        system, pairs = np.zeros((ends[-1], ends[-1])), {}
        for j, l in combinations(range(len(cols)), 2):
            pairs[j, l] = c = cols[j].T @ cols[l] / n
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


def poisson_marginals(ctx: FitContext, eta0: float, comps0, comps1=None):
    """Exact Poisson log-link marginals of order p from per-axis integrals.

    Of the context's order p: comps1 holds the slopes when p = 1.
    Observation i's predictor eta0 + sum_j a_ij(x_j), with
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
    tw, order = grid.weights, ctx.order
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


def identity_marginals(ctx: FitContext, eta0: float, comps0, comps1=None):
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
    system of Mammen, Linton and Nielsen (1999).  Returns None unless the
    family is GaussianIdentity: a QuasiFamily with an identity link can
    have a weight that depends on the iterate.
    """
    if not isinstance(ctx.family, GaussianIdentity):
        return None
    weight, pairs, resp, system, dw, spans, y2m = ctx.identity_moments
    c = np.concatenate(comps0 if comps1 is None else
                       [x for cs in zip(comps0, comps1) for x in cs])
    c[:len(weight[0][0])] += eta0
    z = resp - system @ c
    score = [z[s].reshape(-1, len(w[0])) for s, w in zip(spans, weight)]
    tw0 = ctx.grid.weights[0]
    return Marginals(mass=float(tw0 @ weight[0][0]), weight=weight,
                     score=score, pairs=pairs,
                     score_total=float(tw0 @ score[0][0]),
                     sq=-0.5 * (y2m - float((dw * c) @ (resp + z))))


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


def newton_fit(ctx: FitContext, config: FitConfig | None, fit_class,
               marginals, inner_solve, outer_update):
    """Newton steps over smoothed backfitting, shared by both smoothers.

    Starts from eta_0 = g(mean(y)) and ctx.order + 1 lists of zero curves
    and stops when the relative sup-norm change of the fitted predictor
    falls below tol_outer.  Returns fit_class(eta0, *blocks, ...).
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
    blocks = [[np.zeros(g) for g in grid.shape] for _ in range(ctx.order + 1)]
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
