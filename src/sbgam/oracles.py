"""Independent reference computations used to validate the fitters.

Four groups live here:

* one pointwise Newton loop of local-polynomial order p = 0 or 1, which
  for d = 1 solves the same estimating equations as the fitters but point
  by point, with no backfitting and no outer/inner split;
* brute-force marginals of order p, any family, at any iterate: the slow
  reference for every marginals producer of the fitters;
* a full-system Newton oracle of order p, any family, for up to three
  covariates: each step takes the brute-force marginals at the iterate
  and solves one constrained linear system (all curve values unknown,
  constraints appended) directly, with no backfitting sweeps; for the
  Gaussian identity family one step is the least-squares solution;
* the asymptotic bias and variance formulas of the limit theory, evaluated
  by quadrature from user-supplied truth functions.

The references start from the fitters' own checked kernel design, and
both Newton loops from their constant g(mean(y)).  Everything is written
for small problems and favors directness over speed; the point is that
these routines share as little machinery as possible with the iterative
fitters they check.  All coordinates are rescaled, so truth functions,
densities and bandwidths passed in here must live on the unit cube.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import kernels
from .errors import (InputError, NonConvergenceError, is_number,
                     require_integer)
from .family import Family, get_family
from .grid import Dataset, Grid, integrate_tensor

__all__ = [
    "newton_pointwise",
    "dense_marginals",
    "dense_newton",
    "ComponentTruth",
    "AsymptoticInputs",
    "oracle_variance",
    "nw_bias_field",
    "project_additive",
    "nw_component_bias",
    "nw_intercept_bias",
    "ll_component_bias",
    "ll_intercept_bias",
]


# ---------------------------------------------------------------------------
# the kernel design, and the pointwise Newton solver for d = 1


def _design(dataset: Dataset, bandwidths, grid: Grid | None, kernel: str):
    """The fitters' checked kernel design, `kernels.kernel_design`, that
    every reference starts from: (grid, rows, tvals), tvals[j] the
    bandwidth-scaled offsets t_j = (x_ij - g_j) / h_j of covariate j."""
    grid, h, rows = kernels.kernel_design(dataset, bandwidths, grid, kernel)
    tvals = [(dataset.x[:, j][:, None] - grid.points[j][None, :]) / h[j]
             for j in range(grid.ndim)]
    return grid, rows, tvals


def _check_order(order) -> None:
    require_integer("order", order, 0)
    if order > 1:
        raise InputError("order must be 0 or 1")


def _start(fam: Family, y) -> float:
    """The constant-model start g(mean(y)), or 0 where it is not finite."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        start = float(np.asarray(fam.link(np.mean(y))))
    return start if np.isfinite(start) else 0.0


def newton_pointwise(
    dataset: Dataset,
    bandwidth: float,
    grid: Grid | None = None,
    family: Family | str = "gaussian",
    kernel: str = "epanechnikov",
    order: int = 0,
    tol: float = 1e-12,
    max_iter: int = 200,
):
    """Pointwise quasi-likelihood smoothing for a single covariate.

    Solves, independently at every grid point, the local polynomial
    kernel-weighted estimating equation of order p = 0 (local constant)
    or p = 1 (local linear) by Newton iteration.  Each step makes one
    family evaluation at u = sum_a t^a theta_a, forms the weight moments
    m_c = n^-1 sum_i w t^c K (c <= 2p) and the score moments
    r_a = n^-1 sum_i s t^a K (a <= p), and solves the (p + 1)-square
    system [m_(a+b)] step = r at every grid point.

    Returns
    -------
    (theta0, converged) for order 0, or (theta0, theta1, converged) for
    order 1, where theta1 is the bandwidth-scaled slope (the coefficient
    of (x_i - x) / h) and converged flags the grid points at which the
    Newton steps fell below tol.
    """
    if dataset.ndim != 1:
        raise InputError("pointwise oracle handles a single covariate")
    _check_order(order)
    require_integer("max_iter", max_iter, 1)
    if not (is_number(tol) and np.isfinite(tol) and tol > 0):
        raise InputError("tol must be finite and positive")
    fam = get_family(family)
    grid, (rows,), (t,) = _design(dataset, bandwidth, grid, kernel)
    k = order + 1
    y = dataset.y[:, None]
    n = dataset.n
    # t^c and t^c K for c <= 2p, and the index a + b of each system entry
    tpow = t[None] ** np.arange(2 * k - 1)[:, None, None]
    kt = tpow * rows
    hankel = np.add.outer(np.arange(k), np.arange(k))
    theta = np.zeros((k, grid.shape[0]))
    theta[0] = _start(fam, dataset.y)
    last = np.full(grid.shape[0], np.inf)
    for _ in range(max_iter):
        u = (tpow[:k] * theta[:, None, :]).sum(axis=0)
        w, s, _ = fam.fields(u, y)
        m = (w * kt).sum(axis=1) / n
        r = (s * kt[:k]).sum(axis=1) / n
        # (G, k, 1) right-hand sides solve alike on numpy 1.x and 2.x
        step = np.linalg.solve(m.T[:, hankel], r.T[:, :, None])[..., 0].T
        theta += step
        last = np.abs(step).max(axis=0)
        if last.max() < tol:
            break
    return (*theta, last < tol)


# ---------------------------------------------------------------------------
# brute-force marginals, and the full-system Newton oracle


def _solve_additive_system(mass, total, weight, rhs, pairs, grid: Grid):
    """Assemble and solve the constrained additive normal equations of
    local-polynomial order p.

    With t_j the bandwidth-scaled offset along x_j, weight[j] is the
    (2p + 1, G_j) stack of weight moments against t_j^c, rhs[j] the
    (p + 1, G_j) stack of response moments against t_j^a, and pairs[j, l],
    j < l, the ((p + 1) G_j, (p + 1) G_l) block matrix whose block (a, b)
    is the weight surface against t_j^a t_l^b: the layout of
    `backfit.Marginals`.  mass and total are the weight and the response
    integrated over the whole grid.

    Unknowns are a constant, then per component the curve of each power
    a <= p.  The equations are the integrated stationarity condition, the
    componentwise ones, and one centering constraint per component,
    sum_a integral curve_a weight[j][a] = 0.  The stacked system is
    consistent by construction and is solved by least squares; the
    residual is checked.

    Returns (const, curves), curves[a][j] the curve of power a of
    component j.
    """
    k = len(rhs[0])
    d = grid.ndim
    spans, end = [], 1
    for g in grid.shape:
        spans.append(slice(end, end + k * g))
        end += k * g
    # the trapezoid weight of each unknown, and its weight moment
    tw = [np.tile(w, k) for w in grid.weights]
    own = [w[:k].ravel() for w in weight]
    A = np.zeros((end + d, end))
    b = np.zeros(end + d)
    A[0, 0] = mass
    b[0] = total
    for j, span in enumerate(spans):
        A[0, span] = tw[j] * own[j]
        # the stationarity rows of component j share its unknowns' indices
        A[span, 0] = own[j]
        A[span, span] = np.block([[np.diag(weight[j][a + c])
                                   for c in range(k)] for a in range(k)])
        for l in range(d):
            if l != j:
                block = pairs[j, l] if j < l else pairs[l, j].T
                A[span, spans[l]] = block * tw[l]
        b[span] = rhs[j].ravel()
        A[end + j, span] = tw[j] * own[j]

    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = float(np.max(np.abs(A @ sol - b)))
    scale = max(1.0, float(np.max(np.abs(b))))
    if resid > 1e-8 * scale:
        raise RuntimeError(
            f"additive system is inconsistent (residual {resid:.3e}); "
            f"the supplied marginals do not come from a single field"
        )
    blocks = [sol[span].reshape(k, -1) for span in spans]
    return float(sol[0]), [[blk[a] for blk in blocks] for a in range(k)]


def _moments(moment, grid: Grid, order: int):
    """Integrate product-grid moment tensors into the additive system's
    inputs (mass, total, weight, rhs, pairs) of the given order.

    moment(powers, score) is the weight tensor against
    prod_j t_j^powers[j], or the score tensor when score is True.
    """
    d, k = grid.ndim, order + 1

    def marginal(keep, at, score=False):
        powers = [0] * d
        for j, a in zip(keep, at):
            powers[j] = a
        return integrate_tensor(moment(tuple(powers), score), grid,
                                keep=keep)

    weight = [np.stack([marginal((j,), (c,)) for c in range(2 * k - 1)])
              for j in range(d)]
    rhs = [np.stack([marginal((j,), (a,), True) for a in range(k)])
           for j in range(d)]
    pairs = {
        (j, l): np.block([[marginal((j, l), (a, b)) for b in range(k)]
                          for a in range(k)])
        for j in range(d) for l in range(j + 1, d)
    }
    return marginal((), ()), marginal((), (), True), weight, rhs, pairs


def dense_marginals(dataset: Dataset, bandwidths, grid: Grid | None = None,
                    family: Family | str = "gaussian",
                    kernel: str = "epanechnikov", eta0=0.0, curves=None):
    """Brute-force marginals of local-polynomial order p at one iterate.

    curves holds p + 1 lists of d curves, curves[a][j] the curve of t_j^a
    (default: one list of zero curves).  Each observation's predictor
    eta0 + sum_j sum_a t_ij^a curves[a][j], its `fields` and its kernel
    product are formed on all n prod_j G_j cells, and each moment
    n^-1 sum_i field_i prod_j t_ij^(a_j) K_ij is integrated by the
    trapezoid rule.  Returns (mass, score_total, weight, score, pairs, sq)
    as in `backfit.Marginals`, the first five the additive system's inputs.
    """
    fam = get_family(family)
    grid, rows, tvals = _design(dataset, bandwidths, grid, kernel)
    n, d = dataset.n, grid.ndim
    curves = [[np.zeros(g) for g in grid.shape]] if curves is None else curves
    if len(curves) not in (1, 2) or any(
            [np.shape(c) for c in block] != [(g,) for g in grid.shape]
            for block in curves):
        raise InputError("curves must be 1 or 2 lists of d curves of length G_j")

    def cells(j, values):   # (n, G_j) values on the (n, G_1, ..., G_d) cells
        return np.expand_dims(values, [1 + l for l in range(d) if l != j])

    u = sum((cells(j, sum(t ** a * c[j] for a, c in enumerate(curves)))
             for j, t in enumerate(tvals)), float(eta0))
    kprod = reduce(np.multiply, [cells(j, r) for j, r in enumerate(rows)])
    w, s, q = fam.fields(u, dataset.y.reshape((n,) + (1,) * d))
    wk, sk = w * kprod, s * kprod

    def moment(powers, score):
        tensor = sk if score else wk
        for j in np.flatnonzero(powers):
            tensor = tensor * cells(j, tvals[j] ** powers[j])
        return tensor.sum(axis=0) / n

    sq = integrate_tensor((q * kprod).sum(axis=0) / n, grid)
    return (*_moments(moment, grid, len(curves) - 1), sq)


# an absolute stopping test, as newton_pointwise's, for test data of unit
# scale: quadratic convergence takes a step below it to rounding level
_NEWTON_TOL, _NEWTON_STEPS = 1e-10, 50


def dense_newton(dataset: Dataset, bandwidths, grid: Grid | None = None,
                 family: Family | str = "gaussian",
                 kernel: str = "epanechnikov", order: int = 0):
    """Newton solve of the smoothed backfitting system of order p = 0 or
    1, any family, at most three covariates: from eta0 = g(mean(y)) and
    zero curves, each step solves the additive system of `dense_marginals`
    at the iterate, the score as right-hand side, until every entry of a
    step is below _NEWTON_TOL.  Then each component is recentred against
    the last weight, which moves no predictor value.  Returns (const,
    curves), curves[a][j] the curve of t_j^a in x_j; raises
    NonConvergenceError after _NEWTON_STEPS steps."""
    if dataset.ndim > 3:
        raise InputError("dense oracle supports at most three covariates")
    _check_order(order)
    grid = _design(dataset, bandwidths, grid, kernel)[0]
    const = _start(get_family(family), dataset.y)
    curves = [[np.zeros(g) for g in grid.shape]] * (order + 1)
    for _ in range(_NEWTON_STEPS):
        mass, total, weight, score, pairs, _ = dense_marginals(
            dataset, bandwidths, grid, family, kernel, const, curves)
        step0, steps = _solve_additive_system(mass, total, weight, score,
                                              pairs, grid)
        const += step0
        curves = [[c + s for c, s in zip(*pair)]
                  for pair in zip(curves, steps)]
        if max(abs(step0), *(np.abs(s).max() for step in steps
                             for s in step)) < _NEWTON_TOL:
            break
    else:
        raise NonConvergenceError(
            f"dense Newton oracle: no convergence in {_NEWTON_STEPS} steps")
    shifts = [sum(float(grid.weights[j] @ (c[j] * weight[j][a]))
                  for a, c in enumerate(curves)) / mass
              for j in range(grid.ndim)]
    curves[0] = [c - s for c, s in zip(curves[0], shifts)]
    return const + sum(shifts), curves


# ---------------------------------------------------------------------------
# asymptotic bias and variance formulas


@dataclass(frozen=True)
class ComponentTruth:
    """One true component in rescaled coordinates: value and derivatives."""

    value: object
    d1: object
    d2: object


@dataclass(frozen=True)
class AsymptoticInputs:
    """Everything the limit formulas need, in rescaled coordinates.

    components holds the centered true component functions; density the
    covariate density on the unit cube (vectorized over a trailing axis of
    length d); density_grad, if given, maps (X, j) to the j-th partial
    derivative of the density, otherwise a central difference is used.
    cond_var is the conditional variance of the response given X; by
    default the family variance at the true mean, which is exact when the
    model is correctly specified.  deltas are the scaled bandwidths
    n^{1/5} h_j.
    """

    family: Family
    eta0: float
    components: tuple
    density: object
    deltas: np.ndarray
    kernel: str = "epanechnikov"
    density_grad: object | None = None
    cond_var: object | None = None

    def eta_star(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.full(X.shape[:-1], float(self.eta0))
        for j, comp in enumerate(self.components):
            out = out + comp.value(X[..., j])
        return out

    def _links(self, X):
        fam = self.family
        m = fam.mean(self.eta_star(X))
        return m, fam.variance(m), fam.link_deriv(m)

    def wstar(self, X: np.ndarray) -> np.ndarray:
        """The limiting weight density p / (V(m) g'(m)^2)."""
        _, v, gp = self._links(X)
        return self.density(X) / (v * gp * gp)

    def omega(self, X: np.ndarray) -> np.ndarray:
        """w* times g'(m), which is p / (V(m) g'(m))."""
        _, v, gp = self._links(X)
        return self.density(X) / (v * gp)

    def grad_density(self, X: np.ndarray, j: int) -> np.ndarray:
        if self.density_grad is not None:
            return self.density_grad(X, j)
        step = np.zeros(np.shape(X)[-1])
        step[j] = 1e-5
        return (self.density(X + step) - self.density(X - step)) / 2e-5

    def variance_y(self, X: np.ndarray) -> np.ndarray:
        if self.cond_var is not None:
            return self.cond_var(X)
        return self._links(X)[1]


def _gl_nodes(n: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _gl_mesh(k: int, nodes: int):
    """Product Gauss-Legendre mesh on [0, 1]^k.

    Returns (points, weights) with points of shape (M, k); for k = 0 the
    mesh is a single empty point with unit weight.
    """
    if k == 0:
        return np.zeros((1, 0)), np.ones(1)
    x, w = _gl_nodes(nodes)
    grids = np.meshgrid(*([x] * k), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    return pts, reduce(np.multiply.outer, [w] * k).ravel()


def _insert_coord(pts_rest: np.ndarray, xj, j: int) -> np.ndarray:
    """Combine a mesh over the other coordinates with values for x_j.

    pts_rest has shape (M, d-1) and xj shape (P,); the result has shape
    (P, M, d).
    """
    xj = np.asarray(xj, dtype=float)
    M, dm1 = pts_rest.shape
    out = np.empty((xj.shape[0], M, dm1 + 1))
    out[..., :j] = pts_rest[:, :j]
    out[..., j] = xj[:, None]
    out[..., j + 1:] = pts_rest[:, j:]
    return out


def oracle_variance(inputs: AsymptoticInputs, j: int, xj,
                    nodes: int = 201) -> np.ndarray:
    """Asymptotic variance v_j(x_j) of the j-th component estimate.

    Both smoothers share this limit: roughness(K) / delta_j times the
    conditional moment ratio of the response variance and the limiting
    weights, integrated over the other coordinates.
    """
    d = len(inputs.components)
    rough = kernels.kernel_constants(inputs.kernel).roughness
    pts, wts = _gl_mesh(d - 1, nodes)
    X = _insert_coord(pts, np.atleast_1d(xj), j)   # (P, M, d)
    _, vv, gp = inputs._links(X)
    p = inputs.density(X)
    integ_num = ((inputs.variance_y(X) / (vv * gp) ** 2) * p) @ wts
    integ_den = ((1.0 / (vv * gp * gp)) * p) @ wts
    return rough / inputs.deltas[j] * integ_num / integ_den ** 2


def nw_bias_field(inputs: AsymptoticInputs, X: np.ndarray) -> np.ndarray:
    """Pointwise asymptotic bias field of the local constant estimator."""
    X = np.asarray(X, dtype=float)
    fam = inputs.family
    mu2 = kernels.kernel_constants(inputs.kernel).mu2
    eta = inputs.eta_star(X)
    m = fam.mean(eta)
    md1 = fam.mean_d1(eta)
    md2 = fam.mean_d2(eta)
    gp = fam.link_deriv(m)
    p = inputs.density(X)
    out = np.zeros(X.shape[:-1])
    for j, comp in enumerate(inputs.components):
        f1 = comp.d1(X[..., j])
        f2 = comp.d2(X[..., j])
        dm_j = md1 * f1
        d2m_j = md2 * f1 * f1 + md1 * f2
        out = out + inputs.deltas[j] ** 2 * (
            inputs.grad_density(X, j) / p * dm_j + 0.5 * d2m_j
        )
    return -out * gp * mu2


def project_additive(field, weight, grid: Grid):
    """Constrained additive weighted projection on a product grid.

    Finds the constant b0 and centered curves beta_j minimizing the
    weighted squared distance integral (field - b0 - sum_j beta_j)^2 w
    subject to integral beta_j w_j = 0, all integrals by trapezoid on the
    grid.  `field` and `weight` are callables of stacked coordinates.

    Returns (b0, curves).
    """
    mesh = np.meshgrid(*grid.points, indexing="ij")
    X = np.stack(mesh, axis=-1)
    W = weight(X)
    FW = field(X) * W
    const, curves = _solve_additive_system(
        *_moments(lambda powers, score: FW if score else W, grid, 0), grid)
    return const, curves[0]


def nw_component_bias(inputs: AsymptoticInputs, grid: Grid):
    """Additive projection (b0, curves) of the local constant bias field.

    The curves are the component bias limits of the local constant
    smoother; b0 is the projection constant, which is not the intercept
    bias (see `nw_intercept_bias`).
    """
    return project_additive(
        lambda X: nw_bias_field(inputs, X),
        lambda X: inputs.wstar(X),
        grid,
    )


def nw_intercept_bias(inputs: AsymptoticInputs, nodes: int = 101) -> float:
    """Asymptotic intercept bias of the local constant estimator.

    Combines the interior curvature term with the kernel boundary constant
    kappa applied to the one-sided derivative values at the edges of the
    cube, normalized by the integrated curvature weight.
    """
    d = len(inputs.components)
    consts = kernels.kernel_constants(inputs.kernel)
    fam = inputs.family

    X, wts = _gl_mesh(d, nodes)

    eta = inputs.eta_star(X)
    md1 = fam.mean_d1(eta)
    md2 = fam.mean_d2(eta)
    om = inputs.omega(X)
    denom = float(om @ wts)          # integral of psi * p = -E q2

    edge, ewts = _gl_mesh(d - 1, nodes)
    total = 0.0
    for j, comp in enumerate(inputs.components):
        f1 = comp.d1(X[..., j])
        f2 = comp.d2(X[..., j])
        phi_jj = md2 * f1 * f1 + md1 * f2
        interior = 0.5 * consts.mu2 * float((phi_jj * om) @ wts)

        # the faces x_j = 0 and x_j = 1, with outward signs + and -
        Xa = _insert_coord(edge, [0.0, 1.0], j)
        phi_j = fam.mean_d1(inputs.eta_star(Xa)) * comp.d1(Xa[..., j])
        face = (phi_j * inputs.omega(Xa)) @ ewts
        boundary = float(face[0]) - float(face[1])
        total += inputs.deltas[j] ** 2 * (interior + consts.kappa * boundary)
    return -total / denom


def ll_component_bias(inputs: AsymptoticInputs, j: int, xj) -> np.ndarray:
    """Component bias of the local linear smoother.

    Half the squared scaled bandwidth times the kernel's second moment
    times the second derivative of the true component.
    """
    mu2 = kernels.kernel_constants(inputs.kernel).mu2
    return 0.5 * inputs.deltas[j] ** 2 * mu2 * np.asarray(
        inputs.components[j].d2(np.asarray(xj, dtype=float))
    )


def ll_intercept_bias(inputs: AsymptoticInputs, nodes: int = 101) -> float:
    """Intercept bias of the local linear smoother.

    The integrated component curvature against the weight marginals plus
    kappa times the one-sided derivative terms at the interval edges,
    normalized by the total weight mass.
    """
    d = len(inputs.components)
    consts = kernels.kernel_constants(inputs.kernel)
    x, w = _gl_nodes(nodes)
    pts, wts = _gl_mesh(d - 1, nodes)

    def wstar_marg(j, xj):
        return inputs.wstar(_insert_coord(pts, xj, j)) @ wts

    X, wts_full = _gl_mesh(d, nodes)
    mass = float(inputs.wstar(X) @ wts_full)

    total = 0.0
    for j, comp in enumerate(inputs.components):
        wj = wstar_marg(j, x)
        curv = float((comp.d2(x) * wj) @ w)
        interior = 0.5 * inputs.deltas[j] ** 2 * consts.mu2 * curv
        w0, w1 = wstar_marg(j, [0.0, 1.0])
        boundary = inputs.deltas[j] ** 2 * consts.kappa * (
            float(comp.d1(0.0)) * w0 - float(comp.d1(1.0)) * w1
        )
        total += interior + boundary
    return -total / mass
