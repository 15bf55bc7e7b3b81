"""Independent reference computations used to validate the fitters.

Three groups live here:

* pointwise one-dimensional Newton solvers, which for d = 1 solve the same
  estimating equations as the fitters but point by point, with no
  backfitting and no outer/inner split;
* dense least-squares backfitting solves for the Gaussian identity family,
  local constant and local linear, for up to three covariates: both build
  their moments as brute-force product-grid tensors and solve one
  constrained linear system of the local-polynomial order (all curve
  values as unknowns, constraints appended) directly;
* the asymptotic bias and variance formulas of the limit theory, evaluated
  by quadrature from user-supplied truth functions.

Everything is written for small problems and favors directness over speed;
the point is that these routines share as little machinery as possible
with the iterative fitters they check.  All coordinates are rescaled, so
truth functions, densities and bandwidths passed in here must live on the
unit cube.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import kernels
from .errors import InputError
from .family import Family, get_family
from .grid import Dataset, Grid, integrate_tensor

__all__ = [
    "newton_pointwise",
    "dense_backfit_nw",
    "dense_backfit_ll",
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
# pointwise Newton solvers, d = 1


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

    Solves, independently at every grid point, the local constant
    (order 0) or local linear (order 1) kernel-weighted estimating
    equation by Newton iteration.

    Returns
    -------
    (theta0, converged) for order 0, or (theta0, theta1, converged) for
    order 1, where theta1 is the bandwidth-scaled slope (the coefficient
    of (x_i - x) / h) and converged flags the grid points at which the
    Newton steps fell below tol.
    """
    if dataset.ndim != 1:
        raise InputError("pointwise oracle handles a single covariate")
    if order not in (0, 1):
        raise InputError("order must be 0 or 1")
    fam = get_family(family)
    if grid is None:
        grid = Grid.uniform(1)
    g = grid.points[0]
    y = dataset.y[:, None]
    n = dataset.n
    rows = kernels.kernel_rows(g, dataset.x[:, 0], bandwidth, kernel,
                               grid.weights[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        start = float(np.asarray(fam.link(np.mean(dataset.y))))
    if not np.isfinite(start):
        start = 0.0
    theta0 = np.full(g.size, start)
    if order == 0:
        last = np.full(g.size, np.inf)
        for _ in range(max_iter):
            u = theta0[None, :]
            score = (fam.q1(u, y) * rows).sum(axis=0) / n
            weight = (-fam.q2(u, y) * rows).sum(axis=0) / n
            step = score / weight
            theta0 += step
            last = np.abs(step)
            if last.max() < tol:
                break
        return theta0, last < tol

    t = (dataset.x[:, 0][:, None] - g[None, :]) / bandwidth
    theta1 = np.zeros(g.size)
    last = np.full(g.size, np.inf)
    for _ in range(max_iter):
        u = theta0[None, :] + t * theta1[None, :]
        q1v = fam.q1(u, y)
        wv = -fam.q2(u, y)
        r0 = (q1v * rows).sum(axis=0) / n
        r1 = (q1v * t * rows).sum(axis=0) / n
        a = (wv * rows).sum(axis=0) / n
        b = (wv * t * rows).sum(axis=0) / n
        c = (wv * t * t * rows).sum(axis=0) / n
        det = a * c - b * b
        s0 = (c * r0 - b * r1) / det
        s1 = (a * r1 - b * r0) / det
        theta0 += s0
        theta1 += s1
        last = np.maximum(np.abs(s0), np.abs(s1))
        if last.max() < tol:
            break
    return theta0, theta1, last < tol


# ---------------------------------------------------------------------------
# dense least-squares backfitting, gaussian identity


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


def _solve_moments(moment, grid: Grid, order: int):
    """Integrate product-grid moment tensors and solve the additive system.

    moment(powers, response) is the tensor against prod_j t_j^powers[j],
    weighted by the response when response is True.
    """
    d, k = grid.ndim, order + 1

    def marginal(keep, at, response=False):
        powers = [0] * d
        for j, a in zip(keep, at):
            powers[j] = a
        return integrate_tensor(moment(tuple(powers), response), grid,
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
    return _solve_additive_system(marginal((), ()), marginal((), (), True),
                                  weight, rhs, pairs, grid)


def _dense_backfit(dataset: Dataset, bandwidths, grid, kernel, order):
    """Direct solve of the least-squares backfitting system of the given
    local-polynomial order from brute-force tensors.

    Every moment n^-1 sum_i v_i prod_j t_ij^a_j K_ij (v = 1 or the
    response) is formed on the full product grid by one einsum over the
    observations.
    """
    d = dataset.ndim
    if d > 3:
        raise InputError("dense oracle supports at most three covariates")
    if grid is None:
        grid = Grid.uniform(d)
    h = kernels.validate_bandwidths(bandwidths, d)
    rows = [
        kernels.kernel_rows(grid.points[j], dataset.x[:, j], h[j], kernel,
                            grid.weights[j])
        for j in range(d)
    ]
    tvals = [
        (dataset.x[:, j][:, None] - grid.points[j][None, :]) / h[j]
        for j in range(d)
    ]
    letters = "abc"[:d]
    spec = ",".join(f"i{c}" for c in letters) + "->" + letters

    @cache
    def moment(powers, response):
        factors = [r * t ** a if a else r
                   for r, t, a in zip(rows, tvals, powers)]
        if response:
            return np.einsum("i," + spec, dataset.y, *factors) / dataset.n
        return np.einsum(spec, *factors) / dataset.n

    return _solve_moments(moment, grid, order)


def dense_backfit_nw(
    dataset: Dataset,
    bandwidths,
    grid: Grid | None = None,
    kernel: str = "epanechnikov",
):
    """Direct solve of the local constant least-squares backfitting system.

    Gaussian identity family only, at most three covariates.  Returns
    (intercept, component curves).
    """
    const, curves = _dense_backfit(dataset, bandwidths, grid, kernel, 0)
    return const, curves[0]


def dense_backfit_ll(
    dataset: Dataset,
    bandwidths,
    grid: Grid | None = None,
    kernel: str = "epanechnikov",
):
    """Direct solve of the local linear least-squares backfitting system.

    Gaussian identity family only, at most three covariates.  Returns
    (intercept, component curves, scaled slope curves).
    """
    const, curves = _dense_backfit(dataset, bandwidths, grid, kernel, 1)
    return const, curves[0], curves[1]


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
        step = 1e-5
        Xp = np.array(X, dtype=float, copy=True)
        Xm = np.array(X, dtype=float, copy=True)
        Xp[..., j] += step
        Xm[..., j] -= step
        return (self.density(Xp) - self.density(Xm)) / (2 * step)

    def variance_y(self, X: np.ndarray) -> np.ndarray:
        if self.cond_var is not None:
            return self.cond_var(X)
        m, v, _ = self._links(X)
        return v


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
    wts = np.ones(pts.shape[0])
    for g in np.meshgrid(*([w] * k), indexing="ij"):
        wts = wts * g.ravel()
    return pts, wts


def _insert_coord(pts_rest: np.ndarray, xj, j: int) -> np.ndarray:
    """Combine a mesh over the other coordinates with values for x_j.

    pts_rest has shape (M, d-1); xj is scalar or shape (P,).  The result
    has shape (P, M, d) (or (M, d) for scalar xj).
    """
    xj = np.asarray(xj, dtype=float)
    scalar = xj.ndim == 0
    P = 1 if scalar else xj.shape[0]
    M, dm1 = pts_rest.shape
    out = np.empty((P, M, dm1 + 1))
    rest = np.broadcast_to(pts_rest, (P, M, dm1))
    out[..., :j] = rest[..., :j]
    out[..., j] = xj.reshape(-1, 1)
    out[..., j + 1:] = rest[..., j:]
    return out[0] if scalar else out


def oracle_variance(inputs: AsymptoticInputs, j: int, xj,
                    nodes: int = 201) -> np.ndarray:
    """Asymptotic variance v_j(x_j) of the j-th component estimate.

    Both smoothers share this limit: roughness(K) / delta_j times the
    conditional moment ratio of the response variance and the limiting
    weights, integrated over the other coordinates.
    """
    d = len(inputs.components)
    rough = kernels.kernel_constants(inputs.kernel).roughness
    if d == 1:
        # conditional expectations degenerate to pointwise values and the
        # density cancels except for one power in the numerator
        X = np.asarray(xj, dtype=float)[:, None]
        m = inputs.family.mean(inputs.eta_star(X))
        vv = inputs.family.variance(m)
        gp = inputs.family.link_deriv(m)
        num = inputs.variance_y(X) / (vv * gp) ** 2 * inputs.density(X)
        den = inputs.density(X) / (vv * gp * gp)
        return rough / inputs.deltas[j] * num / den ** 2
    pts, wts = _gl_mesh(d - 1, nodes)
    X = _insert_coord(pts, np.atleast_1d(xj), j)   # (P, M, d)
    m = inputs.family.mean(inputs.eta_star(X))
    vv = inputs.family.variance(m)
    gp = inputs.family.link_deriv(m)
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
    const, curves = _solve_moments(
        lambda powers, response: FW if response else W, grid, 0)
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

    total = 0.0
    for j, comp in enumerate(inputs.components):
        f1 = comp.d1(X[..., j])
        f2 = comp.d2(X[..., j])
        phi_jj = md2 * f1 * f1 + md1 * f2
        interior = 0.5 * consts.mu2 * float((phi_jj * om) @ wts)

        edge, ewts = _gl_mesh(d - 1, nodes)
        boundary = 0.0
        for a, sign in ((0.0, 1.0), (1.0, -1.0)):
            Xa = _insert_coord(edge, np.array(a), j)
            Xa = np.atleast_2d(Xa)
            ea = inputs.eta_star(Xa)
            phi_j = fam.mean_d1(ea) * comp.d1(Xa[..., j])
            boundary += sign * float((phi_j * inputs.omega(Xa)) @ ewts)
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

    def wstar_marg(j, xj):
        if d == 1:
            return inputs.wstar(np.asarray(xj, dtype=float)[:, None])
        pts, wts = _gl_mesh(d - 1, nodes)
        X = _insert_coord(pts, np.atleast_1d(xj), j)
        return inputs.wstar(X) @ wts

    X, wts_full = _gl_mesh(d, nodes)
    mass = float(inputs.wstar(X) @ wts_full)

    total = 0.0
    for j, comp in enumerate(inputs.components):
        wj = wstar_marg(j, x)
        curv = float((comp.d2(x) * wj) @ w)
        interior = 0.5 * inputs.deltas[j] ** 2 * consts.mu2 * curv
        w0 = float(wstar_marg(j, np.array([0.0]))[0])
        w1 = float(wstar_marg(j, np.array([1.0]))[0])
        boundary = inputs.deltas[j] ** 2 * consts.kappa * (
            float(comp.d1(0.0)) * w0 - float(comp.d1(1.0)) * w1
        )
        total += interior + boundary
    return -total / mass
