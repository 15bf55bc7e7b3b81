"""Reference computations: pointwise Newton, brute-force marginals, the
full-system Newton oracle, limit formulas."""

import ast
import pathlib

import numpy as np
import pytest

from sbgam import oracles
from sbgam.errors import InputError
from sbgam.family import get_family
from sbgam.grid import Dataset, Grid
from sbgam.oracles import (AsymptoticInputs, ComponentTruth,
                           dense_marginals, dense_newton, ll_component_bias,
                           ll_intercept_bias, newton_pointwise, nw_bias_field,
                           nw_component_bias, nw_intercept_bias,
                           oracle_variance, project_additive)
from helpers import quasi_gamma, random_grid, sim_dataset

ZERO = ComponentTruth(value=lambda u: 0.0 * np.asarray(u),
                      d1=lambda u: 0.0 * np.asarray(u),
                      d2=lambda u: 0.0 * np.asarray(u))

COS = ComponentTruth(value=lambda u: np.cos(np.pi * np.asarray(u)),
                     d1=lambda u: -np.pi * np.sin(np.pi * np.asarray(u)),
                     d2=lambda u: -np.pi ** 2 * np.cos(np.pi * np.asarray(u)))


def _uniform(X):
    return np.ones(np.asarray(X).shape[:-1])


def test_oracles_share_no_fitter_code():
    # the references check the fitters, so they import none of their
    # machinery: no kernel window, no backfit, nw_fit or ll_fit
    tree = ast.parse(pathlib.Path(oracles.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name[6:] for a in node.names
                            if a.name.startswith("sbgam."))
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("sbgam")):
            module = (node.module or "").removeprefix("sbgam").lstrip(".")
            imported.update([module] if module
                            else [a.name for a in node.names])
    assert imported == {"kernels", "errors", "family", "grid"}


def test_pointwise_newton_gaussian_closed_form():
    # for the gaussian family the order-0 estimate is the kernel-weighted
    # mean, available in closed form
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, size=(100, 1))
    y = rng.normal(size=100)
    ds = Dataset.with_support(x, y, 0.0, 1.0)
    grid = Grid.uniform(1, 21)
    theta, ok = newton_pointwise(ds, 0.15, grid=grid)
    assert ok.all()
    from sbgam import kernels
    rows = kernels.kernel_rows(grid.points[0], ds.x[:, 0], 0.15,
                               "epanechnikov", grid.weights[0])
    closed = (ds.y[:, None] * rows).sum(axis=0) / rows.sum(axis=0)
    assert np.abs(theta - closed).max() < 1e-11


def test_pointwise_newton_local_linear_gaussian():
    # exact recovery of a line, slope reported on the bandwidth scale
    x = np.linspace(0, 1, 60)[:, None]
    y = 1.0 + 2.0 * x[:, 0]
    ds = Dataset.with_support(x, y, 0.0, 1.0)
    h = 0.2
    t0, t1, ok = newton_pointwise(ds, h, order=1)
    assert ok.all()
    g = Grid.uniform(1).points[0]
    assert np.abs(t0 - (1.0 + 2.0 * g)).max() < 1e-10
    assert np.abs(t1 - 2.0 * h).max() < 1e-10


def _line_data(d):
    x = np.linspace(0, 1, 40)[:, None] * np.ones(d)
    return Dataset.with_support(x, x.sum(axis=1), 0.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda: newton_pointwise(_line_data(1), float("nan")),
    lambda: newton_pointwise(_line_data(1), 0.9),
    lambda: newton_pointwise(_line_data(1), 0.0),
    lambda: newton_pointwise(_line_data(1), 0.2, grid=Grid.uniform(2, 11)),
    lambda: dense_newton(_line_data(2), 0.2, grid=Grid.uniform(1, 11)),
    lambda: dense_newton(_line_data(2), 0.2, grid=Grid.uniform(3, 7),
                         order=1),
    lambda: newton_pointwise(_line_data(1), 0.2, order=True),
    lambda: newton_pointwise(_line_data(1), 0.2, order=1.0),
    lambda: newton_pointwise(_line_data(1), 0.2, order=2),
    lambda: newton_pointwise(_line_data(1), 0.2, max_iter=2.5),
    lambda: newton_pointwise(_line_data(1), 0.2, max_iter=0),
    lambda: newton_pointwise(_line_data(1), 0.2, max_iter=True),
    lambda: newton_pointwise(_line_data(1), 0.2, tol=float("nan")),
    lambda: newton_pointwise(_line_data(1), 0.2, tol=-1.0),
    lambda: newton_pointwise(_line_data(1), 0.2, tol=True),
    lambda: dense_marginals(_line_data(2), 0.2,
                            curves=[[np.zeros(41)] * 2] * 3),
    lambda: dense_marginals(_line_data(2), 0.2, curves=[[np.zeros(41)]]),
    lambda: dense_marginals(_line_data(2), 0.2, curves=[[np.zeros(41)] * 3]),
    lambda: dense_marginals(_line_data(2), 0.2, curves=[[np.zeros(41),
                                                         np.zeros(40)]]),
    lambda: dense_marginals(_line_data(2), 0.2, curves=[]),
    lambda: newton_pointwise(_line_data(1), 0.2,
                             grid=[np.linspace(0, 1, 11)]),
    lambda: dense_marginals(_line_data(2), 0.2,
                            grid=[np.linspace(0, 1, 11)] * 2),
    lambda: dense_newton(_line_data(2), 0.2,
                         grid=[np.linspace(0, 1, 11)] * 2),
    lambda: dense_newton(_line_data(2), 0.2, order=2),
    lambda: dense_newton(_line_data(4), 0.2, grid=Grid.uniform(4, 5)),
], ids=["nan-h", "h-above-half", "zero-h", "2d-grid", "nw-1d-grid",
        "ll-3d-grid", "bool-order", "float-order", "order-2",
        "float-max-iter", "zero-max-iter", "bool-max-iter", "nan-tol",
        "negative-tol", "bool-tol", "three-curve-lists", "too-few-curves",
        "too-many-curves", "short-curve", "no-curve-list",
        "pointwise-list-grid", "marginals-list-grid", "newton-list-grid",
        "newton-order-2", "newton-4-covariates"])
def test_references_check_their_inputs(call):
    # the references make the fitters' bandwidth, grid and order checks,
    # and check their iteration controls and iterates, before any kernel
    # row or field is formed; a grid that is no Grid raised
    # AttributeError
    with pytest.raises(InputError):
        call()


def test_dense_marginals_integrate_to_each_other():
    # identities of the trapezoid rule that share no code with the
    # oracle's moments: every curve integrates to the totals, and every
    # pair block (a, 0) integrated over x_l, or (0, b) over x_j, is a
    # weight curve.  d = 3, order 1, Bernoulli, at a random iterate
    rng = np.random.default_rng(34)
    grid = random_grid(rng, 3, 6)
    curves = [[s * rng.normal(size=g) for g in grid.shape] for s in (0.5, 0.3)]
    mass, total, weight, score, pairs, _ = dense_marginals(
        sim_dataset(34, 60, 3, "bernoulli"), [0.3, 0.4, 0.35], grid,
        "bernoulli", eta0=0.2, curves=curves)
    tw, shape = grid.weights, grid.shape
    for j in range(3):
        assert abs(tw[j] @ weight[j][0] - mass) < 1e-14, j
        assert abs(tw[j] @ score[j][0] - total) < 1e-14, j
    for (j, l), block in pairs.items():
        for a in range(2):
            rows = block[a * shape[j]:(a + 1) * shape[j], :shape[l]] @ tw[l]
            cols = tw[j] @ block[:shape[j], a * shape[l]:(a + 1) * shape[l]]
            assert np.abs(rows - weight[j][a]).max() < 1e-14, (j, l, a)
            assert np.abs(cols - weight[l][a]).max() < 1e-14, (j, l, a)


def test_dense_backfit_nw_reproduces_additive_data():
    # noiseless additive data: the dense solve recovers the projection of
    # the truth, and refitting its own fitted values is idempotent
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, size=(80, 2))
    y = 0.7 + np.sin(2 * np.pi * x[:, 0]) * 0.3 + x[:, 1]
    ds = Dataset.with_support(x, y, 0.0, 1.0)
    grid = Grid.uniform(2, 15)
    c0, (curves,) = dense_newton(ds, 0.25, grid=grid)
    for j in range(2):
        assert abs(float(grid.weights[j] @ curves[j])) < 1.0
    # constraint: weighted integral of each curve vanishes
    from sbgam.nw_fit import nw_prepare, _nw_marginals_dense
    ctx = nw_prepare(ds, 0.25, grid, "gaussian")
    marg = _nw_marginals_dense(ctx, c0, curves)
    for j in range(2):
        resid = float(grid.weights[j]
                      @ (curves[j] * marg.weight[j][0]))
        assert abs(resid) < 1e-10


def test_dense_newton_d1_matches_pointwise():
    # with a single covariate the backfitting system decouples into the
    # pointwise problems, which newton_pointwise solves grid point by grid
    # point: two Newton loops that share only the kernel design
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, size=(120, 1))
    s = np.sin(2 * np.pi * x[:, 0])
    ys = {"gaussian": s + rng.normal(scale=0.2, size=120),
          "bernoulli": (rng.random(120) < 1 / (1 + np.exp(-s))) * 1.0,
          "poisson": rng.poisson(np.exp(0.5 * s)) * 1.0,
          "quasi-gamma": np.exp(0.5 * s) * rng.gamma(4.0, 0.25, 120)}
    grid = Grid.uniform(1, 21)
    for name, y in ys.items():
        ds = Dataset.with_support(x, y, 0.0, 1.0)
        fam = quasi_gamma() if name == "quasi-gamma" else name
        for order in (0, 1):
            c00, curves = dense_newton(ds, 0.2, grid, fam, order=order)
            *theta, ok = newton_pointwise(ds, 0.2, grid, fam, order=order)
            assert ok.all(), (name, order)
            assert np.abs(c00 + curves[0][0] - theta[0]).max() < 1e-9, \
                (name, order)
            if order:
                assert np.abs(curves[1][0] - theta[1]).max() < 1e-9, name


@pytest.mark.parametrize("d", [1, 2])
def test_oracle_variance_uniform_example(d):
    # gaussian family, uniform density, unit deltas: the variance limit
    # is the residual variance times the kernel roughness
    sig2 = 1.3
    inp = AsymptoticInputs(
        family=get_family("gaussian"), eta0=0.0, components=(ZERO,) * d,
        density=_uniform, deltas=np.ones(d),
        cond_var=lambda X: sig2 * np.ones(np.asarray(X).shape[:-1]),
    )
    v = oracle_variance(inp, 0, np.array([0.2, 0.5, 0.9]))
    assert np.abs(v - sig2 * 0.6).max() < 1e-12


def test_oracle_variance_canonical_links_closed_form():
    # uniform density, constant predictor: the limit reduces to
    # roughness / delta times V(m) g'(m)^2, the reciprocal information
    eta0 = 0.4
    for fam_name in ("bernoulli", "poisson"):
        fam = get_family(fam_name)
        inp = AsymptoticInputs(
            family=fam, eta0=eta0, components=(ZERO, ZERO),
            density=_uniform, deltas=np.array([1.25, 1.0]),
        )
        m = fam.mean(np.array([eta0]))[0] if np.ndim(
            fam.mean(np.asarray(eta0))) else float(fam.mean(eta0))
        expect = 0.6 / 1.25 * float(fam.variance(m)) \
            * float(fam.link_deriv(m)) ** 2
        got = oracle_variance(inp, 0, np.array([0.5]))[0]
        assert got == pytest.approx(expect, rel=1e-10)


def test_oracle_variance_delta_scaling():
    sig2 = 0.5
    for dl in (0.5, 1.0, 2.0):
        inp = AsymptoticInputs(
            family=get_family("gaussian"), eta0=0.0,
            components=(ZERO, ZERO), density=_uniform,
            deltas=np.array([dl, 1.0]),
            cond_var=lambda X: sig2 * np.ones(np.asarray(X).shape[:-1]),
        )
        v = oracle_variance(inp, 0, np.array([0.5]))[0]
        assert v == pytest.approx(sig2 * 0.6 / dl, abs=1e-12)


def test_oracle_variance_refinement_stable():
    # nontrivial density and predictor: doubling the quadrature nodes
    # moves the answer by less than 1e-6
    def dens(X):
        X = np.asarray(X)
        return (1.0 + 0.5 * (X[..., 0] - 0.5) * (X[..., 1] - 0.5)) \
            / (1.0 + 0.5 * 0.25 * 0.0 + 0.0)

    inp = AsymptoticInputs(
        family=get_family("poisson"), eta0=0.1, components=(COS, ZERO),
        density=dens, deltas=np.array([1.0, 1.0]),
    )
    a = oracle_variance(inp, 0, np.array([0.3]), nodes=101)[0]
    b = oracle_variance(inp, 0, np.array([0.3]), nodes=201)[0]
    assert abs(a - b) < 1e-6


def test_project_additive_idempotent():
    grid = Grid.uniform(2, 25)

    def weight(X):
        X = np.asarray(X)
        return 1.0 + 0.4 * X[..., 0] * (1.0 - X[..., 1])

    def additive(X):
        X = np.asarray(X)
        return 0.7 + np.sin(2 * np.pi * X[..., 0]) - 0.5 * X[..., 1]

    b0, curves = project_additive(additive, weight, grid)
    mesh = np.stack(np.meshgrid(*grid.points, indexing="ij"), axis=-1)
    recon = b0 + curves[0][:, None] + curves[1][None, :]
    assert np.abs(recon - additive(mesh)).max() < 1e-10
    # projecting the projection changes nothing
    def projected(X):
        X = np.asarray(X)
        out = np.full(X.shape[:-1], b0)
        out = out + np.interp(X[..., 0], grid.points[0], curves[0])
        out = out + np.interp(X[..., 1], grid.points[1], curves[1])
        return out

    b0b, curves_b = project_additive(projected, weight, grid)
    assert b0b == pytest.approx(b0, abs=1e-10)
    for j in range(2):
        assert np.abs(curves_b[j] - curves[j]).max() < 1e-10


def test_nw_bias_field_uniform_density():
    # with flat density the gradient term drops and the field reduces to
    # -mu2 * g'(m) * sum delta_j^2 (m'' f_j'^2 + m' f_j'') / 2; for the
    # gaussian identity family that is -mu2 / 2 times the curvature sum
    inp = AsymptoticInputs(
        family=get_family("gaussian"), eta0=0.0, components=(COS, COS),
        density=_uniform, deltas=np.array([1.0, 2.0]),
        density_grad=lambda X, j: np.zeros(np.asarray(X).shape[:-1]),
    )
    X = np.stack(np.meshgrid(np.linspace(0, 1, 7), np.linspace(0, 1, 7),
                             indexing="ij"), axis=-1)
    got = nw_bias_field(inp, X)
    expect = -0.2 * 0.5 * (COS.d2(X[..., 0]) + 4.0 * COS.d2(X[..., 1]))
    assert np.abs(got - expect).max() < 1e-12


def test_nw_component_bias_uniform_matches_direct():
    # uniform weight: the additive projection of an already additive bias
    # field returns its centered components
    inp = AsymptoticInputs(
        family=get_family("gaussian"), eta0=0.0, components=(COS, ZERO),
        density=_uniform, deltas=np.array([1.0, 1.0]),
        density_grad=lambda X, j: np.zeros(np.asarray(X).shape[:-1]),
    )
    grid = Grid.uniform(2, 21)
    b0, curves = nw_component_bias(inp, grid)
    u = grid.points[0]
    direct = -0.1 * COS.d2(u)
    direct = direct - grid.weights[0] @ direct
    assert np.abs(curves[0] - direct).max() < 1e-10
    assert np.abs(curves[1]).max() < 1e-10


def test_ll_component_bias_example():
    inp = AsymptoticInputs(
        family=get_family("gaussian"), eta0=0.0, components=(COS,),
        density=_uniform, deltas=np.array([1.0]),
    )
    b = ll_component_bias(inp, 0, np.array([0.0, 0.5]))
    assert b[0] == pytest.approx(-0.1 * np.pi ** 2, abs=1e-12)
    assert b[1] == pytest.approx(0.1 * np.pi ** 2 * 0, abs=1e-12)


def test_linear_components_have_zero_ll_bias():
    lin = ComponentTruth(value=lambda u: 2.0 * np.asarray(u) - 1.0,
                         d1=lambda u: 2.0 * np.ones_like(np.asarray(u)),
                         d2=lambda u: np.zeros_like(np.asarray(u)))
    inp = AsymptoticInputs(
        family=get_family("poisson"), eta0=0.0, components=(lin,),
        density=_uniform, deltas=np.array([1.0]),
    )
    assert np.abs(ll_component_bias(inp, 0, np.linspace(0, 1, 9))
                  ).max() == 0.0


@pytest.mark.parametrize("d", [1, 2])
def test_intercept_bias_zero_for_constant_truth(d):
    inp = AsymptoticInputs(
        family=get_family("poisson"), eta0=0.3, components=(ZERO,) * d,
        density=_uniform, deltas=np.ones(d),
    )
    assert nw_intercept_bias(inp) == pytest.approx(0.0, abs=1e-12)
    assert ll_intercept_bias(inp) == pytest.approx(0.0, abs=1e-12)


def test_ll_intercept_bias_gaussian_uniform_closed_form():
    # gaussian + uniform: w* is flat, the curvature integral of cos
    # vanishes, and only the boundary derivative terms survive:
    # beta0 = -kappa * (f'(0) - f'(1)) for a single component
    from sbgam.kernels import kernel_constants

    sin_comp = ComponentTruth(
        value=lambda u: np.sin(np.pi * np.asarray(u)) - 2.0 / np.pi,
        d1=lambda u: np.pi * np.cos(np.pi * np.asarray(u)),
        d2=lambda u: -np.pi ** 2 * np.sin(np.pi * np.asarray(u)),
    )
    inp = AsymptoticInputs(
        family=get_family("gaussian"), eta0=2.0 / np.pi,
        components=(sin_comp,), density=_uniform, deltas=np.array([1.0]),
    )
    kappa = kernel_constants("epanechnikov").kappa
    # interior term: -mu2/2 * integral of f'' = -mu2/2 * (f'(1) - f'(0))
    mu2 = kernel_constants("epanechnikov").mu2
    interior = 0.5 * mu2 * (-np.pi - np.pi)
    boundary = kappa * (np.pi - (-np.pi))
    expect = -(interior + boundary)
    assert ll_intercept_bias(inp) == pytest.approx(expect, abs=1e-9)


def test_intercept_bias_antisymmetry():
    # reflecting the component u -> 1 - u flips the sign of the odd parts
    # of the boundary contribution; for a pure sine the intercept bias of
    # the reflected problem equals that of the original (symmetry check)
    inp = AsymptoticInputs(
        family=get_family("gaussian"), eta0=0.0, components=(COS,),
        density=_uniform, deltas=np.array([1.0]),
    )
    refl = ComponentTruth(
        value=lambda u: np.cos(np.pi * (1.0 - np.asarray(u))),
        d1=lambda u: np.pi * np.sin(np.pi * (1.0 - np.asarray(u))),
        d2=lambda u: -np.pi ** 2 * np.cos(np.pi * (1.0 - np.asarray(u))),
    )
    inp_r = AsymptoticInputs(
        family=get_family("gaussian"), eta0=0.0, components=(refl,),
        density=_uniform, deltas=np.array([1.0]),
    )
    a = ll_intercept_bias(inp)
    b = ll_intercept_bias(inp_r)
    assert a == pytest.approx(-b, abs=1e-9)
