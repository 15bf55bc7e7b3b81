"""Local linear fitter: predictor field, marginals, solver, oracles."""

import tracemalloc
from functools import reduce
from itertools import combinations, product
from math import prod

import numpy as np
import pytest
from scipy.special import expit

from sbgam import ll_fit
from sbgam.errors import DegenerateWeightError, NonConvergenceError
from sbgam.family import QuasiFamily, get_family
from sbgam.grid import Dataset, Grid, integrate_tensor
from sbgam.kernels import KERNEL_NAMES, row_windows
from sbgam.ll_fit import (LlFit, _block_marginals, fit_ll, ll_inner_solve,
                          ll_marginals, ll_outer_update, ll_predictor_field,
                          ll_prepare)
from sbgam.backfit import FitConfig, newton_fit, poisson_marginals
from sbgam.nw_fit import _nw_marginals_dense, fit_nw, nw_prepare
from sbgam.oracles import dense_backfit_ll, newton_pointwise
from test_nw import (_assert_marginals_agree, _assert_same_marginals,
                     _poisson_inputs)


def _sim_dataset(seed, n, d, family="gaussian"):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, d))
    eta = np.sin(np.pi * x[:, 0])
    if d > 1:
        eta = eta + 0.5 * x[:, 1]
    if family == "gaussian":
        y = eta + rng.normal(scale=0.4, size=n)
    elif family == "bernoulli":
        y = (rng.random(n) < get_family("bernoulli").mean(eta)).astype(float)
    else:
        y = rng.poisson(np.exp(eta)).astype(float)
    return Dataset.with_support(x, y, -1.0, 1.0)


def test_predictor_field_evaluation():
    ds = _sim_dataset(0, 15, 2)
    grid = Grid.uniform(2, 9)
    ctx = ll_prepare(ds, [0.3, 0.3], grid, "gaussian")
    c0 = [np.linspace(0, 1, 9), np.linspace(-1, 0, 9)]
    c1 = [0.5 * np.ones(9), np.zeros(9)]
    field = ll_predictor_field(ctx, 2.0, c0, c1, i=3)
    g1, g2 = np.meshgrid(grid.points[0], grid.points[1], indexing="ij")
    t1 = (ds.x[3, 0] - g1) / 0.3
    t2 = (ds.x[3, 1] - g2) / 0.3
    expect = (2.0 + np.interp(g1, grid.points[0], c0[0]) + t1 * 0.5
              + np.interp(g2, grid.points[1], c0[1]) + t2 * 0.0)
    assert np.abs(field - expect).max() < 1e-12


def _reference_marginals(ctx, eta00, c0, c1):
    """Marginals fields times n, summed over observations on the full
    product grid."""
    grid, fam, y = ctx.grid, ctx.family, ctx.dataset.y
    d, n = grid.ndim, ctx.dataset.n
    pairs = list(combinations(range(d), 2))
    ref = {nm: 0.0 for nm in ("mass", "score_total", "sq")}
    ref["weight"] = [np.zeros((3, g)) for g in grid.shape]
    ref["score"] = [np.zeros((2, g)) for g in grid.shape]
    ref["pairs"] = {(j, l): np.zeros((2 * grid.shape[j], 2 * grid.shape[l]))
                    for j, l in pairs}
    for i in range(n):
        u = ll_predictor_field(ctx, eta00, c0, c1, i)
        kp = reduce(np.multiply.outer, [ctx.rows[j][i] for j in range(d)])
        t = []
        for j in range(d):
            shape = [1] * d
            shape[j] = grid.shape[j]
            t.append(ctx.tvals[j][i].reshape(shape))
        wk = -fam.q2(u, y[i]) * kp
        sk = fam.q1(u, y[i]) * kp
        ref["mass"] += integrate_tensor(wk, grid)
        ref["score_total"] += integrate_tensor(sk, grid)
        ref["sq"] += integrate_tensor(fam.qll(u, y[i]) * kp, grid)
        for j in range(d):
            for k in range(3):
                ref["weight"][j][k] += integrate_tensor(t[j] ** k * wk, grid,
                                                        (j,))
            for a in range(2):
                ref["score"][j][a] += integrate_tensor(t[j] ** a * sk, grid,
                                                       (j,))
        for j, l in pairs:
            gj, gl = grid.shape[j], grid.shape[l]
            for a, b in product(range(2), repeat=2):
                ref["pairs"][j, l][a * gj:(a + 1) * gj, b * gl:(b + 1) * gl] \
                    += integrate_tensor(t[j] ** a * t[l] ** b * wk, grid,
                                        (j, l))
    return ref


def _assert_matches_reference(ctx, eta00, c0, c1, marginals=ll_marginals):
    marg = marginals(ctx, eta00, c0, c1)
    n = ctx.dataset.n
    for nm, want in _reference_marginals(ctx, eta00, c0, c1).items():
        got = getattr(marg, nm)
        if isinstance(want, float):
            assert got == pytest.approx(want / n, abs=1e-13), nm
            continue
        keys = range(len(want)) if isinstance(want, list) else want.keys()
        assert len(got) == len(want), nm
        for key in keys:
            assert got[key].shape == want[key].shape, (nm, key)
            assert np.abs(got[key] - want[key] / n).max() < 1e-13, (nm, key)


MARGINAL_CASES = {
    "1-bernoulli": (1, "bernoulli", 13, [0.25]),
    "2-bernoulli": (2, "bernoulli", 13, [0.25, 0.3]),
    "2-poisson": (2, "poisson", 13, [0.35, 0.2]),
    "3-bernoulli": (3, "bernoulli", 9, [0.3, 0.45, 0.35]),
    "3-poisson": (3, "poisson", 9, [0.4, 0.3, 0.25]),
}


def _marginal_case(name):
    d, family, g, h = MARGINAL_CASES[name]
    ds = _sim_dataset(1, 61, d, family)
    grid = Grid.uniform(d, g)
    ctx = ll_prepare(ds, h, grid, family)
    p = grid.points[0]
    c0 = [0.4 * np.sin(2 * np.pi * p), 0.2 * p - 0.1, 0.3 * p ** 2][:d]
    c1 = [0.1 * np.ones(g), -0.05 * np.ones(g), 0.1 * p][:d]
    return ctx, c0, c1


@pytest.mark.parametrize("case", sorted(MARGINAL_CASES))
def test_marginals_match_full_grid_reference(case):
    ctx, c0, c1 = _marginal_case(case)
    _assert_matches_reference(ctx, -0.1, c0, c1)


def _assert_blocks_partition(ctx):
    obs = np.concatenate([b for b, _ in ctx.blocks])
    assert np.array_equal(np.sort(obs), np.arange(ctx.dataset.n))


@pytest.mark.parametrize("case", ["1-bernoulli", "2-poisson", "3-poisson"])
def test_marginals_match_reference_in_ragged_blocks(case, monkeypatch):
    # no block pads beyond the data's widest windows, so every block but
    # the ragged last one holds at least 7 of the 61 observations; the
    # engine is called directly, because ll_marginals takes the closed
    # form for Poisson and keeps the engine as its fallback
    ctx, *_ = _marginal_case(case)
    cells = prod(int((hi - lo).max()) for lo, hi in ctx.windows)
    monkeypatch.setattr(ll_fit, "BLOCK_CELLS", 7 * cells + cells // 2)
    ctx, c0, c1 = _marginal_case(case)
    _assert_blocks_partition(ctx)
    sizes = [len(b) for b, _ in ctx.blocks]
    assert len(sizes) > 1 and min(sizes[:-1]) >= 7
    _assert_matches_reference(ctx, -0.1, c0, c1, _block_marginals)


def _quasi_gamma():
    """Log link with variance m^2; the weight -q2 = y exp(-u) depends on
    the response, and the family builds `fields` from its callables."""
    return QuasiFamily(
        name="quasi-gamma", link=np.log, mean=np.exp,
        link_deriv=lambda m: 1.0 / m, variance=lambda m: m * m,
        q2=lambda u, y: -y * np.exp(-u),
        qll=lambda u, y: -y * np.exp(-u) - u,
        clamp_lo=-30.0, clamp_hi=30.0)


def _random_grid(rng, d):
    """Product grid with random interior points, 9 to 14 per axis."""
    pts = []
    for _ in range(d):
        inner = np.sort(rng.uniform(0.0, 1.0, int(rng.integers(7, 13))))
        pts.append(np.concatenate([[0.0], inner, [1.0]]))
    return Grid(tuple(pts))


@pytest.mark.parametrize("family", ["bernoulli", "poisson", "gaussian",
                                    "quasi-gamma"])
@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_marginals_match_reference_on_random_grids(d, kernel, family,
                                                   monkeypatch):
    rng = np.random.default_rng([d, len(kernel), len(family)])
    # a quarter of the points sit near the edges, where windows are cut,
    # and the random grids make interior windows differ in width too
    n = 40
    x = rng.uniform(-1, 1, size=(n, d))
    x[: n // 4] = np.sign(x[: n // 4]) * rng.uniform(0.85, 1.0, (n // 4, d))
    eta = 0.5 * np.sin(np.pi * x[:, 0])
    y = {"bernoulli": (rng.random(n) < expit(eta)).astype(float),
         "poisson": rng.poisson(np.exp(eta)).astype(float),
         "gaussian": eta + rng.normal(size=n),
         "quasi-gamma": np.exp(eta) * rng.gamma(4.0, 0.25, n)}[family]
    fam = _quasi_gamma() if family == "quasi-gamma" else family
    ds = Dataset.with_support(x, y, -1.0, 1.0)
    grid = _random_grid(rng, d)
    h = rng.uniform(0.25, 0.45, size=d)
    ctx = ll_prepare(ds, h, grid, fam, kernel)
    cells = prod(int((hi - lo).max()) for lo, hi in ctx.windows)
    monkeypatch.setattr(ll_fit, "BLOCK_CELLS", 6 * cells)
    ctx = ll_prepare(ds, h, grid, fam, kernel)
    _assert_blocks_partition(ctx)
    widths = {tuple(g[0].shape[1] for g in gathered)
              for _, gathered in ctx.blocks}
    assert len(widths) > 1
    c0 = [0.3 * rng.normal(size=g) for g in grid.shape]
    c1 = [0.1 * rng.normal(size=g) for g in grid.shape]
    _assert_matches_reference(ctx, 0.2, c0, c1, _block_marginals)


def _workspace_case(d):
    """A Bernoulli context split into ragged blocks of differing window
    widths, and two random iterates on its grid."""
    rng = np.random.default_rng(40 + d)
    n, g = (900, 21) if d == 2 else (500, 11)
    x = rng.uniform(-1, 1, size=(n, d))
    x[: n // 4] = np.sign(x[: n // 4]) * rng.uniform(0.85, 1.0, (n // 4, d))
    y = (rng.random(n) < expit(np.sin(np.pi * x[:, 0]))).astype(float)
    ds = Dataset.with_support(x, y, -1.0, 1.0)
    grid = Grid.uniform(d, g)
    ctx = ll_prepare(ds, 0.35, grid, "bernoulli")
    widths = {tuple(gt[0].shape[1] for gt in gathered)
              for _, gathered in ctx.blocks}
    assert len(ctx.blocks) > 2 and len(widths) > 1
    iterates = [(rng.normal(), [0.5 * rng.normal(size=g) for _ in range(d)],
                 [0.2 * rng.normal(size=g) for _ in range(d)])
                for _ in range(2)]
    return ctx, iterates


@pytest.mark.parametrize("d", [2, 3])
def test_workspace_keeps_nothing_between_evaluations(d):
    # the workspace is reused block after block and call after call; a
    # cell left from an earlier block or iterate would show here
    ctx, (a, b) = _workspace_case(d)
    ll_marginals(ctx, *a)
    got = ll_marginals(ctx, *b)
    want = ll_marginals(ll_prepare(ctx.dataset, ctx.bandwidths, ctx.grid,
                                   "bernoulli"), *b)
    _assert_same_marginals(got, want)


@pytest.mark.parametrize("d", [2, 3])
def test_warm_marginals_allocate_less_than_one_block(d):
    # predictor, kernel product, fields and pair products all live in the
    # workspace; what a warm call allocates is window curves, pair
    # surfaces for d = 3 and grid-sized sums
    ctx, (a, b) = _workspace_case(d)
    block_bytes = 8 * max(len(obs) * prod(gt[0].shape[1] for gt in gathered)
                          for obs, gathered in ctx.blocks)
    ll_marginals(ctx, *a)
    tracemalloc.start()
    try:
        ll_marginals(ctx, *b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block_bytes


def _poisson_context(rng, d, kernel="epanechnikov", n=40):
    return ll_prepare(*_poisson_inputs(rng, d, n), "poisson", kernel)


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_poisson_marginals_match_block_engine(d, kernel):
    # the per-axis closed form against the engine it replaces for
    # Poisson, at random iterates on random non-uniform grids
    rng = np.random.default_rng([11, d, len(kernel)])
    ctx = _poisson_context(rng, d, kernel)
    for _ in range(3):
        eta00 = float(rng.normal())
        c0 = [0.5 * rng.normal(size=g) for g in ctx.grid.shape]
        c1 = [0.3 * rng.normal(size=g) for g in ctx.grid.shape]
        got = poisson_marginals(ctx, eta00, c0, c1)
        assert got is not None
        _assert_marginals_agree(got, _block_marginals(ctx, eta00, c0, c1),
                                1e-13)


def test_poisson_falls_back_where_the_clamp_could_bind():
    # an intercept of 29.5 lifts some windows' predictor above the clamp
    # at 30, where e^u stops being a product over axes; the evaluation
    # must then be the engine's, bit for bit
    rng = np.random.default_rng(12)
    ctx = _poisson_context(rng, 3)
    c0 = [0.3 * rng.normal(size=g) for g in ctx.grid.shape]
    c1 = [0.1 * rng.normal(size=g) for g in ctx.grid.shape]
    assert poisson_marginals(ctx, 0.1, c0, c1) is not None
    assert poisson_marginals(ctx, 29.5, c0, c1) is None
    _assert_same_marginals(ll_marginals(ctx, 29.5, c0, c1),
                           _block_marginals(ctx, 29.5, c0, c1))


def test_poisson_shift_keeps_large_offsetting_terms_finite():
    # +800 on x_1 and -790 on x_2 leave every window's predictor near 10,
    # but e^800 overflows; the shift by each window's largest term keeps
    # every factor at most 1
    rng = np.random.default_rng(13)
    ctx = _poisson_context(rng, 3)
    c0 = [0.3 * rng.normal(size=g) for g in ctx.grid.shape]
    c1 = [0.1 * rng.normal(size=g) for g in ctx.grid.shape]
    c0[0] += 800.0
    c0[1] -= 790.0
    got = poisson_marginals(ctx, 0.1, c0, c1)
    assert got is not None
    for m in (*got.weight, *got.score, *got.pairs.values()):
        assert np.isfinite(m).all()
    _assert_marginals_agree(got, _block_marginals(ctx, 0.1, c0, c1), 1e-13)


def test_poisson_fit_never_builds_the_engine():
    # a fit whose iterates stay below the clamp needs no blocks, and a
    # warm evaluation allocates a few arrays of the (n, G_j) kernel rows'
    # size per regressor, nothing of window-product size
    ctx = _poisson_context(np.random.default_rng(14), 3, n=300)
    fit = newton_fit(ctx, None, LlFit, ll_marginals, ll_inner_solve,
                     ll_outer_update)
    assert fit.diagnostics.converged
    assert "blocks" not in vars(ctx) and "workspace" not in vars(ctx)
    unit = 8 * 2 * ctx.dataset.n * sum(ctx.grid.shape)
    ll_marginals(ctx, fit.eta00, fit.components0, fit.components1)
    tracemalloc.start()
    try:
        ll_marginals(ctx, fit.eta00, fit.components0, fit.components1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "blocks" not in vars(ctx) and "windows" not in vars(ctx)
    assert peak < 3 * unit, (peak, unit)


def test_engine_computes_windows_on_first_use():
    # a Bernoulli fit runs the block engine, which splits the data by the
    # kernel windows; they are computed then, from the kernel rows
    ctx = ll_prepare(_sim_dataset(18, 60, 2, "bernoulli"), 0.3,
                     Grid.uniform(2, 11), "bernoulli")
    assert "windows" not in vars(ctx)
    fit = newton_fit(ctx, None, LlFit, ll_marginals, ll_inner_solve,
                     ll_outer_update)
    assert fit.diagnostics.converged and "blocks" in vars(ctx)
    assert "windows" in vars(ctx)
    for (lo, hi), rows in zip(ctx.windows, ctx.rows):
        want_lo, want_hi = row_windows(rows)
        assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)


def test_zero_slope_smoothed_ql_equals_local_constant():
    # with all slope curves zero the local linear predictor field is the
    # local constant one, so the smoothed quasi-likelihood must agree
    ds = _sim_dataset(2, 50, 2, "poisson")
    grid = Grid.uniform(2, 11)
    llctx = ll_prepare(ds, 0.3, grid, "poisson")
    nwctx = nw_prepare(ds, 0.3, grid, "poisson")
    comps = [0.2 * np.sin(2 * np.pi * grid.points[0]),
             0.3 * grid.points[1] - 0.15]
    zeros = [np.zeros(11), np.zeros(11)]
    mll = ll_marginals(llctx, 0.1, comps, zeros)
    mnw = _nw_marginals_dense(nwctx, 0.1, comps)
    assert mll.sq == pytest.approx(mnw.sq, abs=1e-12)
    assert mll.mass == pytest.approx(mnw.mass, abs=1e-13)


def test_gaussian_single_outer_step_equals_dense_solve():
    ds = _sim_dataset(3, 100, 2)
    grid = Grid.uniform(2, 17)
    cfg = FitConfig(tol_inner=1e-13, max_inner=400)
    fit = fit_ll(ds, [0.25, 0.3], grid=grid, config=cfg)
    assert fit.diagnostics.outer_iterations == 2
    c00, c0o, c1o = dense_backfit_ll(ds, [0.25, 0.3], grid=grid)
    assert fit.eta00 == pytest.approx(c00, abs=1e-9)
    for j in range(2):
        assert np.abs(fit.components0[j] - c0o[j]).max() < 1e-9
        assert np.abs(fit.components1[j] - c1o[j]).max() < 1e-9


def test_gaussian_intercept_is_response_mean():
    ds = _sim_dataset(4, 80, 2)
    fit = fit_ll(ds, 0.3)
    assert fit.eta00 == pytest.approx(float(np.mean(ds.y)), abs=1e-12)


def test_fit_matches_pointwise_newton_d1():
    for fam in ("gaussian", "bernoulli", "poisson"):
        ds = _sim_dataset(5, 250, 1, fam)
        cfg = FitConfig(tol_outer=1e-11, tol_inner=1e-13, max_outer=60)
        fit = fit_ll(ds, 0.2, family=fam, config=cfg)
        t0, t1, ok = newton_pointwise(ds, 0.2, family=fam, order=1)
        assert ok.all()
        assert np.abs(fit.eta00 + fit.components0[0] - t0).max() < 1e-8
        assert np.abs(fit.components1[0] - t1).max() < 1e-8


def test_slope_recovers_derivative_on_linear_truth():
    # y = 2 x1 - x2 exactly; local linear reproduces the plane, slopes
    # recover the per-coordinate derivatives after bandwidth scaling
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, size=(150, 2))
    y = 2 * x[:, 0] - x[:, 1]
    ds = Dataset.with_support(x, y, -1, 1)
    h = [0.3, 0.3]
    fit = fit_ll(ds, h, config=FitConfig(tol_inner=1e-13))
    # component curves on the rescaled scale: slopes 4 and -2
    for j, slope in ((0, 4.0), (1, -2.0)):
        deriv = fit.derivative_curve(j)
        assert np.abs(deriv - slope).max() < 1e-8
    pred = fit.predict(x)
    assert np.abs(pred - y).max() < 1e-8


def test_nw_and_ll_agree_on_linear_truth_interior():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, size=(300, 2))
    y = 0.8 * x[:, 0] + 0.3 * x[:, 1] + rng.normal(scale=0.05, size=300)
    ds = Dataset.with_support(x, y, -1, 1)
    nw = fit_nw(ds, 0.25)
    ll = fit_ll(ds, 0.25)
    inner = slice(8, -8)
    for j in range(2):
        a = nw.eta0 + nw.components[j][inner]
        b = ll.eta00 + ll.components0[j][inner]
        assert np.abs(a - b).max() < 0.05


def test_constraint_residuals_small_every_iteration():
    ds = _sim_dataset(8, 120, 2, "poisson")
    fit = fit_ll(ds, 0.3, family="poisson")
    diag = fit.diagnostics
    assert len(diag.constraint_residuals) == diag.outer_iterations
    assert max(diag.constraint_residuals) < 1e-8 * diag.weight_total


def test_outer_changes_decrease():
    ds = _sim_dataset(9, 150, 2, "bernoulli")
    fit = fit_ll(ds, 0.35, family="bernoulli")
    ch = fit.diagnostics.outer_changes
    assert all(b < a for a, b in zip(ch[1:-1], ch[2:]))
    assert fit.diagnostics.residual_norm < 1e-6


def test_inner_contractions_below_one():
    ds = _sim_dataset(10, 150, 2)
    fit = fit_ll(ds, 0.3)
    for c in fit.diagnostics.inner_contractions:
        assert c < 1.0


def test_degenerate_moments_raise():
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.uniform(0, 0.2, 30), [1.0]])[:, None]
    y = rng.normal(size=31)
    ds = Dataset.with_support(x, y, 0.0, 1.0)
    with pytest.raises(DegenerateWeightError):
        fit_ll(ds, 0.05, grid=Grid.uniform(1, 41))


def test_nonconvergence_raises_with_history():
    ds = _sim_dataset(12, 120, 2, "poisson")
    with pytest.raises(NonConvergenceError) as info:
        fit_ll(ds, 0.3, family="poisson", config=FitConfig(max_outer=1))
    assert len(info.value.history) == 1


def test_streamed_path_used_for_three_dims():
    # d = 3 fields are only ever formed on kernel windows; the fit must
    # still satisfy its constraints and converge
    rng = np.random.default_rng(13)
    x = rng.uniform(-1, 1, size=(120, 3))
    y = (np.sin(np.pi * x[:, 0]) + 0.5 * x[:, 1] + 0.1 * x[:, 2]
         + rng.normal(scale=0.3, size=120))
    ds = Dataset.with_support(x, y, -1, 1)
    fit = fit_ll(ds, 0.3, grid=Grid.uniform(3, 15))
    assert fit.diagnostics.converged
    assert max(fit.diagnostics.constraint_residuals) < 1e-10
    assert len(fit.components0) == 3 and len(fit.components1) == 3
