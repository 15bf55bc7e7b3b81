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
from sbgam.backfit import (FitConfig, newton_fit, poisson_marginals,
                           start_marginals)
from sbgam.nw_fit import _nw_marginals_dense, fit_nw, nw_prepare
from sbgam.oracles import dense_backfit_ll, newton_pointwise
from sbgam.sim import SimModel, make_dataset
from test_nw import (_assert_marginals_agree, _assert_same_marginals,
                     _poisson_inputs, _uncovered_point_inputs)


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
    elif family == "quasi-gamma":
        y = np.exp(eta) * rng.gamma(4.0, 0.25, n)
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
    "3-quasi-gamma": (3, "quasi-gamma", 9, [0.35, 0.4, 0.3]),
}


def _marginal_case(name):
    d, family, g, h = MARGINAL_CASES[name]
    ds = _sim_dataset(1, 61, d, family)
    grid = Grid.uniform(d, g)
    fam = _quasi_gamma() if family == "quasi-gamma" else family
    ctx = ll_prepare(ds, h, grid, fam)
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


@pytest.mark.parametrize("case", ["1-bernoulli", "2-poisson", "3-poisson",
                                  "3-quasi-gamma"])
def test_marginals_match_reference_in_ragged_blocks(case, monkeypatch):
    # no block pads beyond the data's widest windows, so every block but
    # the ragged last one holds at least 7 of the 61 observations; the
    # engine is called directly, because ll_marginals takes the closed
    # form for Poisson and keeps the engine as its fallback.  At d = 3 the
    # score and Q fields are integrated against the per-axis k_j tw_j
    # while the weight field's pair surfaces are integrated from cells, and
    # the quasi-gamma weight depends on the response
    ctx, *_ = _marginal_case(case)
    cells = prod(int((hi - lo).max()) for lo, hi in ctx.windows)
    monkeypatch.setattr(ll_fit, "BLOCK_CELLS", 7 * cells + cells // 2)
    ctx, c0, c1 = _marginal_case(case)
    _assert_blocks_partition(ctx)
    sizes = [len(b) for b, _ in ctx.blocks]
    assert len(sizes) > 1 and min(sizes[:-1]) >= 7
    _assert_matches_reference(ctx, -0.1, c0, c1, _block_marginals)


@pytest.mark.parametrize("family", ["bernoulli", "quasi-gamma"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_marginals_do_not_depend_on_the_block_split(d, family, monkeypatch):
    # one observation per block, each padded only to its own windows,
    # against the default split's one block padded to the widest: pins
    # the gathers and the scatter indices of the (W_1, ..., W_d, B) layout
    # directly, at a random iterate
    rng = np.random.default_rng([17, d, len(family)])
    g = 13 if d < 3 else 9
    fam = _quasi_gamma() if family == "quasi-gamma" else family
    ds, h = _sim_dataset(2, 61, d, family), rng.uniform(0.25, 0.4, size=d)
    iterate = (float(rng.normal()),
               [0.4 * rng.normal(size=g) for _ in range(d)],
               [0.2 * rng.normal(size=g) for _ in range(d)])
    ctx = ll_prepare(ds, h, Grid.uniform(d, g), fam)
    want = _block_marginals(ctx, *iterate)
    assert len(ctx.blocks) == 1
    monkeypatch.setattr(ll_fit, "BLOCK_CELLS", 1)
    ctx = ll_prepare(ds, h, Grid.uniform(d, g), fam)
    got = _block_marginals(ctx, *iterate)
    assert len(ctx.blocks) == ds.n
    _assert_marginals_agree(got, want, 1e-14)


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
    widths = {tuple(g[0].shape[0] for g in gathered)
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
    widths = {tuple(gt[0].shape[0] for gt in gathered)
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
    block_bytes = 8 * max(len(obs) * prod(gt[0].shape[0] for gt in gathered)
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


def test_poisson_large_curve_value_outside_every_window():
    # +800 at a grid point of x_1 that lies in no observation's window,
    # but inside the engine's padded windows: both stay finite
    rng = np.random.default_rng(17)
    ctx = ll_prepare(*_uncovered_point_inputs(rng), "poisson")
    assert not ctx.rows[0][:, 18].any()
    c0 = [0.3 * rng.normal(size=g) for g in ctx.grid.shape]
    c1 = [0.1 * rng.normal(size=g) for g in ctx.grid.shape]
    c0[0][18] = 800.0
    got = poisson_marginals(ctx, 0.1, c0, c1)
    assert got is not None
    for m in (*got.weight, *got.score, *got.pairs.values()):
        assert np.isfinite(m).all()
    _assert_marginals_agree(got, _block_marginals(ctx, 0.1, c0, c1), 1e-13)


def test_poisson_marginals_match_block_engine_on_narrow_windows():
    # criterion 2's shape, h = 0.13 on 41 points: each window spans about
    # a quarter of the grid, so most kernel cells of an axis are zero
    rng = np.random.default_rng(19)
    n = 120
    x = rng.uniform(-1, 1, size=(n, 2))
    y = rng.poisson(np.exp(0.5 * np.sin(np.pi * x[:, 0]))).astype(float)
    ctx = ll_prepare(Dataset.with_support(x, y, -1.0, 1.0), 0.13,
                     Grid.uniform(2, 41), "poisson")
    for _ in range(3):
        eta00 = float(rng.normal())
        c0 = [0.5 * rng.normal(size=g) for g in ctx.grid.shape]
        c1 = [0.3 * rng.normal(size=g) for g in ctx.grid.shape]
        got = poisson_marginals(ctx, eta00, c0, c1)
        assert got is not None
        _assert_marginals_agree(got, _block_marginals(ctx, eta00, c0, c1),
                                1e-13)


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


def _quasi_logit():
    """The logit family as a QuasiFamily: the engine evaluates it through
    `fields` on the predictor, never from per-axis exponentials."""
    return QuasiFamily(
        name="quasi-logit", link=lambda m: np.log(m) - np.log1p(-m),
        mean=expit, link_deriv=lambda m: 1.0 / (m * (1.0 - m)),
        variance=lambda m: m * (1.0 - m),
        q2=lambda u, y: -expit(u) * expit(-u),
        qll=lambda u, y: y * u - np.logaddexp(0.0, u),
        clamp_lo=-30.0, clamp_hi=30.0)


def _refuse(*args):
    raise AssertionError("this front end must not run")


def _assert_logit_factored(ctx, iterate, monkeypatch):
    # the factored front end alone, against the generic engine on the
    # QuasiFamily copy and against the full-grid reference
    assert ll_fit._logit_bounds(ctx, *iterate) is not None
    generic = ll_prepare(ctx.dataset, ctx.bandwidths, ctx.grid,
                         _quasi_logit(), ctx.kernel)
    want = _block_marginals(generic, *iterate)
    with monkeypatch.context() as m:
        m.setattr(ll_fit, "_family_fields", _refuse)
        got = _block_marginals(ctx, *iterate)
        _assert_matches_reference(ctx, *iterate, _block_marginals)
    _assert_marginals_agree(got, want, 1e-13)
    return got


def _logit_context(rng, d, n=40, kernel="epanechnikov"):
    """Bernoulli data with a quarter of the points near the edges, random
    bandwidths and a random non-uniform grid."""
    x = rng.uniform(-1, 1, size=(n, d))
    x[: n // 4] = np.sign(x[: n // 4]) * rng.uniform(0.85, 1.0, (n // 4, d))
    y = (rng.random(n) < expit(np.sin(np.pi * x[:, 0]))).astype(float)
    return ll_prepare(Dataset.with_support(x, y, -1.0, 1.0),
                      rng.uniform(0.25, 0.45, size=d), _random_grid(rng, d),
                      "bernoulli", kernel)


def _random_iterate(rng, ctx, scale=1.0):
    return (float(rng.normal()),
            [scale * 0.5 * rng.normal(size=g) for g in ctx.grid.shape],
            [scale * 0.3 * rng.normal(size=g) for g in ctx.grid.shape])


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_logit_factored_fields_match_generic_engine(d, kernel, monkeypatch):
    # in ragged blocks of differing window widths, at random iterates
    rng = np.random.default_rng([21, d, len(kernel)])
    ctx = _logit_context(rng, d, kernel=kernel)
    cells = prod(int((hi - lo).max()) for lo, hi in ctx.windows)
    monkeypatch.setattr(ll_fit, "BLOCK_CELLS", 6 * cells + cells // 2)
    ctx = _logit_context(np.random.default_rng([21, d, len(kernel)]), d,
                         kernel=kernel)
    _assert_blocks_partition(ctx)
    assert len(ctx.blocks) > 1
    for _ in range(2):
        _assert_logit_factored(ctx, _random_iterate(rng, ctx), monkeypatch)


@pytest.mark.parametrize("d", [4, 5])
def test_logit_factored_fields_at_higher_d(d, monkeypatch):
    # the per-cell products alternate their partial products between
    # the output and a scratch buffer; at d = 4 one passes through the
    # output.  Against the generic engine alone, which the tests above
    # pin to the full-grid reference
    rng = np.random.default_rng([26, d])
    ctx = _logit_context(rng, d)
    iterate = _random_iterate(rng, ctx)
    assert ll_fit._logit_bounds(ctx, *iterate) is not None
    want = _block_marginals(ll_prepare(ctx.dataset, ctx.bandwidths, ctx.grid,
                                       _quasi_logit()), *iterate)
    monkeypatch.setattr(ll_fit, "_family_fields", _refuse)
    _assert_marginals_agree(_block_marginals(ctx, *iterate), want, 1e-13)


def test_logit_factored_fields_on_narrow_windows(monkeypatch):
    # criterion 2's shape, h = 0.13 on 41 points: most kernel cells of an
    # axis are zero, and most padded cells lie far outside the windows
    rng = np.random.default_rng(22)
    n = 120
    x = rng.uniform(-1, 1, size=(n, 2))
    y = (rng.random(n) < expit(np.sin(np.pi * x[:, 0]))).astype(float)
    ctx = ll_prepare(Dataset.with_support(x, y, -1.0, 1.0), 0.13,
                     Grid.uniform(2, 41), "bernoulli")
    for _ in range(2):
        _assert_logit_factored(ctx, _random_iterate(rng, ctx), monkeypatch)


@pytest.mark.parametrize("d", [2, 3])
def test_logit_path_is_chosen_by_the_bound(d, monkeypatch):
    # eta00 set so that |eta00| + sum_j max_g (|c0_j| + |c1_j|) lies just
    # inside the clamp at 30, then just outside it: there the evaluation
    # must take the generic front end
    rng = np.random.default_rng([23, d])
    ctx = _logit_context(rng, d)
    _, c0, c1 = _random_iterate(rng, ctx)
    span = sum(float((np.abs(a) + np.abs(b)).max()) for a, b in zip(c0, c1))
    inside = (30.0 - span - 1e-9, c0, c1)
    outside = (30.0 - span + 1e-9, c0, c1)
    assert ll_fit._logit_bounds(ctx, *inside) is not None
    assert ll_fit._logit_bounds(ctx, *outside) is None
    assert ll_fit._logit_bounds(ctx, -inside[0], c0, c1) is not None
    assert ll_fit._logit_bounds(ctx, -outside[0], c0, c1) is None
    _assert_logit_factored(ctx, inside, monkeypatch)
    _assert_logit_factored(ctx, (-inside[0], c0, c1), monkeypatch)
    monkeypatch.setattr(ll_fit, "_logit_fields", _refuse)
    _assert_matches_reference(ctx, *outside, _block_marginals)


def test_logit_large_slope_keeps_padded_cells_finite(monkeypatch):
    # x_1's grid has 501 points on [0, 0.5] and one at 1: observations near
    # 1 have one-cell windows, padded to the block's 21 cells back on
    # [0.48, 0.5], where |t| exceeds 50.  A slope of -25 keeps the bound
    # within the clamp, but there a_1 passes 1000, and e^-a_1 would
    # overflow to inf times k = 0 without the clip
    rng = np.random.default_rng(24)
    n = 40
    x = np.column_stack([rng.uniform(0.0, 0.5, n), rng.uniform(0.0, 1.0, n)])
    x[:4, 0] = rng.uniform(0.992, 1.0, 4)
    y = (rng.random(n) < expit(np.sin(np.pi * x[:, 1]))).astype(float)
    grid = Grid((np.append(np.linspace(0.0, 0.5, 501), 1.0),
                 np.linspace(0.0, 1.0, 11)))
    ctx = ll_prepare(Dataset.with_support(x, y, 0.0, 1.0), [0.01, 0.3],
                     grid, "bernoulli")
    c0 = [0.1 * rng.normal(size=g) for g in grid.shape]
    c1 = [np.full(grid.shape[0], -25.0), 0.1 * rng.normal(size=11)]
    padded = max(float(np.abs(c0[0][idx] + t * c1[0][idx])[k == 0].max(
        initial=0.0)) for _, ((idx, k, t, *_), _) in ctx.blocks)
    assert padded > 1000.0
    got = _assert_logit_factored(ctx, (0.1, c0, c1), monkeypatch)
    for m in (*got.weight, *got.score, *got.pairs.values()):
        assert np.isfinite(m).all()
    assert np.isfinite(got.sq)


def test_logit_large_curve_value_outside_every_window(monkeypatch):
    # +800 at a grid point of x_1 in no observation's window: the bound
    # counts every grid point, so the evaluation takes the generic engine
    rng = np.random.default_rng(25)
    ds, h, grid = _uncovered_point_inputs(rng)
    ds = Dataset.with_support(ds.x, (ds.y > 1).astype(float), 0.0, 1.0)
    ctx = ll_prepare(ds, h, grid, "bernoulli")
    assert not ctx.rows[0][:, 18].any()
    c0 = [0.3 * rng.normal(size=g) for g in grid.shape]
    c1 = [0.1 * rng.normal(size=g) for g in grid.shape]
    c0[0][18] = 800.0
    assert ll_fit._logit_bounds(ctx, 0.1, c0, c1) is None
    monkeypatch.setattr(ll_fit, "_logit_fields", _refuse)
    got = _block_marginals(ctx, 0.1, c0, c1)
    for m in (*got.weight, *got.score, *got.pairs.values()):
        assert np.isfinite(m).all()
    _assert_marginals_agree(got, _block_marginals(
        ll_prepare(ds, h, grid, _quasi_logit()), 0.1, c0, c1), 1e-13)


def test_logit_fit_keeps_its_counts(monkeypatch):
    # the first replication of criterion 10's study (model (1,1),
    # n = 2000, h = 0.25): every engine evaluation of a Bernoulli fit is
    # factored, and the fit keeps the steps, sweeps and curves of the
    # generic engine
    ds = make_dataset(SimModel.from_label("1,1", n=2000, seed=77),
                      np.random.default_rng(np.random.SeedSequence([77, 0])))
    grid = Grid.uniform(2, 41)
    want = fit_ll(ds, 0.25, grid=grid, family=_quasi_logit())
    monkeypatch.setattr(ll_fit, "_family_fields", _refuse)
    fit = fit_ll(ds, 0.25, grid=grid, family="bernoulli")
    got_d, want_d = fit.diagnostics, want.diagnostics
    assert got_d.converged and want_d.converged
    assert got_d.outer_iterations == want_d.outer_iterations
    assert got_d.inner_sweep_counts == want_d.inner_sweep_counts
    assert np.allclose(got_d.sq_path, want_d.sq_path, rtol=0, atol=1e-13)
    assert abs(fit.eta00 - want.eta00) < 1e-13
    for curves in ("components0", "components1"):
        for g, w in zip(getattr(fit, curves), getattr(want, curves)):
            assert np.abs(g - w).max() < 1e-13, curves


def _start_context(family, d):
    """A context on a random grid, with a quarter of the points near the
    edges, and the family's constant start g(mean(y))."""
    rng = np.random.default_rng([15, d, len(family)])
    n = 50
    x = rng.uniform(-1, 1, size=(n, d))
    x[: n // 4] = np.sign(x[: n // 4]) * rng.uniform(0.85, 1.0, (n // 4, d))
    eta = 0.5 * np.sin(np.pi * x[:, 0])
    y = {"bernoulli": (rng.random(n) < expit(eta)).astype(float),
         "poisson": rng.poisson(np.exp(eta)).astype(float),
         "quasi-gamma": np.exp(eta) * rng.gamma(4.0, 0.25, n)}[family]
    fam = _quasi_gamma() if family == "quasi-gamma" else get_family(family)
    ctx = ll_prepare(Dataset.with_support(x, y, -1.0, 1.0),
                     rng.uniform(0.25, 0.45, size=d), _random_grid(rng, d),
                     fam)
    return ctx, float(fam.link(np.mean(y)))


def _zeros(ctx):
    return [np.zeros(g) for g in ctx.grid.shape]


@pytest.mark.parametrize("family, eta0", [
    ("bernoulli", None), ("poisson", None), ("poisson", 31.0),
    ("quasi-gamma", None),
], ids=["bernoulli", "poisson", "poisson-past-clamp", "quasi-gamma"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_start_marginals_match_block_engine(d, family, eta0):
    # at the constant start every field is a per-observation constant, so
    # the weighted data moments are the engine's evaluation; past the
    # Poisson clamp both evaluate the clamped predictor, and the
    # quasi-gamma weight depends on the response
    ctx, start = _start_context(family, d)
    eta0 = start if eta0 is None else eta0
    got = start_marginals(ctx, eta0, _zeros(ctx), _zeros(ctx))
    assert got is not None
    assert "blocks" not in vars(ctx) and "windows" not in vars(ctx)
    _assert_marginals_agree(got, _block_marginals(ctx, eta0, _zeros(ctx),
                                                  _zeros(ctx)), 1e-14)


def test_start_marginals_need_every_curve_and_slope_zero():
    ctx, eta0 = _start_context("bernoulli", 3)
    assert start_marginals(ctx, eta0, _zeros(ctx), _zeros(ctx)) is not None
    for which, j in product(range(2), range(3)):
        comps = [_zeros(ctx), _zeros(ctx)]
        comps[which][j][4] = 1e-9
        assert start_marginals(ctx, eta0, *comps) is None, (which, j)


def test_start_serves_the_first_evaluation_of_a_fit():
    # ll_marginals takes the weighted moments at the start, so a Bernoulli
    # context builds no blocks until the first Newton step
    ctx, eta0 = _start_context("bernoulli", 2)
    marg = ll_marginals(ctx, eta0, _zeros(ctx), _zeros(ctx))
    assert "blocks" not in vars(ctx) and "workspace" not in vars(ctx)
    _assert_same_marginals(marg, start_marginals(ctx, eta0, _zeros(ctx),
                                                 _zeros(ctx)))


def test_degenerate_start_weight_raises():
    # no observation near most grid points: the weighted moments vanish
    # there, and the check on the start's marginals must still fire
    rng = np.random.default_rng(16)
    x = np.concatenate([rng.uniform(0, 0.2, 30), [1.0]])[:, None]
    y = (rng.random(31) < 0.5).astype(float)
    y[:2] = [0.0, 1.0]
    ds = Dataset.with_support(x, y, 0.0, 1.0)
    ctx = ll_prepare(ds, 0.05, Grid.uniform(1, 41), "bernoulli")
    eta0 = float(get_family("bernoulli").link(np.mean(y)))
    with pytest.raises(DegenerateWeightError):
        ll_marginals(ctx, eta0, _zeros(ctx), _zeros(ctx))
    assert "blocks" not in vars(ctx)
    with pytest.raises(DegenerateWeightError):
        fit_ll(ds, 0.05, grid=Grid.uniform(1, 41), family="bernoulli")


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
