"""Local constant fitter: marginals, inner solver, outer loop, oracles."""

from functools import cached_property
from itertools import product

import numpy as np
import pytest
from scipy.special import expit

from sbgam.errors import (DegenerateWeightError, InitializerError,
                          NonConvergenceError)
from sbgam.family import QuasiFamily
from sbgam.grid import Dataset, Grid, integrate_tensor
from sbgam.kernels import KERNEL_NAMES
from sbgam.backfit import (FitConfig, Marginals, identity_marginals,
                           inner_solve, newton_fit, poisson_marginals)
from sbgam.ll_fit import (LlContext, LlFit, fit_ll, ll_inner_solve,
                          ll_marginals, ll_outer_update, ll_prepare)
from sbgam.nw_fit import (NwContext, NwFit, _nw_marginals_dense,
                          _nw_marginals_streamed, fit_nw, nw_inner_solve,
                          nw_marginals, nw_outer_update, nw_prepare)
from sbgam.oracles import _solve_additive_system, newton_pointwise
from helpers import (assert_marginals_agree, assert_matches_oracle,
                     oracle_marginals, poisson_inputs, quasi_gamma,
                     random_grid, sim_dataset, uncovered_point_inputs)


@pytest.mark.parametrize("fitter", [fit_nw, fit_ll])
def test_predict_mean_of_a_quasi_family_fit(fitter):
    # the fit keeps the family object: get_family knows only the built-in
    # names, so looking "quasi-gamma" up again raised InputError
    rng = np.random.default_rng(21)
    x = rng.uniform(-1.0, 1.0, size=(80, 2))
    y = np.exp(0.5 * np.sin(np.pi * x[:, 0])) * rng.gamma(4.0, 0.25, 80)
    fam = quasi_gamma()
    fit = fitter(Dataset.with_support(x, y, -1.0, 1.0), 0.4,
                 grid=Grid.uniform(2, 11), family=fam)
    assert fit.family is fam
    xq = rng.uniform(-1.0, 1.0, size=(5, 2))
    means = fit.predict_mean(xq)
    assert np.array_equal(means, np.exp(fit.predict(xq)))


def test_dense_marginals_match_oracle():
    # sparse data on random grids leave cells where phat is 0 and ybar
    # falls back to mean(y)
    for d, kernel, family in product((1, 2), KERNEL_NAMES, (
            "gaussian", "bernoulli", "poisson", "quasi-gamma")):
        case = (d, kernel, family)
        rng = np.random.default_rng([d, len(kernel), len(family)])
        n = 12
        x = rng.uniform(-1.0, 0.2, size=(n, d))
        eta = 0.5 * np.sin(np.pi * x[:, 0])
        y = {"gaussian": eta + rng.normal(size=n),
             "bernoulli": (rng.random(n) < expit(eta)).astype(float),
             "poisson": rng.poisson(np.exp(eta)).astype(float),
             "quasi-gamma": np.exp(eta) * rng.gamma(4.0, 0.25, n)}[family]
        fam = quasi_gamma() if family == "quasi-gamma" else family
        grid = random_grid(rng, d, 6)
        h = rng.uniform(0.25, 0.3, size=d)
        ctx = nw_prepare(Dataset.with_support(x, y, -1.0, 1.0), h, grid,
                         fam, kernel)
        phat = ctx.dense_smooths[0]
        assert (phat == 0.0).any() and (phat > 0.0).any(), case
        comps = [0.5 * rng.normal(size=g) for g in grid.shape]
        eta0 = float(rng.normal())
        assert_matches_oracle(_nw_marginals_dense, ctx, eta0, comps)


@pytest.mark.parametrize("family", ["bernoulli", "poisson", "quasi-gamma"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_streamed_marginals_match_oracle(d, family):
    # the path that serves non-identity links at d >= 3 (Poisson only
    # where the clamp could bind), at a random iterate on a random grid
    rng = np.random.default_rng([33, d, len(family)])
    ds = sim_dataset(d, 40, d, family)
    fam = quasi_gamma() if family == "quasi-gamma" else family
    ctx = nw_prepare(ds, rng.uniform(0.25, 0.45, size=d),
                     random_grid(rng, d, 6), fam)
    eta0 = float(rng.normal())
    comps = [0.5 * rng.normal(size=g) for g in ctx.grid.shape]
    assert_matches_oracle(_nw_marginals_streamed, ctx, eta0, comps)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kernel", ["epanechnikov", "quartic", "triangular"])
def test_identity_closed_form_matches_streamed(d, kernel):
    # the closed form of both orders against the oracle; a quarter of the
    # points sit near the edges, where windows are cut, on random grids
    # whose windows differ in width
    rng = np.random.default_rng(100 * d + len(kernel))
    n = 50
    x = rng.uniform(-1, 1, size=(n, d))
    x[: n // 4] = np.sign(x[: n // 4]) * rng.uniform(0.85, 1.0, (n // 4, d))
    y = 1.0 + 2.0 * rng.normal(size=n)
    ds = Dataset.with_support(x, y, -1.0, 1.0)
    grid = random_grid(rng, d, 6)
    h = rng.uniform(0.3, 0.5, size=d)
    for p, prepare in enumerate((nw_prepare, ll_prepare)):
        ctx = prepare(ds, h, grid, "gaussian", kernel)
        assert ctx.order == p
        eta0 = float(rng.normal())
        comps = [[s * rng.normal(size=g) for g in grid.shape]
                 for s in (1.0, 0.5)[:p + 1]]
        assert_matches_oracle(identity_marginals, ctx, eta0, *comps)


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_poisson_marginals_match_streamed(d, kernel):
    # the order-0 closed form against the oracle, at random iterates on
    # random non-uniform grids; fits take it at d >= 3 only
    rng = np.random.default_rng([12, d, len(kernel)])
    ctx = nw_prepare(*poisson_inputs(rng, d), "poisson", kernel)
    for _ in range(3):
        eta0 = float(rng.normal())
        comps = [0.5 * rng.normal(size=g) for g in ctx.grid.shape]
        got = poisson_marginals(ctx, eta0, comps)
        assert got is not None
        assert_marginals_agree(got, oracle_marginals(ctx, eta0, comps),
                               1e-13)


def test_poisson_guard_at_three_dims():
    # above the clamp the streamed path serves, bit for bit; +800 on x_1
    # and -790 on x_2 stay finite through the per-window shift
    rng = np.random.default_rng(15)
    ctx = nw_prepare(*poisson_inputs(rng, 3), "poisson")
    comps = [0.3 * rng.normal(size=g) for g in ctx.grid.shape]
    assert poisson_marginals(ctx, 29.5, comps) is None
    assert_marginals_agree(nw_marginals(ctx, 29.5, comps),
                           _nw_marginals_streamed(ctx, 29.5, comps))
    comps[0] += 800.0
    comps[1] -= 790.0
    got = poisson_marginals(ctx, 0.1, comps)
    assert got is not None
    assert_marginals_agree(got, oracle_marginals(ctx, 0.1, comps), 1e-13)


def test_poisson_large_curve_value_outside_every_window():
    # +800 where x_1 has no observation's window: a_ij - m_ij is clipped
    # at 0 there before exp, so nothing overflows to inf times k_ij = 0
    rng = np.random.default_rng(16)
    ctx = nw_prepare(*uncovered_point_inputs(rng), "poisson")
    assert not ctx.rows[0][:, 18].any()
    comps = [0.3 * rng.normal(size=g) for g in ctx.grid.shape]
    comps[0][18] = 800.0
    got = poisson_marginals(ctx, 0.1, comps)
    assert got is not None
    for m in (*got.weight, *got.score, *got.pairs.values()):
        assert np.isfinite(m).all()
    assert_marginals_agree(got, oracle_marginals(ctx, 0.1, comps), 1e-13)


def _quasi_identity():
    """Identity link with a weight that depends on the iterate, which the
    Gaussian closed form must not take."""
    return QuasiFamily(
        name="quasi-identity", link=lambda m: m, mean=lambda u: u,
        link_deriv=np.ones_like, variance=lambda m: 1.0 + m * m,
        q2=lambda u, y: -(1.0 + u * (2.0 * y - u)) / (1.0 + u * u) ** 2,
        qll=lambda u, y: y * np.arctan(u) - 0.5 * np.log1p(u * u))


def test_only_gaussian_at_three_dims_takes_the_closed_form(monkeypatch):
    grid = Grid.uniform(3, 9)
    for fam in ("poisson", "bernoulli", _quasi_identity()):
        ds = sim_dataset(15, 60, 3, "gaussian" if isinstance(fam, QuasiFamily)
                         else fam)
        for prepare in (nw_prepare, ll_prepare):
            ctx = prepare(ds, 0.4, grid, fam)
            comps = [[np.zeros(9)] * 3] * (ctx.order + 1)
            assert identity_marginals(ctx, 0.1, *comps) is None
            assert "identity_moments" not in vars(ctx)
    # a Gaussian LL fit through the engine instead takes the same steps
    # and sweeps to the same curves
    ds = sim_dataset(15, 60, 3)
    closed = fit_ll(ds, 0.4, grid=grid)
    monkeypatch.setattr(LlContext, "producers", LlContext.producers[1:])
    engine = fit_ll(ds, 0.4, grid=grid)
    for fit in (closed, engine):
        assert fit.diagnostics.converged
    assert closed.diagnostics.outer_iterations \
        == engine.diagnostics.outer_iterations
    assert closed.diagnostics.inner_sweep_counts \
        == engine.diagnostics.inner_sweep_counts
    assert abs(closed.eta00 - engine.eta00) < 1e-13
    for a, b in ((closed.components0, engine.components0),
                 (closed.components1, engine.components1)):
        assert max(np.abs(u - v).max() for u, v in zip(a, b)) < 1e-13


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fits_that_never_stream_never_compute_windows(d):
    # the d <= 2 dense path and the closed forms read only the kernel
    # rows, and a Gaussian fit of either smoother takes a closed form; the
    # windows stay uncomputed, and LL builds no engine blocks
    ds = sim_dataset(17, 80, d)
    grid = Grid.uniform(d, 11)
    for prepare, fit_class, *parts in (
            (nw_prepare, NwFit, nw_marginals, nw_inner_solve,
             nw_outer_update),
            (ll_prepare, LlFit, ll_marginals, ll_inner_solve,
             ll_outer_update)):
        ctx = prepare(ds, 0.3, grid)
        fit = newton_fit(ctx, None, fit_class, *parts)
        assert fit.diagnostics.converged
        assert "windows" not in vars(ctx)
    assert "blocks" not in vars(ctx) and "workspace" not in vars(ctx)


@pytest.mark.parametrize("family", ["gaussian", "bernoulli", "poisson"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_nw_fits_never_build_the_regressor_offsets(family, d):
    # tvals lives on the shared context, but only order-1 paths read it:
    # the closed forms, the dense and streamed paths and the Poisson
    # producer of an NW fit go without it
    ctx = nw_prepare(sim_dataset(18, 80, d, family), 0.4,
                     Grid.uniform(d, 11), family)
    fit = newton_fit(ctx, None, NwFit, nw_marginals, nw_inner_solve,
                     nw_outer_update)
    assert fit.diagnostics.converged
    assert "tvals" not in vars(ctx)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("family, builds", [("gaussian", 0),
                                            ("bernoulli", 1)])
def test_dense_smooths_are_built_once_and_only_when_read(monkeypatch, d,
                                                         family, builds):
    # a Gaussian fit takes the closed form and never reads the dense
    # path's smooths; a Bernoulli fit reads them at every evaluation
    calls = []
    build = NwContext.dense_smooths.func

    def counted(ctx):
        calls.append(ctx)
        return build(ctx)

    prop = cached_property(counted)
    prop.__set_name__(NwContext, "dense_smooths")
    monkeypatch.setattr(NwContext, "dense_smooths", prop)
    fit = fit_nw(sim_dataset(19, 80, d, family), 0.3,
                 grid=Grid.uniform(d, 11), family=family)
    assert fit.diagnostics.converged
    assert fit.diagnostics.outer_iterations > builds
    assert len(calls) == builds


def test_gaussian_weight_total_is_one():
    # gaussian weights are the kernel density smooth, whose rows are
    # normalized, so the integrated weight is exactly 1
    ds = sim_dataset(1, 60, 2)
    ctx = nw_prepare(ds, 0.2, Grid.uniform(2, 21), "gaussian")
    marg = _nw_marginals_dense(ctx, 0.0, [np.zeros(21), np.zeros(21)])
    assert marg.mass == pytest.approx(1.0, abs=1e-14)


def test_bernoulli_weight_total_at_zero_predictor():
    # -q2 = m(1-m) = 1/4 along eta = 0, so the weight field is the
    # density smooth divided by 4
    ds = sim_dataset(2, 60, 1, "bernoulli")
    ctx = nw_prepare(ds, 0.2, Grid.uniform(1, 21), "bernoulli")
    marg = _nw_marginals_dense(ctx, 0.0, [np.zeros(21)])
    assert marg.mass == pytest.approx(0.25, abs=1e-14)


def _field_marginals(grid, W, S):
    """Order-0 marginals of a weight field W and a score field S on the
    grid, so the linearized system is exactly consistent."""
    d = grid.ndim
    return Marginals(
        grid=grid,
        weight=[integrate_tensor(W, grid, keep=(j,))[None]
                for j in range(d)],
        score=[integrate_tensor(S, grid, keep=(j,))[None]
               for j in range(d)],
        pairs={(a, b): integrate_tensor(W, grid, keep=(a, b))
               for a in range(d) for b in range(d) if a < b},
        sq=0.0,
    )


def _random_consistent_marginals(seed, grid):
    """Marginals of a random positive weight field and a random score."""
    rng = np.random.default_rng(seed)
    W = rng.uniform(0.5, 2.0, size=grid.shape)
    return _field_marginals(grid, W, rng.normal(size=grid.shape))


def _iterate_marginals(smoother, d, g):
    """Bernoulli marginals of either order at a random iterate: the NW
    router's, or the LL block engine's."""
    rng = np.random.default_rng([d, g])
    ds = sim_dataset(d, 100, d, "bernoulli")
    grid = Grid.uniform(d, g)
    comps = [0.3 * rng.normal(size=g) for _ in range(d)]
    if smoother == "nw":
        return nw_marginals(nw_prepare(ds, 0.3, grid, "bernoulli"), 0.1,
                            comps)
    slopes = [0.1 * rng.normal(size=g) for _ in range(d)]
    return ll_marginals(ll_prepare(ds, 0.3, grid, "bernoulli"), 0.1, comps,
                        slopes)


def test_inner_solver_matches_dense_solve():
    # random consistent order-0 marginals, then both orders at an iterate
    cases = [("random", 2, 11)] + [(s, d, g) for s in ("nw", "ll")
                                   for d, g in ((2, 11), (3, 7))]
    cfg = FitConfig(tol_inner=1e-14, max_inner=500)
    for smoother, d, g in cases:
        if smoother == "random":
            marg = _random_consistent_marginals(5, Grid.uniform(d, g))
        else:
            marg = _iterate_marginals(smoother, d, g)
        xi0, xi, changes = inner_solve(marg, cfg)
        ref0, refs = _solve_additive_system(
            marg.mass, marg.score_total, marg.weight, marg.score,
            marg.pairs, marg.grid,
        )
        case = (smoother, d, g)
        assert len(refs) == len(xi) == (2 if smoother == "ll" else 1), case
        assert xi0 == pytest.approx(ref0, abs=1e-10), case
        for got, ref in zip(xi, refs):
            for j in range(d):
                assert np.abs(got[j] - ref[j]).max() < 1e-10, (case, j)
        assert changes[-1] / changes[-2] < 1.0, case


def test_inner_solver_one_sweep_for_product_weights():
    # when the weight field factorizes, the cross terms vanish against
    # centered components and the uncoupled start is already the solution
    grid = Grid.uniform(2, 15)
    rng = np.random.default_rng(8)
    a = rng.uniform(0.5, 1.5, size=15)
    b = rng.uniform(0.5, 1.5, size=15)
    marg = _field_marginals(grid, np.outer(a, b), rng.normal(size=(15, 15)))
    _, _, changes = nw_inner_solve(marg, FitConfig())
    assert len(changes) == 1


def test_inner_solver_one_sweep_for_single_dimension():
    grid = Grid.uniform(1, 31)
    rng = np.random.default_rng(9)
    W = rng.uniform(0.5, 2.0, size=31)
    marg = _field_marginals(grid, W, rng.normal(size=31))
    _, (xi,), changes = nw_inner_solve(marg, FitConfig())
    assert len(changes) == 1
    assert abs(float(grid.weights[0] @ (xi[0] * W))) < 1e-14


def _estimating_residual(marg, grid, xi0, xi):
    """Largest residual of the linearized estimating equations and the
    centering constraints at the step (xi0, xi), assembled point by point
    from the moments: for every component j, regressor power a <= p and
    grid point g,

        sum_b W_j^{a+b} xi_j^b + W_j^a xi0
            + sum_{l != j, b, h} C_jl^{ab}[g, h] w_l[h] xi_l^b[h] = z_j^a,

    plus the integrated equation and sum_{a, g} w_j W_j^a xi_j^a = 0."""
    d, tw = grid.ndim, grid.weights
    k = len(xi)
    W, Z = marg.weight, marg.score
    res = [marg.score_total - marg.mass * xi0]
    for l in range(d):
        for b in range(k):
            for h in range(grid.shape[l]):
                res[0] -= tw[l][h] * W[l][b][h] * xi[b][l][h]
    for j in range(d):
        gj = grid.shape[j]
        constraint = 0.0
        for a in range(k):
            for g in range(gj):
                r = Z[j][a][g] - W[j][a][g] * xi0
                for b in range(k):
                    r -= W[j][a + b][g] * xi[b][j][g]
                for l in range(d):
                    if l == j:
                        continue
                    gl = grid.shape[l]
                    for b in range(k):
                        for h in range(gl):
                            if j < l:
                                c = marg.pairs[j, l][a * gj + g, b * gl + h]
                            else:
                                c = marg.pairs[l, j][b * gl + h, a * gj + g]
                            r -= c * tw[l][h] * xi[b][l][h]
                res.append(r)
                constraint += tw[j][g] * W[j][a][g] * xi[a][j][g]
        res.append(constraint)
    return max(abs(r) for r in res)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("order", [0, 1])
def test_one_solver_satisfies_the_estimating_equations(order, d):
    # marginals of both orders from random data at a random iterate, on
    # random grids; at NW d = 3, Bernoulli takes the streamed path and
    # Poisson the per-axis closed form
    assert nw_inner_solve is inner_solve and ll_inner_solve is inner_solve
    for family in ("bernoulli", "poisson"):
        rng = np.random.default_rng([order, d, len(family)])
        x = rng.uniform(-1, 1, size=(80, d))
        eta = 0.5 * np.sin(np.pi * x[:, 0])
        y = (rng.random(80) < expit(eta)).astype(float) \
            if family == "bernoulli" else rng.poisson(np.exp(eta)) * 1.0
        ds = Dataset.with_support(x, y, -1.0, 1.0)
        grid = random_grid(rng, d, 6)
        h = rng.uniform(0.4, 0.5, size=d)
        comps = [0.3 * rng.normal(size=g) for g in grid.shape]
        if order == 0:
            marg = nw_marginals(nw_prepare(ds, h, grid, family), 0.1, comps)
        else:
            slopes = [0.1 * rng.normal(size=g) for g in grid.shape]
            marg = ll_marginals(ll_prepare(ds, h, grid, family), 0.1, comps,
                                slopes)
        assert [w.shape for w in marg.weight] == [
            (2 * order + 1, g) for g in grid.shape]
        scale = max(float(np.abs(w).max()) for w in marg.weight)
        for tol in (1e-8, 1e-12):
            cfg = FitConfig(tol_inner=tol)
            xi0, xi, changes = inner_solve(marg, cfg)
            assert len(xi) == order + 1
            assert (len(changes) == 1) is (d == 1), (family, tol)
            resid = _estimating_residual(marg, grid, xi0, xi)
            assert resid < tol * scale, (family, tol, resid)
        # the constraints hold by construction only for consistent
        # marginals; the centering shift must enforce them regardless
        marg.score_total += 0.1 * marg.mass
        _, xi, _ = inner_solve(marg, FitConfig())
        for j in range(d):
            centered = marg.constraint(j, *(x[j] for x in xi))
            assert abs(centered) < 1e-14 * scale, (family, j)


def test_fit_matches_pointwise_newton_d1():
    for fam in ("gaussian", "bernoulli", "poisson"):
        ds = sim_dataset(3, 250, 1, fam)
        cfg = FitConfig(tol_outer=1e-11, tol_inner=1e-13, max_outer=60)
        fit = fit_nw(ds, 0.18, family=fam, config=cfg)
        theta, ok = newton_pointwise(ds, 0.18, family=fam)
        assert ok.all()
        pred = fit.eta0 + fit.components[0]
        assert np.abs(pred - theta).max() < 1e-8


def test_constant_response_gives_flat_fit():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, size=(50, 2))
    y = np.full(50, 3.0)
    ds = Dataset.with_support(x, y, -1, 1)
    fit = fit_nw(ds, 0.3)
    assert fit.eta0 == pytest.approx(3.0, abs=1e-10)
    for c in fit.components:
        assert np.abs(c).max() < 1e-10


def test_constraint_residuals_small_every_iteration():
    ds = sim_dataset(7, 150, 2, "bernoulli")
    fit = fit_nw(ds, 0.3, family="bernoulli")
    diag = fit.diagnostics
    assert len(diag.constraint_residuals) == diag.outer_iterations
    assert max(diag.constraint_residuals) < 1e-8 * diag.weight_total


def test_outer_changes_decrease_and_sq_increases():
    ds = sim_dataset(11, 200, 2, "poisson")
    fit = fit_nw(ds, 0.25, family="poisson")
    ch = fit.diagnostics.outer_changes
    assert all(b < a for a, b in zip(ch[1:-1], ch[2:]))
    sq = fit.diagnostics.sq_path
    assert sq[-1] >= sq[0]
    assert fit.diagnostics.residual_norm < 1e-6


def test_degenerate_weight_raises():
    # data concentrated near 0 leaves the far end of the grid empty
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.uniform(0, 0.25, 40), [1.0]])[:, None]
    y = rng.normal(size=41)
    ds = Dataset.with_support(x, y, 0.0, 1.0)
    with pytest.raises(DegenerateWeightError):
        fit_nw(ds, 0.05, grid=Grid.uniform(1, 41))


def test_nonconvergence_raises_with_history():
    ds = sim_dataset(13, 150, 2, "bernoulli")
    with pytest.raises(NonConvergenceError) as info:
        fit_nw(ds, 0.3, family="bernoulli", config=FitConfig(max_outer=1))
    assert len(info.value.history) == 1


def test_nonconvergence_names_the_loop_that_stopped():
    ds = sim_dataset(13, 150, 2, "bernoulli")
    with pytest.raises(NonConvergenceError) as outer:
        fit_nw(ds, 0.3, family="bernoulli", config=FitConfig(max_outer=1))
    assert outer.value.loop == "outer"
    with pytest.raises(NonConvergenceError) as inner:
        fit_nw(ds, 0.3, family="bernoulli", config=FitConfig(max_inner=1))
    assert inner.value.loop == "inner"
    assert len(inner.value.history) == 1


def test_initializer_error_for_degenerate_mean():
    x = np.linspace(-1, 1, 30)[:, None]
    y = np.zeros(30)
    ds = Dataset.with_support(x, y, -1, 1)
    with pytest.raises(InitializerError):
        fit_nw(ds, 0.3, family="poisson")


def test_residual_norm_shrinks_with_sample_size():
    # at the fitted predictor the score residual is numerically zero; a
    # cruder check of consistency: the fit at n=1600 is closer to the
    # truth than at n=100 for almost every seed
    errs = {100: [], 1600: []}
    for seed in range(5):
        for n in (100, 1600):
            ds = sim_dataset(20 + seed, n, 1)
            h = 0.4 * ds.x[:, 0].std(ddof=1) * n ** -0.2
            fit = fit_nw(ds, max(h, 0.05))
            g = fit.grid.points[0]
            truth = np.sin(np.pi * (2 * g - 1))
            truth = truth - fit.grid.weights[0] @ truth
            err = np.abs(fit.eta0 + fit.components[0]
                         - np.mean(ds.y) - truth)[3:-3].max()
            errs[n].append(err)
    assert np.median(errs[1600]) < np.median(errs[100])


def test_predict_and_component_at():
    ds = sim_dataset(14, 200, 2)
    fit = fit_nw(ds, 0.25)
    xq = np.array([[0.0, 0.3], [-0.5, -0.4]])   # original coordinates
    preds = fit.predict(xq)
    manual = fit.eta0
    for j in range(2):
        manual = manual + fit.component_at(j, (xq[:, j] + 1.0) / 2.0)
    assert np.abs(preds - manual).max() < 1e-12
    assert np.abs(fit.predict_mean(xq) - preds).max() < 1e-12
    field = fit.predictor_on_grid()
    assert field.shape == fit.grid.shape
    assert field[0, 0] == pytest.approx(
        fit.eta0 + fit.components[0][0] + fit.components[1][0], abs=1e-12)
    # out-of-support points clamp to the nearest edge of the box
    far = fit.predict(np.array([[9.0, 9.0]]))
    edge = fit.predict(np.array([[1.0, 1.0]]))
    assert far[0] == pytest.approx(edge[0], abs=1e-12)
