"""The evaluation after the last Newton step leaves out the pair moments.

No inner solve follows it, so the producers that build their pairs per
iterate (the LL block engine and the Poisson closed form) skip them when
the router passes pairs=False.  Everything else they return must not
change by a bit, and neither must any fit.
"""

from dataclasses import replace
from math import prod

import numpy as np
import pytest

from sbgam import ll_fit, nw_fit
from sbgam.backfit import FitConfig, inner_solve, poisson_marginals
from sbgam.errors import NonConvergenceError
from sbgam.grid import Grid
from sbgam.ll_fit import _block_marginals, fit_ll, ll_prepare
from sbgam.nw_fit import fit_nw, nw_prepare
from test_ll import (_logit_context, _quasi_gamma, _quasi_logit,
                     _random_iterate, _refuse, _sim_dataset)
from test_nw import _poisson_inputs


def _assert_same_but_pairs(bare, full):
    """bare, evaluated with pairs=False, equals full but for its pairs."""
    assert bare.pairs is None and full.pairs is not None
    for nm in ("weight", "score"):
        got, want = getattr(bare, nm), getattr(full, nm)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), nm
    for nm in ("sq", "mass", "score_total"):
        assert getattr(bare, nm) == getattr(full, nm), nm


def _engine_case(front, d):
    rng = np.random.default_rng([31, d, len(front)])
    ctx = _logit_context(rng, d)
    cells = prod(int((hi - lo).max()) for lo, hi in ctx.windows)
    eta00, c0, c1 = _random_iterate(rng, ctx)
    if front == "bound":
        # just past the clamp bound: the generic front end runs
        span = sum(float((np.abs(a) + np.abs(b)).max())
                   for a, b in zip(c0, c1))
        eta00 = 30.0 - span + 1e-9
        assert ll_fit._logit_bounds(ctx, eta00, c0, c1) is None
    elif front == "quasi-logit":
        ctx = ll_prepare(ctx.dataset, ctx.bandwidths, ctx.grid,
                         _quasi_logit())
    elif front == "quasi-gamma":
        # a positive response, as the quasi-gamma weight y e^-u needs
        ds = replace(ctx.dataset, y=ctx.dataset.y + 0.5)
        ctx = ll_prepare(ds, ctx.bandwidths, ctx.grid, _quasi_gamma())
    else:
        assert ll_fit._logit_bounds(ctx, eta00, c0, c1) is not None
    return ctx, cells, (eta00, c0, c1)


@pytest.mark.parametrize("front", ["logit", "bound", "quasi-logit",
                                   "quasi-gamma"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_engine_without_pairs_matches_the_full_evaluation(front, d,
                                                          monkeypatch):
    ctx, cells, iterate = _engine_case(front, d)
    # ragged blocks, so the pair work of more than one block is skipped
    monkeypatch.setattr(ll_fit, "BLOCK_CELLS", 3 * cells + cells // 2)
    ctx = ll_prepare(ctx.dataset, ctx.bandwidths, ctx.grid, ctx.family)
    assert len(ctx.blocks) > 1
    full = _block_marginals(ctx, *iterate)
    # without the pairs no pair product is formed, and only the surfaces
    # (0, l) that give the window curves are integrated
    kept = []
    integrate = ll_fit._integrate_out

    def recording(field, wts, keep):
        kept.append(tuple(keep))
        return integrate(field, wts, keep)

    monkeypatch.setattr(ll_fit, "_pair_moments", _refuse)
    monkeypatch.setattr(ll_fit, "_integrate_out", recording)
    bare = _block_marginals(ctx, *iterate, pairs=False)
    _assert_same_but_pairs(bare, full)
    assert set(kept) <= {(0, l) for l in range(1, d)} | {()}
    if d > 1:
        assert {(0, l) for l in range(1, d)} <= set(kept)
    # the router passes the flag on
    _assert_same_but_pairs(ll_fit.ll_marginals(ctx, *iterate, pairs=False),
                           full)


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_poisson_without_pairs_matches_the_full_evaluation(d, order):
    rng = np.random.default_rng([32, d, order])
    ds, h, grid = _poisson_inputs(rng, d)
    ctx = (nw_prepare if order == 0 else ll_prepare)(ds, h, grid, "poisson")
    iterate = [0.2] + [[0.3 * rng.normal(size=g) for g in grid.shape]
                       for _ in range(order + 1)]
    full = poisson_marginals(ctx, *iterate)
    _assert_same_but_pairs(poisson_marginals(ctx, *iterate, pairs=False),
                           full)
    assert len(full.pairs) == d * (d - 1) // 2


def test_inner_solve_rejects_marginals_without_pairs():
    ctx = ll_prepare(_sim_dataset(2, 60, 2, "bernoulli"), 0.4,
                     Grid.uniform(2, 11), "bernoulli")
    iterate = (0.1, [np.zeros(11)] * 2, [np.full(11, 0.1)] * 2)
    bare = _block_marginals(ctx, *iterate, pairs=False)
    with pytest.raises(ValueError, match="pairs=False"):
        inner_solve(bare, FitConfig())
    inner_solve(_block_marginals(ctx, *iterate), FitConfig())


FAMILIES = ["bernoulli", "poisson", "gaussian", "quasi-gamma"]


def _fit_inputs(family, d, seed=4):
    ds = _sim_dataset(seed, 150, d, family)
    grid = Grid.uniform(d, 15 if d < 3 else 9)
    return ds, grid, _quasi_gamma() if family == "quasi-gamma" else family


def _fit(est, family, d):
    ds, grid, fam = _fit_inputs(family, d)
    return (fit_nw if est == "nw" else fit_ll)(ds, 0.4, grid=grid, family=fam)


def _assert_same_fit(got, want):
    """Everything newton_fit returns, to the bit."""
    assert got.intercept == want.intercept
    curves = [(got.curves, want.curves)]
    if hasattr(want, "components1"):
        curves.append((got.components1, want.components1))
    for gs, ws in curves:
        assert len(gs) == len(ws)
        for g, w in zip(gs, ws):
            assert np.array_equal(g, w)
    a, b = got.diagnostics, want.diagnostics
    for nm in ("converged", "outer_iterations", "outer_changes",
               "inner_sweep_counts", "inner_contractions",
               "inner_change_histories", "constraint_residuals", "sq_path",
               "weight_total", "residual_norm"):
        assert getattr(a, nm) == getattr(b, nm), nm


class _RouterCalls(list):
    """The pairs flag of every call through each smoother's router; with
    force_pairs set, the router is passed pairs=True whatever it asked."""

    force_pairs = False


@pytest.fixture
def router_calls(monkeypatch):
    flags = _RouterCalls()
    for module, name in ((nw_fit, "nw_marginals"), (ll_fit, "ll_marginals")):
        route = getattr(module, name)

        def recording(*args, _route=route, pairs=True):
            flags.append(pairs)
            return _route(*args, pairs=pairs or flags.force_pairs)

        monkeypatch.setattr(module, name, recording)
    return flags


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("est", ["nw", "ll"])
def test_fit_with_a_pairless_last_evaluation_is_unchanged(
        est, family, d, router_calls):
    fit = _fit(est, family, d)
    steps = fit.diagnostics.outer_iterations
    # only the last evaluation goes without pairs
    assert router_calls == [True] * steps + [False]
    router_calls.clear()
    router_calls.force_pairs = True
    want = _fit(est, family, d)
    assert router_calls == [True] * steps + [False]
    _assert_same_fit(fit, want)


@pytest.mark.parametrize("est, family, d, damping", [
    ("ll", "bernoulli", 2, 1.0), ("ll", "poisson", 3, 0.5),
    ("nw", "bernoulli", 3, 0.5), ("ll", "quasi-gamma", 1, 1.0)])
def test_pairs_are_left_out_only_after_the_step_that_stops_the_loop(
        est, family, d, damping, router_calls):
    ds, grid, fam = _fit_inputs(family, d)
    fitter = fit_nw if est == "nw" else fit_ll
    config = FitConfig(damping=damping)
    diag = fitter(ds, 0.4, grid=grid, family=fam, config=config).diagnostics
    # the start, then one evaluation per step: the one after the step
    # whose recorded change is the first below tol_outer goes without
    # pairs, and it is the last
    below = [c < config.tol_outer for c in diag.outer_changes]
    assert diag.converged and below == [False] * (len(below) - 1) + [True]
    assert router_calls == [True] + [not b for b in below]
    # a fit stopped by max_outer never leaves them out
    router_calls.clear()
    short = replace(config, max_outer=len(below) - 1)
    with pytest.raises(NonConvergenceError, match="Newton steps") as info:
        fitter(ds, 0.4, grid=grid, family=fam, config=short)
    assert info.value.history == diag.outer_changes[:-1]
    assert router_calls == [True] * len(below)
