"""Data, families and oracle checks shared by the fitter tests: the
reference for every marginals producer is `oracle_marginals`, and for
every converged fit `newton_oracle_gap`."""

import numpy as np
from scipy.special import expit

from sbgam.backfit import Marginals
from sbgam.family import QuasiFamily, get_family
from sbgam.grid import Dataset, Grid
from sbgam.ll_fit import LlFit, ll_prepare
from sbgam.oracles import dense_marginals, dense_newton


def sim_dataset(seed, n, d, family="gaussian"):
    """Data on [-1, 1]^d with predictor sin(pi x_1) + x_2 / 2."""
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


def quasi_gamma():
    """Log link with variance m^2, a non-canonical pair: the weight
    -q2 = y exp(-u) depends on the response, and `fields` is generic."""
    return QuasiFamily(
        name="quasi-gamma", link=np.log, mean=np.exp,
        link_deriv=lambda m: 1.0 / m, variance=lambda m: m * m,
        q2=lambda u, y: -y * np.exp(-u),
        qll=lambda u, y: -y * np.exp(-u) - u,
        clamp_lo=-30.0, clamp_hi=30.0)


def quasi_logit():
    """The logit family as a QuasiFamily: the engine evaluates it through
    `fields` on the predictor, never from per-axis exponentials."""
    return QuasiFamily(
        name="quasi-logit", link=lambda m: np.log(m) - np.log1p(-m),
        mean=expit, link_deriv=lambda m: 1.0 / (m * (1.0 - m)),
        variance=lambda m: m * (1.0 - m),
        q2=lambda u, y: -expit(u) * expit(-u),
        qll=lambda u, y: y * u - np.logaddexp(0.0, u),
        clamp_lo=-30.0, clamp_hi=30.0)


def refuse(*args):
    raise AssertionError("this front end must not run")


def random_grid(rng, d, fewest):
    """Grid on [0, 1]^d, fewest to fewest + 5 random interior points."""
    pts = []
    for _ in range(d):
        inner = np.sort(rng.uniform(0.0, 1.0,
                                    int(rng.integers(fewest, fewest + 6))))
        pts.append(np.concatenate([[0.0], inner, [1.0]]))
    return Grid(tuple(pts))


def poisson_inputs(rng, d, n=40):
    """Poisson data with a quarter of the points near the edges, where
    windows are cut, random bandwidths and a random non-uniform grid."""
    x = rng.uniform(-1, 1, size=(n, d))
    x[: n // 4] = np.sign(x[: n // 4]) * rng.uniform(0.85, 1.0, (n // 4, d))
    y = rng.poisson(np.exp(0.5 * np.sin(np.pi * x[:, 0]))).astype(float)
    return (Dataset.with_support(x, y, -1.0, 1.0),
            rng.uniform(0.25, 0.45, size=d), random_grid(rng, d, 6))


def uncovered_point_inputs(rng, n=40):
    """Poisson data on [0, 1]^3 whose x_1 stays in [0, 0.5]: with h = 0.1
    on 21 points, grid point 18 of x_1 (0.9) lies in no window."""
    x = rng.uniform(0.0, 1.0, size=(n, 3))
    x[:, 0] *= 0.5
    y = rng.poisson(np.exp(0.5 * np.sin(np.pi * x[:, 0]))).astype(float)
    return Dataset.with_support(x, y, 0.0, 1.0), 0.1, Grid.uniform(3, 21)


def logit_context(rng, d, n=40, kernel="epanechnikov"):
    """Bernoulli data with a quarter of the points near the edges, random
    bandwidths and a random non-uniform grid."""
    x = rng.uniform(-1, 1, size=(n, d))
    x[: n // 4] = np.sign(x[: n // 4]) * rng.uniform(0.85, 1.0, (n // 4, d))
    y = (rng.random(n) < expit(np.sin(np.pi * x[:, 0]))).astype(float)
    return ll_prepare(Dataset.with_support(x, y, -1.0, 1.0),
                      rng.uniform(0.25, 0.45, size=d),
                      random_grid(rng, d, 7), "bernoulli", kernel)


def random_iterate(rng, ctx, scale=1.0):
    """An order-1 iterate (eta00, curves, slopes) on ctx's grid."""
    return (float(rng.normal()),
            [scale * 0.5 * rng.normal(size=g) for g in ctx.grid.shape],
            [scale * 0.3 * rng.normal(size=g) for g in ctx.grid.shape])


def oracle_marginals(ctx, eta0, *curves):
    """`oracles.dense_marginals` at a fitter context's data, bandwidths,
    grid, family and kernel, as a `backfit.Marginals`."""
    *_, weight, score, pairs, sq = dense_marginals(
        ctx.dataset, ctx.bandwidths, ctx.grid, ctx.family, ctx.kernel, eta0,
        list(curves))
    return Marginals(grid=ctx.grid, weight=weight, score=score, pairs=pairs,
                     sq=sq)


def newton_oracle_gap(fit, dataset):
    """Largest gap of a fit's intercept, curves and, for a local linear
    fit, slope curves to `oracles.dense_newton` of its data, bandwidths,
    grid, family and kernel."""
    blocks = [fit.curves] + ([fit.components1] if isinstance(fit, LlFit)
                             else [])
    const, curves = dense_newton(dataset, fit.bandwidths, fit.grid,
                                 fit.family, fit.kernel, len(blocks) - 1)
    assert [len(b) for b in blocks] == [len(c) for c in curves]
    return max([abs(fit.intercept - const)]
               + [float(np.abs(a - b).max())
                  for got, want in zip(blocks, curves)
                  for a, b in zip(got, want)])


def assert_matches_oracle(producer, ctx, *iterate):
    """producer(ctx, *iterate) within 1e-13 of the oracle's marginals."""
    assert_marginals_agree(producer(ctx, *iterate),
                           oracle_marginals(ctx, *iterate), atol=1e-13)


def assert_marginals_agree(got, want, rtol=0.0, atol=0.0):
    """Every field of got within atol plus rtol times want's scale (an
    array field's largest entry; for the scalars the larger of the value
    and the weight mass), with the same shapes and pair keys.  With no
    tolerance, got equals want to the bit."""
    for nm in ("mass", "score_total", "sq"):
        g, w = getattr(got, nm), getattr(want, nm)
        assert abs(g - w) <= atol + rtol * max(abs(w), want.mass), nm
    assert got.pairs.keys() == want.pairs.keys()
    fields = [("pairs", key, got.pairs[key], w)
              for key, w in want.pairs.items()]
    for nm in ("weight", "score"):
        assert len(getattr(got, nm)) == len(getattr(want, nm)), nm
        fields += [(nm, j, g, w) for j, (g, w) in
                   enumerate(zip(getattr(got, nm), getattr(want, nm)))]
    for nm, key, g, w in fields:
        assert g.shape == w.shape, (nm, key)
        assert np.abs(g - w).max() <= atol + rtol * np.abs(w).max(), (nm, key)
