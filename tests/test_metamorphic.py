"""Metamorphic properties of both fitters.

Relabelling the data must not change a fit: permuting the observations
leaves it unchanged, permuting the covariate columns permutes its
components, and shifting a Gaussian response moves only the intercept.
Neither may restating it: duplicating every observation leaves the fit
unchanged, and so does an increasing affine map of the covariates when
they are rescaled by their observed range.  A fit that fails must fail
the same way after the change.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbgam import Dataset, FitConfig, Grid, fit_ll, fit_nw
from sbgam.errors import FitError
from sbgam.nw_fit import NwContext, _nw_marginals_streamed

FITTERS = {"nw": fit_nw, "ll": fit_ll}
FAMILIES = ("gaussian", "bernoulli", "poisson")
# tight enough that the order of the Gauss-Seidel sweep, which a column
# permutation changes, leaves no trace at the tolerances below
TIGHT = FitConfig(tol_outer=1e-10, tol_inner=1e-13, max_inner=400)


def _data(seed, n, d, family):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, d))
    eta = 0.2 + sum((0.6 / (j + 1)) * np.sin(np.pi * x[:, j])
                    for j in range(d))
    if family == "gaussian":
        y = eta + rng.normal(scale=0.4, size=n)
    elif family == "bernoulli":
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    else:
        y = rng.poisson(np.exp(eta)).astype(float)
    return x, y


def _fit(estimator, x, y, h, grid, family, config=None, ds=None):
    """(intercept, curves) of a fit, or the type of the error it raised.

    The covariates are rescaled by the support [-1, 1] unless a dataset
    is given.
    """
    if ds is None:
        ds = Dataset.with_support(x, y, -1.0, 1.0)
    try:
        fit = FITTERS[estimator](ds, h, grid=grid, family=family,
                                 config=config)
    except FitError as exc:
        return type(exc)
    return fit.intercept, fit.curves


def _gap(a, b):
    """Largest absolute difference of two (intercept, curves) results."""
    return max([abs(a[0] - b[0])]
               + [float(np.abs(p - q).max()) for p, q in zip(a[1], b[1])])


def _check_same(a, b, tol):
    if isinstance(a, type) or isinstance(b, type):
        assert a == b
    else:
        assert _gap(a, b) <= tol


def _permuted_rows(estimator, x, y, h, grid, family, seed):
    """Check the permuted fit against the fit of the data as given, and
    return the latter."""
    perm = np.random.default_rng(seed + 1).permutation(len(y))
    fit = _fit(estimator, x, y, h, grid, family)
    _check_same(fit, _fit(estimator, x[perm], y[perm], h, grid, family),
                1e-10)
    return fit


def _permuted_columns(estimator, x, y, h, grid, family, seed):
    d = x.shape[1]
    perm = np.random.default_rng(seed + 2).permutation(d)
    a = _fit(estimator, x, y, h, grid, family, TIGHT)
    b = _fit(estimator, x[:, perm], y, h[perm], grid, family, TIGHT)
    if not isinstance(a, type):
        a = (a[0], [a[1][p] for p in perm])
    _check_same(a, b, 1e-9)


def _shifted_response(estimator, x, y, h, grid, shift):
    a = _fit(estimator, x, y, h, grid, "gaussian")
    b = _fit(estimator, x, y + shift, h, grid, "gaussian")
    assert not isinstance(a, type) and not isinstance(b, type)
    assert _gap((a[0] + shift, a[1]), b) <= 1e-10


def _duplicated_rows(estimator, x, y, h, grid, family):
    # doubling n also changes how the LL marginals split into blocks
    _check_same(_fit(estimator, x, y, h, grid, family),
                _fit(estimator, np.tile(x, (2, 1)), np.tile(y, 2), h, grid,
                     family), 1e-10)


def _affine_covariates(estimator, x, y, h, grid, family, scale, offset):
    a = _fit(estimator, x, y, h, grid, family, ds=Dataset.from_raw(x, y))
    b = _fit(estimator, x, y, h, grid, family,
             ds=Dataset.from_raw(scale * x + offset, y))
    _check_same(a, b, 1e-10)


small = dict(
    estimator=st.sampled_from(sorted(FITTERS)),
    seed=st.integers(0, 10_000),
    n=st.integers(40, 200),
    g=st.integers(11, 21),
    h=st.floats(0.25, 0.4),
)


@settings(max_examples=15, deadline=None)
@given(family=st.sampled_from(FAMILIES), d=st.integers(1, 2), **small)
def test_permuting_observations_leaves_fit_unchanged(estimator, seed, n, g,
                                                     h, family, d):
    x, y = _data(seed, n, d, family)
    _permuted_rows(estimator, x, y, np.full(d, h), Grid.uniform(d, g),
                   family, seed)


@settings(max_examples=15, deadline=None)
@given(family=st.sampled_from(FAMILIES), h2=st.floats(0.25, 0.4), **small)
def test_permuting_columns_permutes_components(estimator, seed, n, g, h, h2,
                                               family):
    x, y = _data(seed, n, 2, family)
    _permuted_columns(estimator, x, y, np.array([h, h2]), Grid.uniform(2, g),
                      family, seed)


@settings(max_examples=15, deadline=None)
@given(d=st.integers(1, 2), shift=st.floats(-5.0, 5.0), **small)
def test_gaussian_shift_moves_only_intercept(estimator, seed, n, g, h, d,
                                             shift):
    x, y = _data(seed, n, d, "gaussian")
    _shifted_response(estimator, x, y, np.full(d, h), Grid.uniform(d, g),
                      shift)


@pytest.mark.parametrize("estimator", sorted(FITTERS))
def test_streamed_d3_metamorphic(estimator, monkeypatch):
    # at d = 3 the NW smoother streams the Bernoulli marginals over
    # kernel windows, where Poisson takes its closed form and the Gaussian
    # case the identity one; the LL smoother runs its block engine
    streamed = []

    def counted(*args, **kwargs):
        streamed.append(1)
        return _nw_marginals_streamed(*args, **kwargs)

    monkeypatch.setattr(NwContext, "producers", tuple(
        counted if p is _nw_marginals_streamed else p
        for p in NwContext.producers))
    h = np.array([0.3, 0.35, 0.4])
    grid = Grid.uniform(3, 11)
    for seed, family in ((3, "poisson"), (6, "bernoulli")):
        x, y = _data(seed, 60, 3, family)
        fit = _permuted_rows(estimator, x, y, h, grid, family, seed)
        assert not isinstance(fit, type), (family, fit)
        _permuted_columns(estimator, x, y, h, grid, family, seed)
    assert bool(streamed) == (estimator == "nw")
    xg, yg = _data(4, 60, 3, "gaussian")
    _shifted_response(estimator, xg, yg, h, grid, 2.5)


@settings(max_examples=15, deadline=None)
@given(family=st.sampled_from(FAMILIES), d=st.integers(1, 2), **small)
def test_duplicating_observations_leaves_fit_unchanged(estimator, seed, n, g,
                                                       h, family, d):
    x, y = _data(seed, n, d, family)
    _duplicated_rows(estimator, x, y, np.full(d, h), Grid.uniform(d, g),
                     family)


@settings(max_examples=15, deadline=None)
@given(family=st.sampled_from(FAMILIES), d=st.integers(1, 2),
       scale=st.floats(0.1, 10.0), offset=st.floats(-10.0, 10.0), **small)
def test_affine_covariate_map_leaves_fit_unchanged(estimator, seed, n, g, h,
                                                   family, d, scale, offset):
    x, y = _data(seed, n, d, family)
    _affine_covariates(estimator, x, y, np.full(d, h), Grid.uniform(d, g),
                       family, scale, offset)


@pytest.mark.parametrize("estimator", sorted(FITTERS))
def test_d3_duplicated_and_affine_metamorphic(estimator):
    x, y = _data(5, 60, 3, "poisson")
    h = np.array([0.3, 0.35, 0.4])
    grid = Grid.uniform(3, 11)
    _duplicated_rows(estimator, x, y, h, grid, "poisson")
    _affine_covariates(estimator, x, y, h, grid, "poisson", 2.5, -1.5)
