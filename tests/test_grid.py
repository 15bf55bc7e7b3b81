"""Grids, trapezoid integration, dataset rescaling, streamed marginals."""

import pickle
from dataclasses import fields

import numpy as np
import pytest

from sbgam.errors import InputError
from sbgam.grid import (Dataset, Grid, MarginalAccumulator,
                        default_bandwidths, integrate_tensor,
                        resolve_bandwidths, trapz_weights)
from sbgam.ll_fit import fit_ll
from sbgam.nw_fit import fit_nw


def test_trapz_weights_polynomial():
    g = np.linspace(0, 1, 41)
    w = trapz_weights(g)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    # trapezoid rule on x^2 with 41 points: exact value 1/3 plus the
    # known h^2/6 correction term
    assert w @ g ** 2 == pytest.approx(1.0 / 3.0 + 0.025 ** 2 / 6.0,
                                       abs=1e-15)
    # nonuniform spacing still integrates linear functions exactly
    gn = np.array([0.0, 0.1, 0.35, 0.6, 1.0])
    wn = trapz_weights(gn)
    assert wn @ gn == pytest.approx(0.5, abs=1e-15)


def test_grid_uniform_and_validation():
    g = Grid.uniform(2, 11)
    assert g.ndim == 2 and g.shape == (11, 11)
    assert g.points[0][0] == 0.0 and g.points[0][-1] == 1.0
    with pytest.raises(InputError):
        Grid.uniform(0)
    with pytest.raises(InputError):
        Grid.uniform(1, 4)
    # a bool dimension count or a float point count is not an integer
    for args in ((2, 41.0), (True, 41)):
        with pytest.raises(InputError, match="integer"):
            Grid.uniform(*args)
    with pytest.raises(InputError):
        Grid((np.array([0.0, 0.5, 0.4, 0.8, 1.0]),))
    # a fit takes a Grid with one axis per covariate; a list of point
    # vectors raised AttributeError
    ds = Dataset.from_raw(np.arange(16.0).reshape(8, 2), np.arange(8.0))
    for grid in ([np.linspace(0, 1, 11)] * 2, Grid.uniform(3, 11)):
        for fitter in (fit_nw, fit_ll):
            with pytest.raises(InputError, match="grid"):
                fitter(ds, 0.3, grid=grid)


def test_grid_shape_is_set_once():
    # shape is read inside per-iterate code: one tuple made at
    # construction, kept out of equality and repr like the weights
    g = Grid((np.linspace(0, 1, 7),
              np.array([0.0, 0.1, 0.3, 0.35, 0.5, 0.7, 0.8, 0.9, 1.0])))
    assert g.shape == (7, 9) and g.shape is g.shape
    assert [f.name for f in fields(Grid) if f.compare] == ["points"]
    assert repr(g) == f"Grid(points={g.points!r})"
    assert g == g
    assert pickle.loads(pickle.dumps(g)).shape == (7, 9)


def test_integrate_tensor_matches_iterated_trapz():
    g = Grid.uniform(3, 7)
    rng = np.random.default_rng(0)
    t = rng.normal(size=g.shape)
    total = integrate_tensor(t, g)
    by_hand = t
    for w in reversed(g.weights):
        by_hand = by_hand @ w
    assert total == pytest.approx(float(by_hand), abs=1e-14)
    keep0 = integrate_tensor(t, g, keep=(0,))
    assert keep0.shape == (7,)
    assert np.abs(keep0 - np.einsum("abc,b,c->a", t, *g.weights[1:])
                  ).max() < 1e-14
    keep02 = integrate_tensor(t, g, keep=(0, 2))
    assert np.abs(keep02 - np.einsum("abc,b->ac", t, g.weights[1])
                  ).max() < 1e-14


def _einsum_marginal(tensor, weights, keep):
    """Reference marginal: one np.einsum over every axis not kept."""
    args = [tensor, list(range(tensor.ndim))]
    for j, w in enumerate(weights):
        if j not in keep:
            args += [w, [j]]
    return np.einsum(*args, list(keep))


def test_integrate_tensor_on_window_weights():
    # random weights are not palindromic, unlike a uniform grid's, so a
    # reversed weight vector shows
    rng = np.random.default_rng(4)
    g = Grid(tuple(np.concatenate([[0.0], np.sort(rng.uniform(size=k)),
                                   [1.0]]) for k in (7, 5, 8)))
    lo, hi = (2, 0, 3), (6, 4, 9)
    window = tuple(slice(a, b) for a, b in zip(lo, hi))
    field = rng.normal(size=tuple(b - a for a, b in zip(lo, hi)))
    padded = np.zeros(g.shape)
    padded[window] = field
    wseg = [w[s] for w, s in zip(g.weights, window)]
    assert integrate_tensor(field, wseg) == pytest.approx(
        integrate_tensor(padded, g), abs=1e-14)
    for keep in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
        got = integrate_tensor(field, wseg, keep)
        kept = tuple(window[j] for j in keep)
        want = integrate_tensor(padded, g, keep)[kept]
        assert np.abs(got - want).max() < 1e-14, keep

    t = rng.normal(size=(4, 5, 3, 6))
    weights = [rng.uniform(0.1, 1.0, size=k) for k in t.shape]
    for keep in ([(j,) for j in range(4)]
                 + [(j, l) for j in range(4) for l in range(j + 1, 4)]):
        got = integrate_tensor(t, weights, keep)
        assert np.abs(got - _einsum_marginal(t, weights, keep)).max() < 1e-14
    assert integrate_tensor(t, weights) == pytest.approx(
        float(_einsum_marginal(t, weights, ())), abs=1e-14)


def test_fubini_consistency():
    # integrating a marginal curve equals the total integral
    g = Grid.uniform(2, 21)
    rng = np.random.default_rng(3)
    t = rng.uniform(0.5, 1.5, size=g.shape)
    total = integrate_tensor(t, g)
    for j in range(2):
        curve = integrate_tensor(t, g, keep=(j,))
        assert g.weights[j] @ curve == pytest.approx(total, abs=1e-14)


def test_dataset_from_raw_rescales():
    rng = np.random.default_rng(1)
    x = rng.uniform(-3, 5, size=(40, 2))
    y = rng.normal(size=40)
    ds = Dataset.from_raw(x, y)
    assert ds.x.min() == 0.0 and ds.x.max() == 1.0
    for j in range(2):
        back = ds.to_original(ds.x[:, j], j)
        assert np.abs(back - x[:, j]).max() < 1e-12
        there = ds.from_original(x[:, j], j)
        assert np.abs(there - ds.x[:, j]).max() < 1e-12


def test_dataset_rejects_constant_column():
    x = np.ones((20, 2))
    x[:, 0] = np.linspace(0, 1, 20)
    with pytest.raises(InputError, match="column 2"):
        Dataset.from_raw(x, np.zeros(20))


def test_dataset_with_support():
    x = np.array([[-1.0], [0.0], [1.0]])
    ds = Dataset.with_support(x, np.zeros(3), -1.0, 1.0)
    assert np.abs(ds.x[:, 0] - [0.0, 0.5, 1.0]).max() < 1e-15
    with pytest.raises(InputError):
        Dataset.with_support(np.array([[2.0]]), np.zeros(1), -1.0, 1.0)


@pytest.mark.parametrize("lo, hi", [
    (-1.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0),
    ([-1.0, -1.0], [1.0, np.nan]),
])
def test_dataset_with_support_rejects_non_finite_bounds(lo, hi):
    # hi = inf rescales every covariate to 0 and lo = -inf to nan; either
    # would surface much later as a bandwidth or covariate error
    x = np.array([[-0.5, 0.2], [0.0, 0.4], [0.5, 0.1]])
    with pytest.raises(InputError, match="support bounds must be finite"):
        Dataset.with_support(x, np.zeros(3), lo, hi)


@pytest.mark.parametrize("build", [
    lambda: Dataset.with_support(np.array([[0.0], [0.5], [1.0]]),
                                 ["a", "b", "c"], 0, 1),
    lambda: Dataset.with_support([["a"], ["b"]], np.zeros(2), 0, 1),
    lambda: Dataset.with_support(np.zeros((2, 1)), np.zeros(2), "lo", 1),
    lambda: Dataset.from_raw(np.array([[0.0], [1.0]]), ["x", "y"]),
    lambda: Dataset.from_raw([[0.0], [object()]], np.zeros(2)),
    lambda: Dataset(y=np.zeros(2), x=[["a"], ["b"]], lo=0.0, hi=1.0),
    lambda: Dataset(y=np.zeros(2), x=np.zeros((2, 1)), lo="a", hi=1.0),
    lambda: resolve_bandwidths(["wide"], 1),
    lambda: fit_nw(Dataset.from_raw(np.arange(8.0), np.arange(8.0)), "abc"),
    lambda: Grid(points=(["a", "b", "c", "d", "e"],)),
    lambda: fit_nw(Dataset.from_raw(np.arange(16.0).reshape(8, 2),
                                    np.arange(8.0)), 0.4).predict([["a", "b"]]),
], ids=["y-support", "x-support", "bound", "y-raw", "x-object", "x-init",
        "bound-init", "bandwidth", "fit-bandwidth", "grid-points",
        "predict-rows"])
def test_non_numeric_inputs_raise_input_error(build):
    # each let numpy's ValueError or TypeError through before
    with pytest.raises(InputError, match="must be numeric"):
        build()


def test_dataset_validation():
    with pytest.raises(InputError):
        Dataset.from_raw(np.zeros((1, 1)), np.zeros(1))
    with pytest.raises(InputError):
        Dataset.from_raw(np.array([[0.0], [np.nan]]), np.zeros(2))
    with pytest.raises(InputError):
        Dataset.from_raw(np.zeros((3, 1, 1)), np.zeros(3))


def _init(x, y, lo, hi):
    """The constructor, on covariates already rescaled to [0, 1]."""
    return Dataset(y=y, x=x, lo=lo, hi=hi)


@pytest.mark.parametrize("make, x, lo, hi, match", [
    (Dataset.with_support, np.zeros((3, 2)), [0.0, 0.0, 0.0], 1.0,
     "support bounds lo"),
    (Dataset.with_support, np.zeros((3, 2)), [[-1.0, -1.0]], 1.0,
     "support bounds lo"),
    (Dataset.with_support, np.float64(0.5), -1.0, 1.0, "matrix"),
    (Dataset.with_support, np.zeros((2, 3, 2)), -1.0, 1.0, "matrix"),
    (Dataset.with_support, np.zeros((0, 2)), -1.0, 1.0,
     "at least two observations"),
    (Dataset.with_support, np.zeros(0), -1.0, 1.0,
     "at least two observations"),
    (_init, np.zeros((3, 2)), [0.0, 0.0, 0.0], 1.0, "support bounds lo"),
    (_init, np.zeros((3, 2)), 0.0, [1.0, 1.0, 1.0], "support bounds hi"),
    (_init, np.zeros((3, 2)), 0.0, [1.0, 0.0], "hi > lo"),
    (_init, np.zeros((3, 2)), [0.0, np.nan], 1.0, "must be finite"),
    (_init, np.zeros((3, 0)), 0.0, 1.0, "matrix"),
], ids=["bounds-too-long", "bounds-2d", "x-0d", "x-3d", "no-rows",
        "empty-vector", "init-bounds-too-long", "init-hi-too-long",
        "init-bounds-reversed", "init-bounds-nan", "init-no-columns"])
def test_dataset_with_support_rejects_malformed_inputs(make, x, lo, hi,
                                                       match):
    # each ended in numpy's own ValueError or IndexError before; the
    # constructor took the bounds and left the error to `predict`
    with pytest.raises(InputError, match=match):
        make(x, np.zeros(np.shape(x)[:1]), lo, hi)


def test_dataset_takes_one_support_bound_for_every_covariate():
    # lo=[0] and hi=[1] at d = 2 ended in IndexError in `predict`
    rng = np.random.default_rng(3)
    ds = Dataset(y=rng.normal(size=40), x=rng.uniform(size=(40, 2)),
                 lo=[0.0], hi=[1.0])
    assert ds.lo.tolist() == [0.0, 0.0] and ds.hi.tolist() == [1.0, 1.0]
    assert np.isfinite(fit_nw(ds, 0.4).predict([0.5, 0.5])).all()


@pytest.mark.parametrize("x, match", [
    (np.float64(0.5), "matrix"),
    (np.zeros((2, 3, 2)), "matrix"),
    (np.zeros((0, 2)), "at least two observations"),
    (np.zeros((3, 0)), "matrix"),
], ids=["x-0d", "x-3d", "no-rows", "no-columns"])
def test_dataset_from_raw_rejects_malformed_inputs(x, match):
    # a (2, 3, 2) array was blamed on "column 1 is constant", and zero
    # rows ended in numpy's empty-reduction ValueError
    with pytest.raises(InputError, match=match):
        Dataset.from_raw(x, np.zeros(np.shape(x)[:1]))


@pytest.mark.parametrize("make", [
    Dataset.from_raw,
    lambda x, y: Dataset.with_support(x, y, -1e308, 1e308),
], ids=["from-raw", "with-support"])
def test_dataset_rescaling_keeps_the_constructor_checks(make):
    # both build without __post_init__, so they check the responses and
    # the rescaled covariates themselves; a span of 2e308 overflows to
    # inf, and the largest covariate rescales to inf / inf
    x = np.array([[-1e308], [0.0], [1e308]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InputError, match=r"\(2,\) does not match 3"):
            make(x, np.zeros(2))
        with pytest.raises(InputError, match="non-finite"):
            make(x, np.zeros(3))


def test_default_bandwidths():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, size=(200, 3))
    h = default_bandwidths(x)
    assert h.shape == (3,)
    expect = x.std(axis=0, ddof=1) * 200 ** -0.2
    assert np.abs(h - expect).max() < 1e-12
    assert (default_bandwidths(x, c=100.0) == 0.5).all()


@pytest.mark.parametrize("c", [0.0, -1.0, np.nan, np.inf])
def test_bandwidth_scale_must_be_finite_and_positive(c):
    # 0 and -1 used to give the 1e-4 floor, which the fit then blamed on
    # the grid; inf silently gave 0.5.  Both entry points share the check
    x = np.random.default_rng(3).uniform(size=(50, 2))
    for call in (lambda: default_bandwidths(x, c=c),
                 lambda: resolve_bandwidths(0.3, 2, c),
                 lambda: resolve_bandwidths(None, 2, c)):
        with pytest.raises(InputError,
                           match="bandwidth scale must be finite and "
                                 "positive"):
            call()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_streamed_marginals_match_dense(d):
    rng = np.random.default_rng(10 + d)
    g = Grid.uniform(d, 11)
    pairs = [(a, b) for a in range(d) for b in range(d) if a < b]
    acc = MarginalAccumulator(g, curve_dims=range(d), pair_dims=pairs)
    dense = np.zeros(g.shape)
    for _ in range(9):
        lo = [int(rng.integers(0, 6)) for _ in range(d)]
        hi = [int(l + rng.integers(2, 6)) for l in lo]
        field = rng.uniform(-1.0, 2.0, size=tuple(b - a
                                                  for a, b in zip(lo, hi)))
        acc.add(lo, hi, field)
        dense[tuple(slice(a, b) for a, b in zip(lo, hi))] += field
    # the reference is np.einsum on the dense field, independent of
    # integrate_tensor, which the accumulator calls
    for j in range(d):
        assert np.abs(acc.curves[j] - _einsum_marginal(dense, g.weights, (j,))
                      ).max() < 1e-12
    for pr in pairs:
        assert np.abs(acc.pairs[pr] - _einsum_marginal(dense, g.weights, pr)
                      ).max() < 1e-12
