"""Quasi-likelihood families: derivatives, identities, clamping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from sbgam import family
from sbgam.errors import InputError
from helpers import quasi_gamma

FAMILIES = ("gaussian", "bernoulli", "poisson")


# responses at the boundaries of each family's range and inside it
FIELD_CASES = {
    "gaussian": (family.get_family("gaussian"), (-2.0, 0.0, 1.7)),
    "bernoulli": (family.get_family("bernoulli"), (0.0, 0.3, 1.0)),
    "poisson": (family.get_family("poisson"), (0.0, 1.0, 4.0)),
    "quasi-gamma": (quasi_gamma(), (0.5, 1.0, 3.0)),
}


def test_probe_values():
    g = family.get_family("gaussian")
    assert g.q1(np.array([1.0]), np.array([2.0]))[0] == pytest.approx(1.0)
    assert g.q2(np.array([1.0]), np.array([2.0]))[0] == pytest.approx(-1.0)
    b = family.get_family("bernoulli")
    assert b.q1(np.array([0.0]), np.array([1.0]))[0] == pytest.approx(0.5)
    assert b.q2(np.array([0.0]), np.array([0.0]))[0] == pytest.approx(-0.25)
    p = family.get_family("poisson")
    assert p.q1(np.array([0.0]), np.array([2.0]))[0] == pytest.approx(1.0)
    assert p.q2(np.array([0.0]), np.array([5.0]))[0] == pytest.approx(-1.0)


@pytest.mark.parametrize("name", FAMILIES)
def test_q2_is_central_difference_of_q1(name):
    fam = family.get_family(name)
    step = 1e-5
    u = np.linspace(-4.0, 4.0, 33)
    ys = {"gaussian": (-2.0, 0.0, 1.7),
          "bernoulli": (0.0, 1.0),
          "poisson": (0.0, 1.0, 4.0)}[name]
    for y in ys:
        yv = np.full_like(u, y)
        fd = (fam.q1(u + step, yv) - fam.q1(u - step, yv)) / (2 * step)
        q2 = fam.q2(u, yv)
        rel = np.abs(fd - q2) / np.maximum(np.abs(q2), 1e-8)
        assert rel.max() < 1e-6


@pytest.mark.parametrize("name", FAMILIES)
def test_q1_is_central_difference_of_qll(name):
    fam = family.get_family(name)
    step = 1e-6
    u = np.linspace(-3.0, 3.0, 25)
    y = np.full_like(u, 1.0)
    fd = (fam.qll(u + step, y) - fam.qll(u - step, y)) / (2 * step)
    assert np.abs(fd - fam.q1(u, y)).max() < 1e-6


@pytest.mark.parametrize("name", FAMILIES)
def test_q2_strictly_negative(name):
    fam = family.get_family(name)
    u = np.linspace(-20, 20, 101)
    for y in (0.0, 1.0, 3.0):
        assert (fam.q2(u, np.full_like(u, y)) < 0).all()


@pytest.mark.parametrize("name", sorted(FIELD_CASES))
def test_psi_identity(name):
    # psi(u) = -q2(u, g^{-1}(u)) = 1 / (V(m) g'(m)^2); the quasi-gamma
    # pair is not canonical, so 1 / (V(m) g'(m)) would be e^{-u}, not 1
    fam = FIELD_CASES[name][0]
    u = np.linspace(-5, 5, 41)
    m = fam.mean(u)
    direct = 1.0 / (fam.variance(m) * fam.link_deriv(m) ** 2)
    assert np.abs(fam.psi(u) - direct).max() < 1e-12
    assert np.abs(fam.psi(u) + fam.q2(u, m)).max() < 1e-12


@pytest.mark.parametrize("name", sorted(FIELD_CASES))
def test_affine_decompositions(name):
    fam = FIELD_CASES[name][0]
    u = np.linspace(-6, 6, 31)
    for y in (0.0, 1.0, 2.5):
        yv = np.full_like(u, y)
        c, d, cp, dp = fam.score_weight_pieces(u)
        assert np.abs(fam.q1(u, yv) - (yv * c - d)).max() < 1e-12
        assert np.abs(fam.q2(u, yv) - (yv * cp - dp)).max() < 1e-12
        # what Q leaves over is the same at every u: a term in y alone
        A, B = fam.qll_pieces(u)
        rest = fam.qll(u, yv) - (yv * A - B)
        assert np.abs(rest - rest[0]).max() < 1e-10


@pytest.mark.parametrize("name", sorted(FIELD_CASES))
def test_fields_at_the_weighted_mean_response(name):
    # the dense local constant path evaluates each field once, at the
    # kernel-local mean response: sum_i a_i f(u, y_i) = A f(u, ybar)
    fam, ys = FIELD_CASES[name]
    rng = np.random.default_rng(len(name))
    y = rng.choice(ys, size=25)[:, None]
    a = rng.uniform(0.0, 2.0, size=y.shape)
    total = a.sum()
    ybar = np.array([(a * y).sum() / total])
    u = np.linspace(-6, 6, 31)[None, :]
    summed = [(a * f).sum(axis=0) for f in fam.fields(u, y)]
    at_mean = [total * f for f in fam.fields(u, ybar)]
    # Q after its y-only term is removed by differencing at u = 0
    summed[2] -= (a * fam.fields(0.0, y)[2]).sum()
    at_mean[2] -= total * fam.fields(0.0, ybar)[2]
    for got, want in zip(summed, at_mean):
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def test_mean_link_roundtrip():
    for name in FAMILIES:
        fam = family.get_family(name)
        u = np.linspace(-3, 3, 17)
        assert np.abs(fam.link(fam.mean(u)) - u).max() < 1e-9


def test_clamping_keeps_weights_finite():
    b = family.get_family("bernoulli")
    big = np.array([1e4, -1e4])
    assert np.isfinite(b.q1(big, np.array([1.0, 0.0]))).all()
    assert np.isfinite(b.q2(big, np.array([1.0, 0.0]))).all()
    p = family.get_family("poisson")
    assert np.isfinite(p.q2(np.array([1e3]), np.array([2.0]))).all()


def test_response_validation():
    b = family.get_family("bernoulli")
    with pytest.raises(InputError):
        b.validate_response(np.array([0.0, 0.5, 2.0]))
    p = family.get_family("poisson")
    with pytest.raises(InputError):
        p.validate_response(np.array([1.0, -2.0]))
    g = family.get_family("gaussian")
    g.validate_response(np.array([-5.0, 7.0]))


def test_custom_quasi_family():
    # quasi-Poisson with identity variance but a custom dispersion-free
    # interface: check it runs through the generic piece extraction
    qf = family.QuasiFamily(
        name="quasi",
        link=np.log,
        mean=np.exp,
        link_deriv=lambda m: 1.0 / m,
        variance=lambda m: m,
        q2=lambda u, y: -np.exp(np.clip(u, None, 30.0)) * np.ones_like(y),
        qll=lambda u, y: y * u - np.exp(np.clip(u, None, 30.0)),
        clamp_hi=30.0,
    )
    u = np.linspace(-2, 2, 9)
    y = np.full_like(u, 3.0)
    c, d, cp, dp = qf.score_weight_pieces(u)
    assert np.abs(qf.q1(u, y) - (y * c - d)).max() < 1e-10


def test_get_family_passthrough_and_errors():
    fam = family.get_family("gaussian")
    assert family.get_family(fam) is fam
    # an unhashable name raised TypeError
    for name in ("gamma", [1]):
        with pytest.raises(InputError, match="unknown family"):
            family.get_family(name)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(FAMILIES),
       st.floats(min_value=-8, max_value=8),
       st.floats(min_value=0, max_value=4))
def test_q2_negative_property(name, u, y):
    fam = family.get_family(name)
    if name == "bernoulli":
        y = min(y / 4.0, 1.0)
    val = fam.q2(np.array([u]), np.array([y]))[0]
    assert val < 0


@pytest.mark.parametrize("name", sorted(FIELD_CASES))
def test_fields_equal_separate_calls(name):
    # u covers both clamp edges and 0; y is a column, as the LL engine
    # passes it, so every field must come back with the broadcast shape
    fam, ys = FIELD_CASES[name]
    u = np.concatenate([np.linspace(-40.0, 40.0, 161), [0.0]])
    u = np.tile(u, (len(ys), 1))
    y = np.array(ys)[:, None]
    u_before, y_before = u.copy(), y.copy()
    weight, score, q = fam.fields(u, y)
    assert np.array_equal(u, u_before) and np.array_equal(y, y_before)
    for got, want in ((weight, -fam.q2(u, y)), (score, fam.q1(u, y)),
                      (q, fam.qll(u, y))):
        assert got.shape == u.shape and got.dtype == float
        assert not np.shares_memory(got, u)
        assert np.array_equal(got, want)
    # a scalar u against a vector of responses, and a row of u against a
    # column of responses, as the oracles pass them: the fields equal
    # those at u broadcast by hand
    for u_in, y_in in ((np.array(0.3), np.array(ys)), (u[:1], y)):
        shape = np.broadcast_shapes(u_in.shape, y_in.shape)
        full = fam.fields(np.broadcast_to(u_in, shape).copy(), y_in)
        for got, want in zip(fam.fields(u_in, y_in), full):
            assert got.shape == shape and got.dtype == float
            assert np.array_equal(got, want)
        assert fam.q1(u_in, y_in).shape == fam.q2(u_in, y_in).shape == shape


@pytest.mark.parametrize("name", sorted(FIELD_CASES))
def test_fields_of_zero_dimensional_inputs_are_writable_arrays(name):
    # ufuncs return numpy scalars for 0-d arrays; the fields must still be
    # new float arrays of the broadcast shape, (), that scale in place
    fam, ys = FIELD_CASES[name]
    for u, y in ((np.array(0.3), np.array(ys[1])), (0.3, ys[1]),
                 (np.array(-45.0), ys[0]), (45.0, np.array(ys[2]))):
        cells = fam.fields(np.reshape(u, 1), np.reshape(y, 1))
        for got, want in zip(fam.fields(u, y), cells):
            assert isinstance(got, np.ndarray), type(got)
            assert got.shape == () and got.dtype == float
            assert got.flags.writeable
            assert got == want[0]
            got *= 2.0
            assert got == 2.0 * want[0]


def test_bernoulli_fields_quasi_likelihood_is_exact():
    b = family.get_family("bernoulli")
    u = np.linspace(-30.0, 30.0, 6001)
    for y in (0.0, 0.3, 1.0):
        exact = y * u - np.logaddexp(0.0, u)
        assert np.abs(b.fields(u, y)[2] - exact).max() < 1e-14


def test_softplus_through_log1p_of_expit_misses_the_bound():
    # why fields forms Q as (y - 1) u + log m, not y u + log(1 - m):
    # 1 - expit(u) has lost almost all its digits by u = 30
    u = np.linspace(-30.0, 30.0, 6001)
    exact = u - np.logaddexp(0.0, u)
    naive = u + np.log1p(-expit(u))
    assert np.abs(naive - exact).max() > 1e-4


def test_bernoulli_fields_within_two_ulp_of_expit():
    # fields forms the mean as 1 / (1 + e^-u) in place, not with expit
    b = family.get_family("bernoulli")
    u = np.linspace(-30.0, 30.0, 60001)
    m = expit(u)
    ulp = np.finfo(float).eps
    for y in (0.0, 0.3, 1.0):
        weight, score, _ = b.fields(u, y)
        assert np.abs(weight - m * (1.0 - m)).max() <= 2 * ulp
        assert np.abs(score - (y - m)).max() <= 2 * ulp


def test_bernoulli_weight_keeps_its_relative_digits():
    # the weight is E m^2 with E = e^-u, not m (1 - m): at u = 29 the
    # difference 1 - m left it a relative error of 3.8e-4
    b = family.get_family("bernoulli")
    u = np.linspace(-30.0, 30.0, 60001)
    want = expit(u) * expit(-u)
    for y in (0.0, 0.3, 1.0):
        weight = b.fields(u, y)[0]
        assert (np.abs(weight - want) / want).max() <= 4 * np.finfo(float).eps


def test_bernoulli_mean_within_one_ulp_of_expit():
    # mean is 1 / (1 + e^-u), the algebra of fields, not scipy's expit
    b = family.get_family("bernoulli")
    u = np.linspace(-30.0, 30.0, 60001)
    assert np.abs(b.mean(u) - expit(u)).max() <= np.finfo(float).eps
    # past the clamp the mean is expit at the bound
    far = np.array([30.0, 31.0, 1e3, np.inf])
    assert (b.mean(far) == expit(30.0)).all()
    assert (b.mean(-far) == expit(-30.0)).all()
    # a 0-d input gives a numpy scalar, as expit did
    for u0 in (0.4, np.asarray(0.4), np.float64(-45.0)):
        m0 = b.mean(u0)
        assert np.ndim(m0) == 0 and isinstance(m0, np.float64)
        assert abs(m0 - expit(b.clamp(u0))) <= np.finfo(float).eps


def test_bernoulli_mean_derivatives_keep_their_relative_digits():
    # E m^2 and E m^2 expm1(-u) m, not m (1 - m) and m (1 - m) (1 - 2 m):
    # at u = 29 the difference 1 - m left both a relative error of 3.8e-4
    b = family.get_family("bernoulli")
    u = np.linspace(-30.0, 30.0, 60001)
    eps = np.finfo(float).eps
    d1 = expit(u) * expit(-u)
    assert (np.abs(b.mean_d1(u) - d1) / d1).max() <= 4 * eps
    d2 = d1 * -np.tanh(u / 2.0)
    got = b.mean_d2(u)
    nz = d2 != 0.0
    assert (np.abs(got[nz] - d2[nz]) / np.abs(d2[nz])).max() <= 6 * eps
    assert (got[~nz] == 0.0).all() and (u[~nz] == 0.0).all()
