"""Kernel bases, boundary correction, discrete rows, moment constants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from sbgam import kernels
from sbgam.errors import InputError
from sbgam.grid import trapz_weights

KERNELS = ("epanechnikov", "quartic", "triangular")


def test_base_kernel_reference_values():
    t = np.array([0.0, 1.0, 0.5])
    epan = kernels.base_kernel(t, "epanechnikov")
    assert epan[0] == pytest.approx(0.75)
    assert epan[1] == 0.0
    assert epan[2] == pytest.approx(0.5625)
    quart = kernels.base_kernel(t, "quartic")
    assert quart[0] == pytest.approx(15.0 / 16.0)
    assert quart[1] == 0.0
    tri = kernels.base_kernel(t, "triangular")
    assert tri[0] == pytest.approx(1.0)
    assert tri[2] == pytest.approx(0.5)


def test_base_kernel_unknown_name():
    with pytest.raises(InputError):
        kernels.base_kernel(np.zeros(1), "box")


@pytest.mark.parametrize("name", KERNELS)
def test_cdf_matches_numeric_integral(name):
    for ti in np.linspace(-1, 1, 23):
        grid = np.linspace(-1.0, ti, 20001)
        num = trapezoid(kernels.base_kernel(grid, name), grid)
        assert kernels.base_kernel_cdf(np.array([ti]), name)[0] == \
            pytest.approx(num, abs=5e-8)


@pytest.mark.parametrize("name", KERNELS)
def test_boundary_kernel_integrates_to_one(name):
    # continuous normalization: integral over [0, 1] in u equals 1 for
    # any evaluation point, including points near and at the edges
    u = np.linspace(0, 1, 20001)
    for v in (0.0, 0.01, 0.1, 0.33, 0.5, 0.97, 1.0):
        vals = kernels.boundary_kernel(u, v, 0.1, name)
        assert trapezoid(vals, u) == pytest.approx(1.0, abs=1e-6)


def test_boundary_kernel_interior_reduction():
    # away from the edges the correction divisor is 1 and the boundary
    # kernel reduces to the plain rescaled base kernel
    u = np.linspace(0.3, 0.7, 101)
    h = 0.1
    bk = kernels.boundary_kernel(u, 0.5, h, "epanechnikov")
    plain = kernels.base_kernel((u - 0.5) / h, "epanechnikov") / h
    assert np.abs(bk - plain).max() < 1e-14


def test_row_normalization_exact():
    g = np.linspace(0, 1, 41)
    w = trapz_weights(g)
    probes = np.array([0.0, 0.013, 0.2, 0.499, 0.75, 0.988, 1.0])
    rows = kernels.kernel_rows(g, probes, 0.07, "epanechnikov", w)
    assert np.abs(rows @ w - 1.0).max() < 1e-14


def test_row_translation_invariance_interior():
    # two interior evaluation points a grid step apart give shifted rows
    g = np.linspace(0, 1, 41)
    w = trapz_weights(g)
    rows = kernels.kernel_rows(g, np.array([0.400, 0.425]), 0.08,
                               "epanechnikov", w)
    assert np.abs(rows[0][16:20] - rows[1][17:21]).max() < 1e-12


@pytest.mark.parametrize("name", KERNELS)
def test_rows_equal_normalized_boundary_kernel(name):
    # kernel_rows forms only the base-kernel shape and normalizes it once;
    # the boundary kernel's 1/h and edge divisor cancel in that, so the
    # rows equal the trapezoid-normalized continuous kernel
    rng = np.random.default_rng([20, len(name)])
    for h in (0.05, 0.13, 0.31, 0.5):
        # a jittered uniform grid: non-uniform, no gap above 0.045
        g = np.linspace(0, 1, 41)
        g[1:-1] += rng.uniform(-0.01, 0.01, 39)
        w = trapz_weights(g)
        v = np.concatenate([rng.uniform(0, 1, 50),
                            [0.0, 1e-9, 1.0 - 1e-9, 1.0]])
        rows = kernels.kernel_rows(g, v, h, name, w)
        want = kernels.boundary_kernel(g[None, :], v[:, None], h, name)
        want /= (want @ w)[:, None]
        gap = np.abs(rows - want).max(axis=1) / want.max(axis=1)
        assert gap.max() < 1e-14, (h, gap.max())


@pytest.mark.parametrize("name", KERNELS)
def test_base_kernel_leaves_its_input_unchanged(name):
    t = np.linspace(-1.5, 1.5, 31)
    before = t.copy()
    kernels.base_kernel(t, name)
    assert np.array_equal(t, before)


def test_rows_reject_tiny_bandwidth():
    g = np.linspace(0, 1, 11)
    w = trapz_weights(g)
    with pytest.raises(InputError):
        kernels.kernel_rows(g, np.array([0.55]), 0.01, "epanechnikov", w)


def test_row_windows():
    g = np.linspace(0, 1, 41)
    w = trapz_weights(g)
    rows = kernels.kernel_rows(g, np.array([0.0, 0.5, 1.0]), 0.1,
                               "epanechnikov", w)
    lo, hi = kernels.row_windows(rows)
    for r, l, h_ in zip(rows, lo, hi):
        assert not r[:l].any() and not r[h_:].any()
        assert r[l] != 0 and r[h_ - 1] != 0


def test_kernel_constants_reference_values():
    # kappa to 30 digits, by 50-digit quadrature of mu1(-t) / mu0(-t)
    kappa = {
        "epanechnikov": 0.144860385419958982062924091094,
        "quartic": 0.102083023515777577140318294969,
        "triangular": 0.117685693240497487176552079529,
    }
    c = kernels.kernel_constants("epanechnikov")
    assert c.mu2 == pytest.approx(0.2, abs=1e-12)
    assert c.roughness == pytest.approx(0.6, abs=1e-12)
    q = kernels.kernel_constants("quartic")
    assert q.mu2 == pytest.approx(1.0 / 7.0, abs=1e-12)
    assert q.roughness == pytest.approx(5.0 / 7.0, abs=1e-12)
    t = kernels.kernel_constants("triangular")
    assert t.mu2 == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert t.roughness == pytest.approx(2.0 / 3.0, abs=1e-12)
    for name, ref in kappa.items():
        assert kernels.kernel_constants(name).kappa == \
            pytest.approx(ref, abs=1e-16)


def test_kernel_constants_unknown_name():
    with pytest.raises(InputError, match="unknown kernel"):
        kernels.kernel_constants("gaussian")


@pytest.mark.parametrize("name", KERNELS)
def test_partial_moments_against_quadrature(name):
    # partial_moment integrates u^j K(u) from c to 1 exactly; compare to
    # a fine trapezoid rule
    grid = np.linspace(-1, 1, 40001)
    pdf = kernels.base_kernel(grid, name)
    for c in (-1.0, -0.62, -0.3, 0.0, 0.41, 0.97):
        m = grid >= c
        for j in (0, 1, 2):
            num = trapezoid(grid[m] ** j * pdf[m], grid[m])
            assert kernels.partial_moment(j, c, name) == \
                pytest.approx(num, abs=5e-8)


def test_kappa_reproducible_by_direct_quadrature():
    from scipy.integrate import quad

    for name in KERNELS:
        val, _ = quad(
            lambda t: kernels.partial_moment(1, -t, name)
            / kernels.partial_moment(0, -t, name),
            0.0, 1.0, epsabs=1e-12, limit=200,
        )
        assert kernels.kernel_constants(name).kappa == \
            pytest.approx(val, abs=1e-14)


def test_validate_bandwidths():
    h = kernels.validate_bandwidths(0.2, 3)
    assert h.shape == (3,) and (h == 0.2).all()
    h = kernels.validate_bandwidths([0.1, 0.3], 2)
    assert (h == [0.1, 0.3]).all()
    with pytest.raises(InputError):
        kernels.validate_bandwidths(0.0, 1)
    with pytest.raises(InputError):
        kernels.validate_bandwidths(0.7, 1)
    with pytest.raises(InputError):
        kernels.validate_bandwidths([0.1, 0.2, 0.3], 2)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNELS),
       st.floats(min_value=-0.999, max_value=0.999))
def test_base_kernel_symmetry_property(name, t):
    left = kernels.base_kernel(np.array([-t]), name)[0]
    right = kernels.base_kernel(np.array([t]), name)[0]
    assert left == pytest.approx(right, abs=1e-15)
    assert right >= 0.0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KERNELS),
       st.floats(min_value=0.02, max_value=0.5),
       st.floats(min_value=0.0, max_value=1.0))
def test_row_mass_property(name, h, v):
    g = np.linspace(0, 1, 61)
    w = trapz_weights(g)
    rows = kernels.kernel_rows(g, np.array([v]), h, name, w)
    assert rows[0] @ w == pytest.approx(1.0, abs=1e-13)
    assert (rows >= 0).all()


def test_validate_kernel_is_the_one_name_check():
    for name in kernels.KERNEL_NAMES:
        assert kernels.validate_kernel(name) == name
    with pytest.raises(InputError, match="unknown kernel 'gauss'"):
        kernels.validate_kernel("gauss")
    with pytest.raises(InputError, match="unknown kernel 'gauss'"):
        kernels.base_kernel(np.zeros(3), "gauss")
