"""Acceptance suite: one test per release criterion.

Each test prints a single "criterion N: PASS ..." line on success (visible
with pytest -s; pytest -v shows one PASSED/FAILED line per criterion either
way).  The Monte Carlo criteria run 200 replications each and dominate the
wall time of the whole test suite; everything is seeded and deterministic.
"""

import numpy as np
import pytest

from sbgam import (Dataset, FitConfig, Grid, SimModel, fit_ll, fit_nw,
                   get_family)
from sbgam.kernels import boundary_kernel, kernel_constants, kernel_rows
from sbgam.oracles import ll_component_bias, newton_pointwise
from sbgam.sim import asymptotic_inputs, run_study
from helpers import newton_oracle_gap

TIGHT = FitConfig(tol_outer=1e-11, tol_inner=1e-13, max_outer=60,
                  max_inner=500)


def _dataset_1d(family, seed, n=250):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, 1))
    s = np.sin(np.pi * x[:, 0])
    if family == "gaussian":
        y = 0.8 * np.sin(2.0 * np.pi * x[:, 0]) \
            + rng.normal(scale=0.3, size=n)
    elif family == "bernoulli":
        p = 1.0 / (1.0 + np.exp(-1.2 * s))
        y = (rng.random(n) < p).astype(float)
    else:
        y = rng.poisson(np.exp(0.5 + 0.8 * s)).astype(float)
    return Dataset.with_support(x, y, 0.0, 1.0)


def _dataset_2d(family, seed, n=220):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, 2))
    eta = 0.7 * np.sin(np.pi * x[:, 0]) + 0.6 * (x[:, 1] - 0.5)
    if family == "gaussian":
        y = eta + rng.normal(scale=0.25, size=n)
    elif family == "bernoulli":
        p = 1.0 / (1.0 + np.exp(-eta))
        y = (rng.random(n) < p).astype(float)
    else:
        y = rng.poisson(np.exp(eta)).astype(float)
    return Dataset.with_support(x, y, 0.0, 1.0)


@pytest.fixture(scope="module")
def recorded_fits():
    """Every fixture fit used by the oracle and diagnostics criteria."""
    fits = {}
    grid1 = Grid.uniform(1, 41)
    for fam, seed in (("gaussian", 101), ("bernoulli", 102),
                      ("poisson", 103)):
        ds = _dataset_1d(fam, seed)
        fits[f"{fam}_d1_nw"] = (ds, fit_nw(ds, 0.18, grid=grid1,
                                           family=fam, config=TIGHT))
        fits[f"{fam}_d1_ll"] = (ds, fit_ll(ds, 0.18, grid=grid1,
                                           family=fam, config=TIGHT))
    grid2 = Grid.uniform(2, 21)
    dsg = _dataset_2d("gaussian", 201, n=150)
    fits["gaussian_d2_nw"] = (dsg, fit_nw(dsg, 0.25, grid=grid2,
                                          config=TIGHT))
    fits["gaussian_d2_ll"] = (dsg, fit_ll(dsg, 0.25, grid=grid2,
                                          config=TIGHT))
    dsp = _dataset_2d("poisson", 202)
    fits["poisson_d2_nw"] = (dsp, fit_nw(dsp, 0.25, grid=grid2,
                                         family="poisson", config=TIGHT))
    fits["poisson_d2_ll"] = (dsp, fit_ll(dsp, 0.25, grid=grid2,
                                         family="poisson", config=TIGHT))
    rng = np.random.default_rng(203)
    x3 = rng.uniform(0.0, 1.0, size=(300, 3))
    p3 = 1.0 / (1.0 + np.exp(-np.sin(np.pi * x3[:, 0]) - 0.5 * x3[:, 1]
                             + 0.5 * x3[:, 2]))
    y3 = (rng.random(300) < p3).astype(float)
    ds3 = Dataset.with_support(x3, y3, 0.0, 1.0)
    fits["bernoulli_d3_nw"] = (ds3, fit_nw(ds3, 0.3, grid=Grid.uniform(3, 21),
                                           family="bernoulli", config=TIGHT))
    return fits


def test_criterion_01_model11_nw_mise():
    model = SimModel.from_label("1,1", n=100, seed=11)
    res = run_study(model, estimator="nw", reps=200, bandwidths=0.20)
    assert 0.15 <= res.mise_avg <= 0.35, res.mise_avg
    assert res.elapsed_seconds < 300.0
    print(f"criterion 1: PASS - model (1,1) n=100 NW average MISE "
          f"{res.mise_avg:.4f} in [0.15, 0.35] "
          f"({res.elapsed_seconds:.1f}s)")


def test_criterion_02_model22_ll_mise():
    model = SimModel.from_label("2,2", n=500, seed=22)
    res = run_study(model, estimator="ll", reps=200, bandwidths=0.13)
    assert 0.03 <= res.mise_avg <= 0.12, res.mise_avg
    assert res.elapsed_seconds < 1200.0
    print(f"criterion 2: PASS - model (2,2) n=500 LL average MISE "
          f"{res.mise_avg:.4f} in [0.03, 0.12] "
          f"({res.elapsed_seconds:.1f}s)")


def test_criterion_03_bad_fit_counts():
    counts = {}
    for label in ("1,1", "2,1", "1,2"):
        model = SimModel.from_label(label, n=100, seed=33)
        for est in ("nw", "ll"):
            res = run_study(model, estimator=est, reps=200,
                            bandwidths=0.45)
            counts[(label, est)] = res.bad_count
            assert res.bad_count == 0, (label, est, res.bad_indices)
    res = run_study(SimModel.from_label("2,2", n=100, seed=33),
                    estimator="ll", reps=200, bandwidths=0.45)
    counts[("2,2", "ll")] = res.bad_count
    assert res.bad_count <= 10, res.bad_indices
    shown = ", ".join(f"({k[0]}) {k[1]}={v}" for k, v in counts.items())
    print(f"criterion 3: PASS - bad-fit counts at n=100: {shown}")


def test_criterion_04_pointwise_oracle_equivalence_d1(recorded_fits):
    grid = Grid.uniform(1, 41)
    u = grid.points[0]
    interior = (u >= 0.18) & (u <= 0.82)
    worst = 0.0
    for fam in ("gaussian", "bernoulli", "poisson"):
        ds, fnw = recorded_fits[f"{fam}_d1_nw"]
        theta, ok = newton_pointwise(ds, 0.18, grid=grid, family=fam)
        assert ok[interior].all()
        gap = np.abs(fnw.eta0 + fnw.components[0] - theta)[interior].max()
        worst = max(worst, gap)
        assert gap < 1e-6, (fam, "nw", gap)

        _, fll = recorded_fits[f"{fam}_d1_ll"]
        t0, t1, ok = newton_pointwise(ds, 0.18, grid=grid, family=fam,
                                      order=1)
        assert ok[interior].all()
        gap0 = np.abs(fll.eta00 + fll.components0[0] - t0)[interior].max()
        gap1 = np.abs(fll.components1[0] - t1)[interior].max()
        worst = max(worst, gap0, gap1)
        assert gap0 < 1e-6 and gap1 < 1e-6, (fam, "ll", gap0, gap1)
    print(f"criterion 4: PASS - d=1 fits match pointwise Newton oracles, "
          f"worst interior gap {worst:.2e} < 1e-6")


def test_criterion_05_identity_link_one_step(recorded_fits):
    # the d = 2 fits solve the full system that the dense Newton oracle
    # solves directly; the Gaussian ones in one step
    gaps = {}
    for name in ("gaussian_d2_nw", "gaussian_d2_ll", "poisson_d2_nw",
                 "poisson_d2_ll"):
        ds, fit = recorded_fits[name]
        gaps[name] = newton_oracle_gap(fit, ds)
        assert gaps[name] < 1e-8, (name, gaps[name])
        if name.startswith("gaussian"):
            assert fit.diagnostics.outer_changes[1] < 1e-9, name
    print(f"criterion 5: PASS - identity link one-step equals dense "
          f"least-squares solve (NW gap {gaps['gaussian_d2_nw']:.2e}, LL "
          f"gap {gaps['gaussian_d2_ll']:.2e}), second step < 1e-9; Poisson "
          f"fits match the dense Newton oracle (NW gap "
          f"{gaps['poisson_d2_nw']:.2e}, LL gap {gaps['poisson_d2_ll']:.2e})")


def test_criterion_06_constraint_residuals(recorded_fits):
    worst = 0.0
    for name, (_, fit) in recorded_fits.items():
        diag = fit.diagnostics
        assert diag.constraint_residuals, name
        rel = max(diag.constraint_residuals) / diag.weight_total
        worst = max(worst, rel)
        assert rel < 1e-8, (name, rel)
    print(f"criterion 6: PASS - centering residuals after every outer "
          f"update in {len(recorded_fits)} fixtures, worst "
          f"{worst:.2e} * mass < 1e-8 * mass")


def test_criterion_07_family_derivative_consistency():
    probes_u = np.linspace(-2.5, 2.5, 11)
    step = 1e-5
    worst = 0.0
    for fam in ("gaussian", "bernoulli", "poisson"):
        f = get_family(fam)
        ys = {"gaussian": [-1.5, 0.0, 2.0], "bernoulli": [0.0, 1.0],
              "poisson": [0.0, 1.0, 3.0, 7.0]}[fam]
        for y in ys:
            q2 = f.q2(probes_u, y)
            fd = (f.q1(probes_u + step, y)
                  - f.q1(probes_u - step, y)) / (2.0 * step)
            rel = np.abs(q2 - fd) / np.maximum(np.abs(q2), 1e-12)
            worst = max(worst, float(rel.max()))
            assert rel.max() < 1e-6, (fam, y, rel.max())
    print(f"criterion 7: PASS - curvature matches differenced score on "
          f"the probe lattice for all families, worst relative error "
          f"{worst:.2e} < 1e-6")


def test_criterion_08_convergence_diagnostics(recorded_fits):
    for name, (_, fit) in recorded_fits.items():
        diag = fit.diagnostics
        assert diag.converged, name
        for hist in diag.inner_change_histories:
            for i in range(2, len(hist)):
                if hist[i - 1] == 0.0:
                    assert hist[i] == 0.0, name
                else:
                    assert hist[i] / hist[i - 1] < 1.0, (name, hist)
        oc = diag.outer_changes
        for i in range(2, len(oc)):
            assert oc[i] < oc[i - 1], (name, oc)
    print(f"criterion 8: PASS - inner sweep changes contract after sweep "
          f"2 and outer changes decrease from step 2 in all "
          f"{len(recorded_fits)} fixtures")


def test_criterion_09_mise_rate_trend():
    mises = {}
    for n in (100, 400):
        model = SimModel.from_label("1,1", n=n, seed=99)
        res = run_study(model, estimator="nw", reps=200,
                        bandwidths=None, bandwidth_scale=2.0)
        mises[n] = res.mise_avg
    ratio = mises[400] / mises[100]
    assert 0.15 <= ratio <= 0.65, mises
    print(f"criterion 9: PASS - MISE {mises[100]:.4f} at n=100 vs "
          f"{mises[400]:.4f} at n=400, ratio {ratio:.3f} in [0.15, 0.65]")


def test_criterion_10_bias_shape_correlation():
    model = SimModel.from_label("1,1", n=2000, seed=77)
    h = 0.25
    res = run_study(model, estimator="ll", reps=200, bandwidths=h)
    grid = Grid.uniform(2, res.grid_points)
    u = grid.points[0]
    mask = (u >= 0.2) & (u <= 0.8)
    emp_bias = (res.mean_curves[0] - res.truth_curves[0])[mask]
    inp = asymptotic_inputs(model, model.n, h)
    pred = ll_component_bias(inp, 0, u[mask]) / model.n ** 0.4
    corr = np.corrcoef(emp_bias, pred)[0, 1]
    assert corr > 0.6, corr
    print(f"criterion 10: PASS - empirical bias shape of component 1 "
          f"correlates {corr:.3f} > 0.6 with the curvature formula")


def test_criterion_11_kernel_suite():
    g = np.linspace(0.0, 1.0, 41)
    from sbgam.grid import trapz_weights
    tw = trapz_weights(g)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 1.0, size=60)
    rows = kernel_rows(g, pts, 0.2, "epanechnikov", tw)
    mass_err = np.abs(rows @ tw - 1.0).max()
    assert mass_err < 1e-14

    # away from the edges the corrected kernel is the base kernel
    base = 0.75 * (1.0 - 0.25) / 0.2  # K((u-v)/h)/h at |u-v| = h/2
    interior = abs(boundary_kernel(np.array([0.5]), 0.4, 0.2,
                                   "epanechnikov")[0] - base)
    assert interior < 1e-14

    k = kernel_constants("epanechnikov")
    assert abs(k.mu2 - 0.2) < 1e-12
    assert abs(k.roughness - 0.6) < 1e-12
    print(f"criterion 11: PASS - row mass error {mass_err:.2e}, interior "
          f"reduction error {interior:.2e}, Epanechnikov constants exact")
