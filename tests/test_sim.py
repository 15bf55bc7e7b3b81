"""Simulation harness: data generation, population truth, study driver."""

import csv
import json

import numpy as np
import pytest

from sbgam import sim
from sbgam.errors import FitError, InputError
from sbgam.grid import Grid
from sbgam.sim import (SimModel, _study_rep, asymptotic_inputs,
                       density_original, eta_raw, gen_covariates,
                       make_dataset, pair_density, run_study,
                       true_components, write_study_csv, write_study_json)


def test_model_label_roundtrip():
    for label in ("1,1", "1,2", "2,1", "2,2"):
        m = SimModel.from_label(label, n=50, seed=3)
        assert m.label == label
        assert m.n == 50
    assert SimModel.from_label("(2, 2)").response == "poisson"
    assert SimModel.from_label("(2, 2)").rho == 0.9


def test_model_validation():
    with pytest.raises(InputError):
        SimModel.from_label("3,1")
    with pytest.raises(InputError):
        SimModel(response="gamma")
    with pytest.raises(InputError):
        SimModel(rho=1.0)
    with pytest.raises(InputError):
        SimModel(extra_dims=-1)
    with pytest.raises(InputError):
        SimModel(n=5)
    assert SimModel(response="poisson", rho=0.3).label == "custom"


def test_covariates_support_and_correlation():
    rng = np.random.default_rng(0)
    m = SimModel.from_label("1,2", n=100_000)
    x = gen_covariates(m, rng)
    assert x.shape == (100_000, 2)
    assert x.min() >= -1.0 and x.max() <= 1.0
    corr = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
    # truncation shrinks the nominal 0.9 correlation to about 0.68
    assert corr == pytest.approx(0.682, abs=0.02)

    m0 = SimModel.from_label("1,1", n=100_000)
    x0 = gen_covariates(m0, np.random.default_rng(1))
    corr0 = np.corrcoef(x0[:, 0], x0[:, 1])[0, 1]
    assert abs(corr0) < 0.01


def test_extra_dims_are_uniform():
    rng = np.random.default_rng(2)
    m = SimModel.from_label("2,1", n=50_000, extra_dims=2)
    x = gen_covariates(m, rng)
    assert x.shape == (50_000, 4)
    for j in (2, 3):
        assert x[:, j].min() >= -1.0 and x[:, j].max() <= 1.0
        assert abs(x[:, j].mean()) < 0.02
        assert np.var(x[:, j]) == pytest.approx(1.0 / 3.0, abs=0.01)


def test_eta_raw_formula():
    m = SimModel.from_label("1,1", extra_dims=1)
    x = np.array([[0.5, -0.25, 0.3]])
    expect = (np.sin(np.pi * 0.5)
              + 0.5 * (-0.25 + np.sin(-np.pi * 0.25))
              + 0.1 * 0.3)
    assert eta_raw(m, x)[0] == pytest.approx(expect, abs=1e-14)


def test_responses_match_family():
    rng = np.random.default_rng(3)
    mb = SimModel.from_label("1,1", n=5000)
    ds = make_dataset(mb, rng)
    assert set(np.unique(ds.y)) <= {0.0, 1.0}
    mp = SimModel.from_label("2,1", n=5000)
    dsp = make_dataset(mp, np.random.default_rng(4))
    assert (dsp.y >= 0).all() and np.allclose(dsp.y, np.round(dsp.y))
    # dataset is rescaled onto the unit cube with the known support
    assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0
    assert np.allclose(ds.lo, -1.0) and np.allclose(ds.hi, 1.0)


def test_pair_density_integrates_to_one():
    for rho in (0.0, 0.9):
        g, w = sim._gl(301)
        gx, gy = np.meshgrid(g, g, indexing="ij")
        mass = w @ pair_density(gx, gy, rho) @ w
        assert mass == pytest.approx(1.0, abs=1e-12)


def test_density_original_extra_dims_mass():
    m = SimModel.from_label("2,2", extra_dims=1)
    g, w = sim._gl(151)
    gx, gy, gz = np.meshgrid(g, g, g, indexing="ij")
    X = np.stack([gx, gy, gz], axis=-1)
    vals = density_original(m, X)
    mass = np.einsum("i,j,k,ijk->", w, w, w, vals)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_true_components_bernoulli_centering_is_zero():
    # the bernoulli models are symmetric under flipping the signs of all
    # covariates jointly, which kills every centering constant
    for label in ("1,1", "1,2"):
        t = true_components(SimModel.from_label(label))
        assert np.abs(np.asarray(t.constants)).max() < 1e-12
        assert t.eta0_star == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("label,c1,c2,b0", [
    ("2,1", 0.453264, 0.322993, 0.776257),
    ("2,2", 0.587356, 0.453625, 1.040981),
])
def test_true_components_poisson_constants(label, c1, c2, b0):
    t = true_components(SimModel.from_label(label))
    assert t.constants[0] == pytest.approx(c1, abs=5e-4)
    assert t.constants[1] == pytest.approx(c2, abs=5e-4)
    assert t.eta0_star == pytest.approx(b0, abs=5e-4)
    # decomposition is exact: eta0* + sum of constants... the centered
    # pieces plus intercept reproduce the raw predictor
    x = np.array([[0.3, -0.6]])
    recon = t.eta0_star + t.component(0, x[0, 0]) + t.component(1, x[0, 1])
    assert recon == pytest.approx(eta_raw(t.model, x)[0], abs=1e-12)


def test_truth_spec_derivatives():
    t = true_components(SimModel.from_label("1,1"))
    u = 0.37
    assert t.component_d1(0, u) == pytest.approx(np.pi * np.cos(np.pi * u))
    assert t.component_d2(0, u) == pytest.approx(
        -np.pi ** 2 * np.sin(np.pi * u))
    assert t.component_d1(1, u) == pytest.approx(
        0.5 * (1.0 + np.pi * np.cos(np.pi * u)))


def test_asymptotic_inputs_rescaled_chain_rule():
    m = SimModel.from_label("2,1")
    inp = asymptotic_inputs(m, n=400, bandwidths=0.2)
    truth = true_components(m)
    u = np.array([0.3])
    x = 2.0 * u - 1.0
    assert inp.components[0].value(u)[0] == pytest.approx(
        truth.component(0, x)[0], abs=1e-12)
    assert inp.components[0].d1(u)[0] == pytest.approx(
        2.0 * truth.component_d1(0, x)[0], abs=1e-12)
    assert inp.components[0].d2(u)[0] == pytest.approx(
        4.0 * truth.component_d2(0, x)[0], abs=1e-12)
    assert np.allclose(inp.deltas, 400 ** 0.2 * 0.2)
    # unit-cube density integrates to one
    g, w = sim._gl(201, 0.0, 1.0)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    mass = w @ inp.density(np.stack([gx, gy], axis=-1)) @ w
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_asymptotic_density_grad_matches_fd():
    m = SimModel.from_label("2,2")
    inp = asymptotic_inputs(m, n=400, bandwidths=0.2)
    U = np.array([[0.3, 0.6], [0.55, 0.42]])
    eps = 1e-6
    for j in range(2):
        up = U.copy()
        up[:, j] += eps
        dn = U.copy()
        dn[:, j] -= eps
        fd = (inp.density(up) - inp.density(dn)) / (2 * eps)
        assert np.abs(inp.density_grad(U, j) - fd).max() < 1e-5


def test_study_rep_deterministic():
    m = SimModel.from_label("1,1", n=80, seed=5)
    t = true_components(m)
    grid = Grid.uniform(2, 21)
    axes = [2.0 * grid.points[j] - 1.0 for j in range(2)]
    curves = [t.component(j, axes[j]) for j in range(2)]
    a = _study_rep(m, "nw", 0.3, 1.0, 21, "epanechnikov", 4, t.eta0_star,
                   curves)
    b = _study_rep(m, "nw", 0.3, 1.0, 21, "epanechnikov", 4, t.eta0_star,
                   curves)
    assert a[0] == b[0] == 4
    assert a[1] == b[1]
    for ca, cb in zip(a[2], b[2]):
        assert np.array_equal(ca, cb)
    assert a[3] == b[3]


def test_run_study_smoke_and_identity():
    m = SimModel.from_label("1,1", n=80, seed=7)
    res = run_study(m, estimator="nw", reps=8, bandwidths=0.3,
                    grid_points=21)
    assert res.model_label == "1,1"
    assert res.reps_used + res.bad_count == 8
    assert np.all(res.isb >= 0) and np.all(res.iv >= 0)
    assert np.abs(res.mise - (res.isb + res.iv)).max() < 1e-12
    assert res.mise_avg == pytest.approx(
        0.5 * (res.mise[0] + res.mise[1]), abs=1e-12)
    assert len(res.mean_curves) == 2
    assert res.mean_curves[0].shape == (21,)


def test_run_study_independent_of_n_jobs():
    m = SimModel.from_label("2,1", n=80, seed=9)
    a = run_study(m, estimator="nw", reps=6, bandwidths=0.3,
                  grid_points=21, n_jobs=1)
    b = run_study(m, estimator="nw", reps=6, bandwidths=0.3,
                  grid_points=21, n_jobs=2)
    assert np.array_equal(a.isb, b.isb)
    assert np.array_equal(a.iv, b.iv)
    assert a.eta0_mean == b.eta0_mean
    assert a.bad_indices == b.bad_indices


def test_run_study_screens_bad_replications():
    # an absurdly tight threshold marks every replication bad
    m = SimModel.from_label("1,1", n=80, seed=11)
    with pytest.raises(FitError):
        run_study(m, reps=3, bandwidths=0.3, grid_points=21,
                  bad_threshold=1e-12)
    res = run_study(m, reps=6, bandwidths=0.3, grid_points=21,
                    bad_threshold=1.0)
    assert res.bad_count == 3
    assert res.reps_used == 6 - res.bad_count
    assert all(0 <= i < 6 for i in res.bad_indices)


def test_run_study_validation():
    m = SimModel.from_label("1,1", n=80)
    with pytest.raises(InputError):
        run_study(m, estimator="foo")
    with pytest.raises(InputError):
        run_study(m, reps=0)
    with pytest.raises(InputError):
        run_study(m, interior_fraction=1.5)
    for n_jobs in (0, 2.0, True):
        with pytest.raises(InputError):
            run_study(m, n_jobs=n_jobs)
    for bandwidths in ([0.3, 0.3, 0.3], [[0.3, 0.3]]):
        with pytest.raises(InputError):
            run_study(m, bandwidths=bandwidths)


def test_write_study_outputs(tmp_path):
    m = SimModel.from_label("1,1", n=80, seed=13)
    r1 = run_study(m, estimator="nw", reps=4, bandwidths=0.3,
                   grid_points=21)
    r2 = run_study(m, estimator="ll", reps=4, bandwidths=0.35,
                   grid_points=21)
    csv_path = tmp_path / "study.csv"
    json_path = tmp_path / "study.json"
    write_study_csv([r1, r2], csv_path)
    write_study_json(r2, json_path)

    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model", "metric", "ll_n80", "nw_n80"]
    assert [r[1] for r in rows[1:]] == ["ISB", "IV", "MISE"]
    assert float(rows[3][3]) == pytest.approx(r1.mise_avg, abs=1e-6)
    assert float(rows[3][2]) == pytest.approx(r2.mise_avg, abs=1e-6)

    payload = json.loads(json_path.read_text())
    assert payload["estimator"] == "ll"
    assert payload["mise"] == [float(v) for v in r2.mise]
    assert payload["bandwidths"] == [0.35, 0.35]
    assert "elapsed_seconds" not in payload
    assert len(payload["mean_curves"]) == len(payload["axes"]) == 2
