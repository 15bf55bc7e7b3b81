"""The shared backfitting core: iteration controls, module structure, the
module-attribute lookups that outside-in tracing relies on, and converged
fits against the full-system Newton oracle."""

import ast
import importlib.util
import pathlib
from collections import Counter

import numpy as np
import pytest

import sbgam
from sbgam import cli, kernels, ll_fit, nw_fit, sim
from sbgam.backfit import FitConfig
from sbgam.errors import InputError
from sbgam.grid import Dataset, Grid
from helpers import newton_oracle_gap, quasi_gamma, sim_dataset

SRC = pathlib.Path(sbgam.__file__).parent

# every name that perfbench's tracer wraps on its module
ENTRY_POINTS = [
    (kernels, "kernel_rows"),
    *((mod, f"{mod.__name__[6:8]}_{part}") for mod in (nw_fit, ll_fit)
      for part in ("prepare", "marginals", "inner_solve", "outer_update")),
    (nw_fit, "fit_nw"), (ll_fit, "fit_ll"),
    (sim, "fit_nw"), (sim, "fit_ll"), (cli, "run_study"),
]


def test_every_traced_target_resolves():
    # the benchmark's tracer reports a layer's metrics absent when one of
    # its targets is gone; a rename must fail the test suite instead
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for _, module, target, _ in layertrace.TARGETS:
        owner, attr = layertrace._resolve(module, target)
        assert callable(getattr(owner, attr, None)), f"{module}.{target}"


@pytest.mark.parametrize("kwargs", [
    {"tol_outer": float("nan")},
    {"tol_inner": float("nan")},
    {"tol_outer": float("inf")},
    {"tol_inner": 0.0},
    {"tol_outer": -1e-6},
    {"tol_outer": "1e-6"},
    {"max_outer": 2.5},
    {"max_inner": 3.0},
    {"max_outer": True},
    {"max_inner": 0},
    {"damping": float("nan")},
    {"damping": 1.5},
    {"damping": True},
])
def test_fit_config_rejects_invalid_controls(kwargs):
    with pytest.raises(InputError):
        FitConfig(**kwargs)
    # a fit takes its controls as a FitConfig only; a mapping of them,
    # valid or not, raised AttributeError
    for config in (kwargs, {"tol_outer": 1e-6}):
        with pytest.raises(InputError, match="FitConfig"):
            nw_fit.fit_nw(_data(), 0.3, config=config)


def test_fit_config_accepts_numpy_scalars():
    cfg = FitConfig(tol_outer=np.float64(1e-7), tol_inner=np.float32(1e-9),
                    max_outer=np.int64(5), max_inner=np.int32(50),
                    damping=1)
    assert cfg.max_outer == 5 and cfg.damping == 1


def _relative_imports(path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield node.module, [a.name for a in node.names]


def test_modules_import_no_private_names_and_smoothers_are_peers():
    for path in SRC.glob("*.py"):
        for module, names in _relative_imports(path):
            private = [n for n in names if n.startswith("_")]
            assert not private, f"{path.name} imports {private} from {module}"
    peers = {"nw_fit.py": "ll_fit", "ll_fit.py": "nw_fit"}
    for name, other in peers.items():
        imported = {m for m, _ in _relative_imports(SRC / name)}
        assert other not in imported, f"{name} imports from {other}"


@pytest.fixture
def calls(monkeypatch):
    """Count each call of every entry point through its module attribute;
    results["<module>.<name>"] keeps what the calls returned."""
    counts, results = Counter(), {}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            out = fn(*args, **kwargs)
            results.setdefault(key, []).append(out)
            return out
        return wrapper

    for module, name in ENTRY_POINTS:
        key = f"{module.__name__[6:]}.{name}"
        monkeypatch.setattr(module, name,
                            counting(key, getattr(module, name)))
    return counts, results


def _data(family="bernoulli", n=80, d=2, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, d))
    eta = np.sin(np.pi * x[:, 0])
    if family == "gaussian":
        y = eta + rng.normal(scale=0.4, size=n)
    else:
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return Dataset.with_support(x, y, -1.0, 1.0)


def _expected(est, fits, d):
    """The counts one traced fit per entry of fits leaves behind."""
    steps = [f.diagnostics.outer_iterations for f in fits]
    return {
        "kernels.kernel_rows": d * len(fits),
        f"{est}_fit.{est}_prepare": len(fits),
        f"{est}_fit.{est}_marginals": sum(steps) + len(fits),
        f"{est}_fit.{est}_inner_solve": sum(steps),
        f"{est}_fit.{est}_outer_update": sum(steps),
    }


@pytest.mark.parametrize("est, family, d", [
    ("nw", "bernoulli", 2), ("ll", "bernoulli", 2),
    # the Gaussian closed form lives in backfit; the traced names must
    # still see each of its evaluations
    ("nw", "gaussian", 3), ("ll", "gaussian", 3),
], ids=["nw", "ll", "nw-gaussian-d3", "ll-gaussian-d3"])
def test_fit_calls_every_layer_through_its_module(calls, est, family, d):
    counts, _ = calls
    module = nw_fit if est == "nw" else ll_fit
    fit = getattr(module, f"fit_{est}")(_data(family, d=d), 0.4,
                                        grid=Grid.uniform(d, 11),
                                        family=family)
    assert fit.diagnostics.outer_iterations > 0
    assert counts == {f"{est}_fit.fit_{est}": 1, **_expected(est, [fit], d)}


@pytest.mark.parametrize("est", ["nw", "ll"])
def test_study_calls_every_layer_through_its_module(calls, est, tmp_path):
    counts, results = calls
    code = cli.main(["study", "--model", "1,1", "--estimator", est,
                     "--n", "80", "--seed", "2", "--reps", "2",
                     "--bandwidth", "0.4", "--grid-points", "11",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    fits = results[f"sim.fit_{est}"]
    assert len(fits) == 2
    assert counts == {"cli.run_study": 1, f"sim.fit_{est}": 2,
                      **_expected(est, fits, 2)}


@pytest.mark.parametrize("est", ["nw", "ll"])
def test_damped_newton_steps_reach_the_full_step_fit(est):
    # damping 0.5 halves the distance to the solution per step, so the
    # damped loop stops within about its last change, tol_outer times the
    # predictor's size, of the full-step fit; measured on these data
    # (seeds 3 to 5): at most 7.9e-13, in 41 steps against 5 to 7
    fitter = getattr(nw_fit if est == "nw" else ll_fit, f"fit_{est}")
    ds, grid = _data(n=200, seed=3), Grid.uniform(2, 21)
    fits = [fitter(ds, 0.4, grid=grid, family="bernoulli",
                   config=FitConfig(tol_outer=1e-12, max_outer=100,
                                    damping=damping))
            for damping in (1.0, 0.5)]
    full, damped = (f.diagnostics for f in fits)
    assert full.converged and damped.converged
    assert damped.outer_iterations > 2 * full.outer_iterations
    gap = max([abs(fits[0].intercept - fits[1].intercept)]
              + [np.abs(a - b).max()
                 for a, b in zip(fits[0].curves, fits[1].curves)])
    assert gap < 5e-12, gap
    assert max(damped.constraint_residuals) < 1e-15


@pytest.mark.parametrize("d, g, n", [(2, 21, 200), (3, 11, 100)],
                         ids=["d2", "d3"])
@pytest.mark.parametrize("family", ["gaussian", "bernoulli", "poisson",
                                    "quasi-gamma"])
@pytest.mark.parametrize("est", ["nw", "ll"])
def test_fit_solves_the_full_system(est, family, d, g, n):
    # the dense Newton oracle solves the smoothed backfitting equations
    # with no backfitting sweeps and recentres once, against its last
    # weight; a fit recentres after every step, against that step's
    # weight.  At d = 3 the NW Bernoulli and quasi-gamma fits stream their
    # marginals, and the LL ones run the block engine.  The Gaussian
    # problem is linear: one step, then a confirmation
    fitter = getattr(nw_fit if est == "nw" else ll_fit, f"fit_{est}")
    ds = sim_dataset(10 * d + 1, n, d, family)
    fit = fitter(ds, [0.3, 0.35, 0.4][:d], grid=Grid.uniform(d, g),
                 family=quasi_gamma() if family == "quasi-gamma" else family,
                 config=FitConfig(tol_outer=1e-11, tol_inner=1e-13,
                                  max_outer=60, max_inner=500))
    diag = fit.diagnostics
    assert diag.converged and len(fit.curves) == d
    assert max(diag.constraint_residuals) < 1e-10
    if family == "gaussian":
        assert diag.outer_iterations == 2
        assert diag.outer_changes[1] < 1e-9
    gap = newton_oracle_gap(fit, ds)
    assert gap < 1e-9, gap


def test_predict_reads_points_by_the_fit_dimension():
    x = np.array([-0.5, 0.1, 0.7])
    one = nw_fit.fit_nw(_data("gaussian", d=1), 0.4, grid=Grid.uniform(1, 11))
    # a one-dimensional input of a d = 1 fit holds points, as in
    # Dataset.from_raw
    assert np.array_equal(one.predict(x), one.predict(x[:, None]))
    assert np.array_equal(one.predict(x),
                          [one.predict([[v]])[0] for v in x])
    assert np.array_equal(one.predict_mean(x), one.predict_mean(x[:, None]))
    two = ll_fit.fit_ll(_data("gaussian", d=2), 0.4, grid=Grid.uniform(2, 11))
    assert two.predict(x[:2]).shape == (1,)
    for bad in (np.zeros((3, 5)), np.zeros((3, 1)), x, np.zeros((2, 2, 2))):
        for method in (two.predict, two.predict_mean):
            with pytest.raises(InputError):
                method(bad)
    with pytest.raises(InputError):
        one.predict(np.zeros((3, 2)))
    # NaN is no point; an infinite coordinate lies outside the support and
    # is clamped to its edge
    for method in (two.predict, two.predict_mean):
        with pytest.raises(InputError, match="NaN"):
            method([[np.nan, 0.1]])
        assert np.array_equal(method([[np.inf, 0.1], [-np.inf, 0.1]]),
                              method([[1.0, 0.1], [-1.0, 0.1]]))
    with pytest.raises(InputError, match="NaN"):
        one.predict(np.array([0.2, np.nan]))
