"""Tests of the benchmark itself: inputs, output checks and tracing.

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from worker import ROOT, _import_sbgam

_import_sbgam()

import checks  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402
from sbgam import Dataset, Grid, fit_ll, fit_nw  # noqa: E402
from sbgam.cli import main as cli_main  # noqa: E402


def _small_data(d=2, n=200, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, d))
    eta = np.sin(np.pi * x[:, 0]) + 0.5 * x[:, 1]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return Dataset.with_support(x, y, -1.0, 1.0)


@pytest.fixture(scope="module", params=["nw", "ll"])
def small_fit(request):
    fitter = fit_nw if request.param == "nw" else fit_ll
    ds = _small_data()
    return fitter(ds, 0.3, grid=Grid.uniform(2, 21), family="bernoulli")


def test_fit_inputs_depend_only_on_the_seed():
    for name in ("ll_d2_dense", "nw_d5_gaussian", "ll_d3_poisson"):
        wl = workloads.WORKLOADS[name]
        a = wl.make_xy(workloads._rng(name, 5))
        b = wl.make_xy(workloads._rng(name, 5))
        c = wl.make_xy(workloads._rng(name, 6))
        assert all(np.array_equal(u, v) for u, v in zip(a, b))
        assert not np.array_equal(a[1], c[1])
        assert a[0].min() >= -1.0 and a[0].max() <= 1.0


def test_clean_fit_passes_its_checks(small_fit):
    assert checks.check_fit(small_fit) == []
    fp = checks.fit_fingerprint(small_fit)
    assert checks.check_fit(small_fit, fp) == []


def _perturbed(fit, how):
    bad = copy.deepcopy(fit)
    diag = bad.diagnostics
    curves = bad.components0 if hasattr(bad, "components0") \
        else bad.components
    if how == "intercept":
        if hasattr(bad, "eta00"):
            bad.eta00 += 1e-3
        else:
            bad.eta0 += 1e-3
    elif how == "curve":
        curves[1][7] += 1e-3
    elif how == "nan":
        curves[0][0] = np.nan
    elif how == "unconverged":
        diag.converged = False
    elif how == "constraint":
        diag.constraint_residuals[-1] = 1e-9
    elif how == "residual":
        diag.residual_norm = 1e-5
    elif how == "sq_drop":
        diag.sq_path[-1] = diag.sq_path[-2] - 1e-6
    return bad


@pytest.mark.parametrize("how", ["intercept", "curve", "nan", "unconverged",
                                 "constraint", "residual", "sq_drop"])
def test_perturbed_fit_is_flagged(small_fit, how):
    fp = checks.fit_fingerprint(small_fit)
    problems = checks.check_fit(_perturbed(small_fit, how), fp)
    assert problems, how


def test_fingerprint_tolerance_follows_tol_outer(small_fit):
    fp = checks.fit_fingerprint(small_fit)
    near = copy.deepcopy(small_fit)
    curves = near.components0 if hasattr(near, "components0") \
        else near.components
    curves[0] += 0.1 * checks.TOL_OUTER
    assert checks.check_fit(near, fp) == []


@pytest.fixture(scope="module")
def study_payload(tmp_path_factory):
    out = tmp_path_factory.mktemp("study")
    code = cli_main(["study", "--model", "1,2", "--estimator", "nw",
                     "--n", "100", "--seed", "4", "--reps", "20",
                     "--bandwidth", "0.3", "--grid-points", "21",
                     "--out-dir", str(out)])
    assert code == 0
    return json.loads((out / "study.json").read_text())


def test_study_checks(study_payload):
    fp = checks.study_fingerprint(study_payload)
    assert checks.check_study(study_payload, fp) == []

    bad = copy.deepcopy(study_payload)
    bad["mise"][0] *= 1.0 + 1e-12
    assert checks.check_study(bad)

    moved = dict(fp, bad_count=fp["bad_count"] + 1,
                 reps_used=fp["reps_used"] - 1)
    assert checks.check_study(study_payload, moved)

    shifted = copy.deepcopy(study_payload)
    shifted["mise_avg"] += 1e-3
    assert checks.check_study(shifted, fp)


def test_recorded_fingerprints_cover_primary_and_holdout_seeds():
    for name in workloads.WORKLOADS:
        for seed in (workloads.PRIMARY_SEED, workloads.HOLDOUT_SEED):
            assert checks.load_fingerprint(name, seed) is not None


def test_self_times_subtract_children():
    # span 0 covers [0, 10] with children 1 [2, 5] and 2 [6, 7];
    # span 3 [3, 4] is a child of span 1
    name = np.array([0, 1, 1, 2])
    start = np.array([0.0, 2.0, 6.0, 3.0])
    end = np.array([10.0, 5.0, 7.0, 4.0])
    parent = np.array([-1, 0, 0, 1])
    own, calls = layertrace.self_times(name, start, end, parent, 3)
    assert np.allclose(own, [6.0, 3.0, 1.0])
    assert list(calls) == [1, 2, 1]


def test_guard_records_nested_calls_once():
    tracer = layertrace.Tracer()
    guard = [0]
    inner = tracer.wrap(lambda: 1, "family.inner", guard=guard)
    outer = tracer.wrap(lambda: inner() + 1, "family.outer", guard=guard)
    assert outer() == 2 and inner() == 1
    assert [tracer.span_names[i] for i in tracer.name] == [
        "family.outer", "family.inner"]
    assert tracer.parent == [-1, -1]


def test_tracer_counts_streamed_fit_and_restores_originals():
    import sbgam.family
    import sbgam.grid
    import sbgam.nw_fit

    before = (sbgam.nw_fit.nw_marginals, sbgam.grid.MarginalAccumulator.add,
              sbgam.family.PoissonLog.q1)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        fit = tracer.entry(fit_nw, "nw_fit.fit")(
            _small_data(d=3, n=60), 0.3, grid=Grid.uniform(3, 11),
            family="bernoulli")
    finally:
        tracer.uninstall()
    assert (sbgam.nw_fit.nw_marginals, sbgam.grid.MarginalAccumulator.add,
            sbgam.family.PoissonLog.q1) == before

    m = layertrace.layer_metrics(tracer, units=1, wall=10.0, ok_weight=1,
                                 bad_reps=None)
    steps = fit.diagnostics.outer_iterations
    assert m["nw_fit.newton_steps"] == steps
    assert m["nw_fit.marginals_calls"] == steps + 1
    # two accumulators (weight and score) per observation per evaluation
    assert m["grid.accumulate_calls"] == 2 * 60 * (steps + 1)
    # q2, q1 and qll per observation per evaluation
    assert m["family.calls"] == 3 * 60 * (steps + 1)
    assert m["ll_fit.newton_steps"] == 0
    assert set(m) == set(layertrace.LAYER_METRICS)
    self_times = [k for k, (_, unit, _) in layertrace.LAYER_METRICS.items()
                  if unit == "s" and k not in ("trace.other_s",
                                               "sim.rep_s_p50")]
    total = sum(m[k] for k in self_times) + m["trace.other_s"]
    assert total == pytest.approx(10.0)


def test_missing_target_leaves_its_layer_absent(monkeypatch, capsys):
    targets = [t for t in layertrace.TARGETS if t[0] != ("grid",)]
    targets.append((("grid",), "sbgam.grid", "MarginalAccumulator.gone",
                    "grid.add"))
    monkeypatch.setattr(layertrace, "TARGETS", targets)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.entry(fit_nw, "nw_fit.fit")(
            _small_data(), 0.3, grid=Grid.uniform(2, 21), family="bernoulli")
    finally:
        tracer.uninstall()
    assert "MarginalAccumulator.gone no longer exists" in \
        capsys.readouterr().err
    m = layertrace.layer_metrics(tracer, units=1, wall=1.0, ok_weight=1,
                                 bad_reps=None)
    assert not any(k.startswith("grid.") for k in m)
    assert m["nw_fit.newton_steps"] > 0


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ll_d2_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_declares_the_reported_metrics():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {k: (unit, better)
            for k, (_, unit, better) in layertrace.LAYER_METRICS.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
