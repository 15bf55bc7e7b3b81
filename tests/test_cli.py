"""Command line interface: subcommands, file outputs, exit codes."""

import csv
import json
import os

import numpy as np
import pytest

from sbgam import sim
from sbgam.cli import main


def _run(argv):
    return main([str(a) for a in argv])


def _simulate(tmp_path, model="2,1", n=150, seed=1, name="data.csv"):
    out = tmp_path / name
    code = _run(["simulate", "--model", model, "--n", n, "--seed", seed,
                 "--out", out])
    assert code == 0
    return out


def test_simulate_writes_csv(tmp_path):
    out = _simulate(tmp_path, model="1,1", n=60, seed=4)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "y"]
    assert len(rows) == 61
    body = np.array(rows[1:], dtype=float)
    assert body[:, :2].min() >= -1.0 and body[:, :2].max() <= 1.0
    assert set(np.unique(body[:, 2])) <= {0.0, 1.0}


def test_simulate_deterministic(tmp_path):
    a = _simulate(tmp_path, seed=9, name="a.csv")
    b = _simulate(tmp_path, seed=9, name="b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_fit_roundtrip_outputs(tmp_path):
    data = _simulate(tmp_path, model="2,1", n=200, seed=2)
    out = tmp_path / "fit_nw"
    code = _run(["fit", "--data", data, "--response", "y",
                 "--estimator", "nw", "--family", "poisson",
                 "--bandwidth", "0.25", "--out-dir", out])
    assert code == 0

    info = json.loads((out / "fit.json").read_text())
    assert info["converged"] is True
    assert info["estimator"] == "nw"
    assert info["family"] == "poisson"
    assert info["n"] == 200 and info["ndim"] == 2
    assert info["covariates"] == ["x1", "x2"]
    assert info["bandwidths"] == [0.25, 0.25]
    assert info["outer_iterations"] >= 1
    # one finite contraction ratio of the inner sweeps per Newton step
    contractions = info["inner_contractions"]
    assert len(contractions) == info["outer_iterations"]
    assert all(np.isfinite(c) and c >= 0.0 for c in contractions)
    assert info["residual_norm"] < 1e-6
    assert max(info["constraint_residuals"]) < 1e-8 * info["weight_total"]

    for j in (1, 2):
        with open(out / f"component_{j}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x_original", "x_rescaled", "component_value"]
        assert len(rows) == 42
        body = np.array(rows[1:], dtype=float)
        # original axis spans the data support, rescaled spans [0, 1]
        assert body[0, 1] == 0.0 and body[-1, 1] == 1.0
        assert body[0, 0] < body[-1, 0]


def test_fit_ll_includes_derivative_column(tmp_path):
    data = _simulate(tmp_path, model="1,1", n=200, seed=3)
    out = tmp_path / "fit_ll"
    code = _run(["fit", "--data", data, "--response", "y",
                 "--estimator", "ll", "--family", "bernoulli",
                 "--bandwidth", "0.35", "--out-dir", out])
    assert code == 0
    with open(out / "component_1.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "derivative_value"
    assert len(rows[1]) == 4


def test_fit_covariate_subset(tmp_path):
    data = _simulate(tmp_path, model="2,1", n=150, seed=5)
    out = tmp_path / "fit_sub"
    code = _run(["fit", "--data", data, "--response", "y",
                 "--covariates", "x2", "--family", "poisson",
                 "--bandwidth", "0.3", "--out-dir", out])
    assert code == 0
    info = json.loads((out / "fit.json").read_text())
    assert info["ndim"] == 1 and info["covariates"] == ["x2"]
    assert not (out / "component_2.csv").exists()


def test_fit_missing_file_exits_2(tmp_path):
    out = tmp_path / "errdir"
    code = _run(["fit", "--data", tmp_path / "nope.csv",
                 "--response", "y", "--out-dir", out])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["exit_code"] == 2
    assert err["error"] == "InputError"


def test_fit_constant_column_exits_2(tmp_path):
    path = tmp_path / "flat.csv"
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["x1", "x2", "y"])
        rng = np.random.default_rng(0)
        for i in range(40):
            wr.writerow([f"{rng.uniform():.6f}", "0.5",
                         f"{rng.normal():.6f}"])
    out = tmp_path / "flatout"
    code = _run(["fit", "--data", path, "--response", "y",
                 "--out-dir", out])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert "column 2" in err["message"]


def test_fit_bad_numeric_cell_exits_2(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y\n0.1,1.0\noops,2.0\n")
    out = tmp_path / "badout"
    code = _run(["fit", "--data", path, "--response", "y",
                 "--out-dir", out])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert "line 3" in err["message"]


def test_fit_nonconvergence_exits_3(tmp_path):
    data = _simulate(tmp_path, model="2,1", n=200, seed=6)
    out = tmp_path / "hardstop"
    code = _run(["fit", "--data", data, "--response", "y",
                 "--family", "poisson", "--bandwidth", "0.25",
                 "--max-outer", 1, "--out-dir", out])
    assert code == 3
    err = json.loads((out / "error.json").read_text())
    assert err["exit_code"] == 3
    # the partial fit record still carries the iteration history
    info = json.loads((out / "fit.json").read_text())
    assert info["converged"] is False
    assert len(info["outer_changes"]) == 1


def test_fit_inner_nonconvergence_records_inner_changes(tmp_path):
    data = _simulate(tmp_path, model="1,1", n=200, seed=3)
    out = tmp_path / "innerstop"
    code = _run(["fit", "--data", data, "--response", "y",
                 "--max-inner", 1, "--out-dir", out])
    assert code == 3
    err = json.loads((out / "error.json").read_text())
    assert err["exit_code"] == 3
    # the sweeps of the first Newton step stopped: no step completed
    info = json.loads((out / "fit.json").read_text())
    assert info["converged"] is False
    assert "outer_changes" not in info
    assert len(info["inner_changes"]) == 1


def test_config_file_and_flag_precedence(tmp_path):
    data = _simulate(tmp_path, model="1,1", n=150, seed=7)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": str(data), "response": "y", "family": "bernoulli",
        "bandwidth": 0.5, "grid-points": 21,
    }))
    out = tmp_path / "cfgout"
    code = _run(["fit", "--config", cfg, "--bandwidth", "0.4",
                 "--out-dir", out])
    assert code == 0
    info = json.loads((out / "fit.json").read_text())
    # flag beats config; untouched config values survive
    assert info["bandwidths"] == [0.4, 0.4]
    assert info["grid_points"] == 21
    assert info["family"] == "bernoulli"


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bandwdith": 0.3}))
    out = tmp_path / "cfgerr"
    code = _run(["fit", "--config", cfg, "--out-dir", out])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert "bandwdith" in err["message"]


def test_malformed_config_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert _run(["fit", "--config", cfg, "--out-dir", tmp_path]) == 2


@pytest.mark.parametrize("flags, config", [
    (["--tol-outer", "nan"], {}),
    (["--tol-inner", "inf"], {}),
    ([], {"max_outer": 2.5}),
    ([], {"max-inner": True}),
    ([], {"tol_outer": "small"}),
])
def test_invalid_iteration_controls_exit_2(tmp_path, flags, config):
    _assert_fit_input_error(tmp_path, flags, config)


@pytest.mark.parametrize("config", [
    {"bandwidth_scale": "abc"},
    {"grid_points": 41.7},
    {"estimator": "foo"},
])
def test_invalid_config_values_exit_2(tmp_path, config):
    # config values are checked like the flags: a type the flag would
    # reject, a float where it takes an integer, a value outside its choices
    _assert_fit_input_error(tmp_path, [], config)


def _assert_fit_input_error(tmp_path, flags, config):
    data = _simulate(tmp_path, model="1,1", n=60, seed=4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "ctlerr"
    code = _run(["fit", "--config", cfg, "--data", data, "--response", "y",
                 "--out-dir", out, *flags])
    _assert_input_error(out, code)
    assert not (out / "fit.json").exists()


def _assert_input_error(out, code):
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["exit_code"] == 2 and err["error"] == "InputError"


def test_study_smoke_and_determinism(tmp_path):
    out_a = tmp_path / "study_a"
    out_b = tmp_path / "study_b"
    argv = ["study", "--model", "1,1", "--n", 80, "--seed", 12,
            "--reps", 6, "--bandwidth", "0.3", "--grid-points", 21]
    assert _run(argv + ["--out-dir", out_a]) == 0
    assert _run(argv + ["--out-dir", out_b, "--n-jobs", 2]) == 0

    with open(out_a / "study.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model", "metric", "nw_n80"]
    assert [r[1] for r in rows[1:]] == ["ISB", "IV", "MISE"]
    payload = json.loads((out_a / "study.json").read_text())
    assert payload["model"] == "1,1"
    assert payload["reps"] == 6
    assert "elapsed_seconds" not in payload
    assert len(payload["mean_curves"]) == 2

    # byte-identical across runs and across worker counts
    assert (out_a / "study.csv").read_bytes() \
        == (out_b / "study.csv").read_bytes()
    assert (out_a / "study.json").read_bytes() \
        == (out_b / "study.json").read_bytes()


def test_fit_wrong_bandwidth_count_exits_2(tmp_path):
    # three bandwidths for two covariates
    _assert_fit_input_error(tmp_path, ["--bandwidth", "0.3,0.3,0.3"], {})


@pytest.mark.parametrize("flags", [["--bandwidth", "0.3,0.3,0.3"],
                                   ["--n-jobs", 0]],
                         ids=["bandwidth-count", "n-jobs-0"])
def test_study_input_errors_exit_2_before_any_work(tmp_path, monkeypatch,
                                                   flags):
    # neither a replication nor a worker process may start: either would
    # end in an internal error (exit 4) here
    def forbidden(*args, **kwargs):
        raise AssertionError("study work started")

    monkeypatch.setattr(sim, "make_dataset", forbidden)
    monkeypatch.setattr(sim, "ProcessPoolExecutor", forbidden)
    out = tmp_path / "s"
    _assert_input_error(out, _run(["study", "--model", "1,1", "--n", 80,
                                   "--reps", 2, *flags, "--out-dir", out]))
    assert not (out / "study.json").exists()


def test_study_unknown_model_exits_2(tmp_path):
    out = tmp_path / "s"
    assert _run(["study", "--model", "9,9", "--out-dir", out]) == 2
    assert (out / "error.json").exists()


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("sbgam")
    assert exe, "console script not on PATH"
    r = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert r.returncode == 0
    for word in ("fit", "simulate", "study"):
        assert word in r.stdout
