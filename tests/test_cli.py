"""Command line interface: subcommands, file outputs, exit codes."""

import concurrent.futures
import csv
import inspect
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from sbgam import sim
from sbgam.backfit import FitConfig
from sbgam.cli import build_parser, main
from sbgam.grid import Grid, default_bandwidths, resolve_bandwidths
from sbgam.ll_fit import fit_ll
from sbgam.nw_fit import fit_nw


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


def test_config_key_in_both_spellings_exits_2(tmp_path):
    # the second spelling used to overwrite the first: 41 points, exit 0
    _assert_fit_input_error(tmp_path, [],
                            {"grid-points": 21, "grid_points": 41})
    err = json.loads((tmp_path / "ctlerr" / "error.json").read_text())
    assert "'grid-points'" in err["message"]
    assert "'grid_points'" in err["message"]


_STUDY_FLAGS = ["--model", "2,1", "--n", 80, "--grid-points", 21]


@pytest.mark.parametrize("bandwidth", ["0.3,0.35", 0.3])
def test_study_config_matches_flags(tmp_path, bandwidth):
    flagged = tmp_path / "flags"
    assert _run(["study", *_STUDY_FLAGS, "--reps", 3,
                 "--bandwidth", bandwidth, "--out-dir", flagged]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "2,1", "n": 80, "reps": 3, "grid_points": 21,
        "bandwidth": bandwidth, "out-dir": str(tmp_path / "cfg"),
    }))
    assert _run(["study", "--config", cfg]) == 0
    assert (tmp_path / "cfg" / "study.json").read_bytes() \
        == (flagged / "study.json").read_bytes()

    # flags beat the config: reps 2 written to the flag's directory
    assert _run(["study", *_STUDY_FLAGS, "--reps", 2,
                 "--bandwidth", bandwidth, "--out-dir", flagged]) == 0
    assert _run(["study", "--config", cfg, "--reps", 2,
                 "--out-dir", tmp_path / "both"]) == 0
    assert (tmp_path / "both" / "study.json").read_bytes() \
        == (flagged / "study.json").read_bytes()
    assert json.loads((flagged / "study.json").read_text())["reps"] == 2


def test_simulate_config_matches_flags(tmp_path):
    argv = ["simulate", "--model", "2,2", "--n", 70, "--seed", 5,
            "--extra-dims", 1]
    assert _run([*argv, "--out-dir", tmp_path / "flags"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "2,2", "n": 90, "seed": 5,
                               "extra-dims": 1,
                               "out-dir": str(tmp_path / "cfg")}))
    # --n beats the config's 90, --out-dir its directory
    assert _run(["simulate", "--config", cfg, "--n", 70,
                 "--out-dir", tmp_path / "both"]) == 0
    assert not (tmp_path / "cfg").exists()
    assert (tmp_path / "both" / "data.csv").read_bytes() \
        == (tmp_path / "flags" / "data.csv").read_bytes()
    assert _run(["simulate", "--config", cfg]) == 0
    with open(tmp_path / "cfg" / "data.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "x3", "y"] and len(rows) == 91


def _parameter_defaults(fn):
    return {k: p.default for k, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


def test_cli_defaults_match_the_library():
    # the parser and the library each hold a copy of these defaults
    parser = build_parser()
    study = vars(parser.parse_args(["study"]))
    run = _parameter_defaults(sim.run_study)
    for key in ("estimator", "reps", "bandwidth_scale", "grid_points",
                "kernel", "n_jobs"):
        assert study[key] == run[key], key
    assert study["bandwidth"] is run["bandwidths"] is None
    model = sim.SimModel.from_label(study["model"], n=study["n"],
                                    seed=study["seed"],
                                    extra_dims=study["extra_dims"])
    assert model == sim.SimModel()
    label = _parameter_defaults(sim.SimModel.from_label)
    assert {k: study[k] for k in label} == label

    fit = vars(parser.parse_args(["fit"]))
    for fitter in (fit_nw, fit_ll):
        lib = _parameter_defaults(fitter)
        assert (fit["family"], fit["kernel"]) \
            == (lib["family"], lib["kernel"])
    assert fit["grid_points"] \
        == _parameter_defaults(Grid.uniform)["n_points"]
    assert fit["bandwidth_scale"] \
        == _parameter_defaults(default_bandwidths)["c"] \
        == _parameter_defaults(resolve_bandwidths)["scale"]
    # FitConfig's own defaults apply to every control not given
    assert all(fit[f.name] is None for f in fields(FitConfig))


@pytest.mark.parametrize("command, key", [("fit", "bandwdith"),
                                          ("simulate", "data"),
                                          ("study", "data")])
def test_unknown_config_key_exits_2(tmp_path, command, key):
    # each command accepts exactly its own keys: data is fit's alone
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 0.3}))
    out = tmp_path / "cfgerr"
    code = _run([command, "--config", cfg, "--out-dir", out])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert key in err["message"]


def test_fit_without_data_exits_2(tmp_path):
    out = tmp_path / "nodata"
    _assert_input_error(out, _run(["fit", "--response", "y",
                                   "--out-dir", out]))


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


def test_default_bandwidth_study_json_is_strict_json(tmp_path):
    # each replication picks its own default bandwidths, so the cell's
    # bandwidths are NaN, which study.json writes as null
    out = tmp_path / "study"
    assert _run(["study", "--model", "1,2", "--n", 100, "--reps", 3,
                 "--grid-points", 21, "--out-dir", out]) == 0

    def reject(token):
        raise ValueError(f"study.json holds the non-JSON constant {token}")

    payload = json.loads((out / "study.json").read_text(),
                         parse_constant=reject)
    assert payload["bandwidths"] == [None, None]


def test_fit_wrong_bandwidth_count_exits_2(tmp_path):
    # three bandwidths for two covariates
    _assert_fit_input_error(tmp_path, ["--bandwidth", "0.3,0.3,0.3"], {})


@pytest.mark.parametrize("spec", ["0.3,,0.25", "0.3,0.25,", ",0.3,0.25",
                                  "0.3, ,0.25"])
def test_fit_empty_bandwidth_entry_exits_2(tmp_path, spec):
    # a missing value must not shift the ones after it to other covariates
    _assert_fit_input_error(tmp_path, ["--bandwidth", spec], {})


@pytest.mark.parametrize("flags", [["--bandwidth", "0.3,0.3,0.3"],
                                   ["--bandwidth", "0.3,,0.25"],
                                   ["--bandwidth", "0.3,0.25,"],
                                   ["--n-jobs", 0],
                                   ["--seed", -1],
                                   ["--bandwidth-scale", -1],
                                   ["--bandwidth-scale", 0],
                                   ["--kernel", "gauss"],
                                   ["--bandwidth", "0.9"]],
                         ids=["bandwidth-count", "bandwidth-empty-entry",
                              "bandwidth-trailing-comma", "n-jobs-0",
                              "seed-negative", "bandwidth-scale-negative",
                              "bandwidth-scale-0", "kernel-unknown",
                              "bandwidth-out-of-range"])
def test_study_input_errors_exit_2_before_any_work(tmp_path, monkeypatch,
                                                   flags):
    # neither a replication nor a worker process may start: either would
    # end in an internal error (exit 4) here
    def forbidden(*args, **kwargs):
        raise AssertionError("study work started")

    monkeypatch.setattr(sim, "make_dataset", forbidden)
    # run_study imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
    out = tmp_path / "s"
    _assert_input_error(out, _run(["study", "--model", "1,1", "--n", 80,
                                   "--reps", 2, *flags, "--out-dir", out]))
    assert not (out / "study.json").exists()


def test_simulate_negative_seed_exits_2(tmp_path):
    out = tmp_path / "sim"
    _assert_input_error(out, _run(["simulate", "--seed", -1,
                                   "--out", "data.csv", "--out-dir", out]))
    assert not (out / "data.csv").exists()


@pytest.mark.parametrize("spec", ["y,x1", "x1,x1", "x1, x2,x1"])
def test_fit_covariates_must_be_distinct_and_not_the_response(tmp_path,
                                                              spec):
    _assert_fit_input_error(tmp_path, ["--covariates", spec], {})


def test_fit_repeated_header_column_exits_2(tmp_path):
    # without --covariates every column but the response is a covariate;
    # a name the header repeats would fit its first column twice
    data = tmp_path / "dup.csv"
    rng = np.random.default_rng(6)
    rows = ["x1,x1,y"] + [f"{a:.6f},{b:.6f},{c:.6f}"
                          for a, b, c in rng.uniform(size=(40, 3))]
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "dup"
    _assert_input_error(out, _run(["fit", "--data", data, "--response", "y",
                                   "--out-dir", out]))


@pytest.mark.parametrize("scale", [-1, 0, "nan", "inf"])
def test_fit_non_positive_bandwidth_scale_exits_2(tmp_path, scale):
    # without a bandwidth, a scale of 0 or less used to be clipped to the
    # floor of the rule of thumb and blamed on the grid
    _assert_fit_input_error(tmp_path, ["--bandwidth-scale", scale], {})
    err = json.loads((tmp_path / "ctlerr" / "error.json").read_text())
    assert "bandwidth scale" in err["message"]


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



@pytest.mark.parametrize("argv, path", [
    (["simulate", "--out", "nodir/data.csv"], "nodir/data.csv"),
    (["simulate", "--out-dir", "afile"], "afile"),
    (["simulate", "--out-dir", "afile/sub"], "afile/sub"),
    (["study", "--n", 80, "--reps", 2, "--bandwidth", "0.3",
      "--grid-points", 21, "--out-dir", "st"], "st/study.csv"),
], ids=["out-missing-dir", "out-dir-is-file", "out-dir-under-file",
        "study-csv-is-dir"])
def test_unwritable_output_paths_exit_2(tmp_path, monkeypatch, capsys, argv,
                                        path):
    # each printed "internal error" and exited 4 before: FileNotFoundError,
    # FileExistsError, NotADirectoryError and IsADirectoryError
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    (tmp_path / "st" / "study.csv").mkdir(parents=True)
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write output {path}: "), err


@pytest.mark.parametrize("argv, message, to_out_dir", [
    (["fit", "--grid-points", "abc"],
     "argument --grid-points: invalid int value: 'abc'", True),
    (["study", "--estimator", "xx"],
     "argument --estimator: invalid choice: 'xx'", True),
    (["simulate", "--bogus"], "unrecognized arguments: --bogus", False),
], ids=["fit-bad-int", "study-bad-choice", "simulate-unknown-flag"])
def test_malformed_command_line_exits_2(tmp_path, monkeypatch, capsys,
                                        argv, message, to_out_dir):
    # argparse's own exit 2 left no error.json: the record goes to the
    # command line's --out-dir, else to the working directory
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    argv = argv + (["--out-dir", out] if to_out_dir else [])
    assert _run(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    where = out if to_out_dir else tmp_path
    err = json.loads((where / "error.json").read_text())
    assert err["exit_code"] == 2 and message in err["message"]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--help"])
    assert exc.value.code == 0
    assert "--grid-points" in capsys.readouterr().out


def test_flags_are_taken_only_in_full(tmp_path, monkeypatch):
    # an abbreviated --out-dir was honoured when the command line parsed and
    # ignored when it did not, so error.json went to the working directory
    monkeypatch.chdir(tmp_path)
    assert _run(["simulate", "--n", 30, "--out-d", "Y"]) == 2
    assert not (tmp_path / "Y").exists()
    err = json.loads((tmp_path / "error.json").read_text())
    assert "unrecognized arguments: --out-d Y" in err["message"]
    assert _run(["fit", "--out-dir", "X", "--grid-points", "abc"]) == 2
    err = json.loads((tmp_path / "X" / "error.json").read_text())
    assert err["exit_code"] == 2 and "--grid-points" in err["message"]
