"""Command line interface: fit a model, simulate data, run a study.

Three subcommands:

* ``sbgam fit``       fit an additive model to a CSV file and write the
                      component curves and a diagnostics JSON;
* ``sbgam simulate``  draw one replication from a study model and write
                      the dataset as CSV;
* ``sbgam study``     run a Monte Carlo study cell and write the summary
                      table (CSV) and the full results (JSON).

Options can also be supplied as a flat JSON object via ``--config``;
explicit flags win over config file values, which win over defaults.
Exit codes: 0 success, 2 invalid input, 3 fit failure (diagnostics are
still written when available), 4 internal error.  Every failure leaves a
machine readable ``error.json`` in the output directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .backfit import FitConfig
from .errors import FitError, InputError, NonConvergenceError
from .grid import Dataset, Grid, default_bandwidths, resolve_bandwidths
from .ll_fit import fit_ll
from .nw_fit import fit_nw
from .sim import SimModel, gen_covariates, gen_response, run_study, \
    write_study_csv, write_study_json

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbgam",
        description="additive quasi-likelihood smoothing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with default options")
    common.add_argument("--out-dir", help="output directory (default .)")

    p_fit = sub.add_parser("fit", parents=[common],
                           help="fit an additive model to CSV data")
    p_fit.add_argument("--data", help="input CSV file with a header row")
    p_fit.add_argument("--response", help="name of the response column")
    p_fit.add_argument("--covariates",
                       help="comma separated covariate column names "
                            "(default: all non-response columns)")
    p_fit.add_argument("--estimator", choices=("nw", "ll"))
    p_fit.add_argument("--family",
                       choices=("gaussian", "bernoulli", "poisson"))
    p_fit.add_argument("--kernel")
    p_fit.add_argument("--bandwidth",
                       help="rescaled bandwidth, scalar or comma list")
    p_fit.add_argument("--bandwidth-scale", type=float)
    p_fit.add_argument("--grid-points", type=int)
    p_fit.add_argument("--tol-outer", type=float)
    p_fit.add_argument("--tol-inner", type=float)
    p_fit.add_argument("--max-outer", type=int)
    p_fit.add_argument("--max-inner", type=int)
    p_fit.add_argument("--damping", type=float)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="draw data from a study model")
    p_sim.add_argument("--model", help="model label such as 1,1 or 2,2")
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--extra-dims", type=int)
    p_sim.add_argument("--out", help="output CSV path (default data.csv)")

    p_study = sub.add_parser("study", parents=[common],
                             help="run a Monte Carlo study cell")
    p_study.add_argument("--model")
    p_study.add_argument("--estimator", choices=("nw", "ll"))
    p_study.add_argument("--n", type=int)
    p_study.add_argument("--seed", type=int)
    p_study.add_argument("--extra-dims", type=int)
    p_study.add_argument("--reps", type=int)
    p_study.add_argument("--bandwidth")
    p_study.add_argument("--bandwidth-scale", type=float)
    p_study.add_argument("--grid-points", type=int)
    p_study.add_argument("--kernel")
    p_study.add_argument("--n-jobs", type=int)
    return parser


_DEFAULTS = {
    "fit": {
        "estimator": "nw", "family": "gaussian", "kernel": "epanechnikov",
        "bandwidth": None, "bandwidth_scale": 1.0, "grid_points": 41,
        "covariates": None, "tol_outer": None, "tol_inner": None,
        "max_outer": None, "max_inner": None, "damping": None,
    },
    "simulate": {"model": "1,1", "n": 100, "seed": 0, "extra_dims": 0,
                 "out": "data.csv"},
    "study": {
        "model": "1,1", "estimator": "nw", "n": 100, "seed": 0,
        "extra_dims": 0, "reps": 200, "bandwidth": None,
        "bandwidth_scale": 1.0, "grid_points": 41,
        "kernel": "epanechnikov", "n_jobs": 1,
    },
}


def _merge_options(args: argparse.Namespace, flags: dict) -> dict:
    """Defaults, then config file values, then explicit flags.

    flags maps each option of the command to its argparse action; a config
    value goes through the action's type and choices, as its flag would,
    and a null value counts as not given.
    """
    opts = dict(_DEFAULTS[args.command])
    opts["out_dir"] = "."
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise InputError("config file must hold a JSON object")
        for key, val in loaded.items():
            k = key.replace("-", "_")
            if k not in opts and k not in ("data", "response"):
                raise InputError(f"unknown config key {key!r}")
            if val is not None:
                opts[k] = _check_config_value(flags[k], key, val)
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        if val is not None:
            opts[key] = val
    return opts


def _command_flags(parser, command) -> dict:
    """Each option of the command, by destination, with its action."""
    (commands,) = [a.choices for a in parser._actions if a.dest == "command"]
    return {a.dest: a for a in commands[command]._actions}


def _check_config_value(action, key, val):
    """val converted by the flag's type, as if given on the command line;
    InputError where the flag would be rejected."""
    converted = val
    if action.type is not None:
        try:
            converted = action.type(str(val))
        except ValueError:
            raise InputError(f"config value {val!r} of {key!r} is not a "
                             f"valid {action.type.__name__}") from None
    if action.choices is not None and converted not in action.choices:
        raise InputError(f"config value {val!r} of {key!r} is not one of "
                         + ", ".join(action.choices))
    return converted


def _parse_bandwidth(spec):
    if spec is None:
        return None
    if isinstance(spec, (int, float)):
        return float(spec)
    try:
        parts = [float(p) for p in str(spec).split(",") if p.strip()]
    except ValueError as exc:
        raise InputError(f"cannot parse bandwidth {spec!r}") from exc
    if not parts:
        raise InputError("empty bandwidth specification")
    return parts[0] if len(parts) == 1 else np.array(parts)


def _read_csv_dataset(path, response, covariates):
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise InputError(f"cannot read data file: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError("data file is empty") from None
        header = [c.strip() for c in header]
        if response is None:
            raise InputError("no response column given; pass --response")
        if response not in header:
            raise InputError(
                f"response column {response!r} not found; file has columns "
                + ", ".join(header)
            )
        if covariates is None:
            names = [c for c in header if c != response]
        else:
            names = [c.strip() for c in str(covariates).split(",")
                     if c.strip()]
            missing = [c for c in names if c not in header]
            if missing:
                raise InputError("covariate columns not found: "
                                 + ", ".join(missing))
        if not names:
            raise InputError("no covariate columns left after removing "
                             "the response")
        yidx = header.index(response)
        xidx = [header.index(c) for c in names]
        ys, xs = [], []
        for lineno, rec in enumerate(reader, start=2):
            if not rec or all(not f.strip() for f in rec):
                continue
            try:
                ys.append(float(rec[yidx]))
                xs.append([float(rec[i]) for i in xidx])
            except (ValueError, IndexError):
                raise InputError(
                    f"line {lineno} of {path} is not numeric"
                ) from None
    y = np.asarray(ys)
    x = np.asarray(xs)
    if x.size == 0:
        raise InputError("data file has no data rows")
    return Dataset.from_raw(x, y), names


def _fit_config(opts) -> FitConfig | None:
    keys = ("tol_outer", "tol_inner", "max_outer", "max_inner", "damping")
    given = {k: opts[k] for k in keys if opts.get(k) is not None}
    return FitConfig(**given) if given else None


def _cmd_fit(opts) -> int:
    ds, names = _read_csv_dataset(opts.get("data"), opts.get("response"),
                                  opts.get("covariates"))
    scale = float(opts["bandwidth_scale"])
    h = resolve_bandwidths(_parse_bandwidth(opts["bandwidth"]), ds.ndim, scale)
    if h is None:
        h = default_bandwidths(ds.x, c=scale)
    grid = Grid.uniform(ds.ndim, int(opts["grid_points"]))
    config = _fit_config(opts)
    fitter = fit_nw if opts["estimator"] == "nw" else fit_ll
    out_dir = opts["out_dir"]

    try:
        fit = fitter(ds, h, grid=grid, family=opts["family"],
                     kernel=opts["kernel"], config=config)
    except NonConvergenceError as exc:
        # record the history of the loop that stopped before reraising
        _write_json(os.path.join(out_dir, "fit.json"), {
            "converged": False,
            f"{exc.loop}_changes": [float(v) for v in exc.history],
            "estimator": opts["estimator"],
            "family": opts["family"],
            "kernel": opts["kernel"],
            "bandwidths": [float(v) for v in h],
        })
        raise

    diag = fit.diagnostics
    comps, derivs = fit.curves, None
    if opts["estimator"] == "ll":
        # slopes with respect to the original covariate scale
        derivs = [fit.derivative_curve(j) / (ds.hi[j] - ds.lo[j])
                  for j in range(ds.ndim)]
    for j, name in enumerate(names):
        rows = [["x_original", "x_rescaled", "component_value"]]
        if derivs is not None:
            rows[0].append("derivative_value")
        xr = grid.points[j]
        xo = ds.to_original(xr, j)
        for g in range(xr.size):
            rec = [f"{xo[g]:.12g}", f"{xr[g]:.12g}", f"{comps[j][g]:.12g}"]
            if derivs is not None:
                rec.append(f"{derivs[j][g]:.12g}")
            rows.append(rec)
        path = os.path.join(out_dir, f"component_{j + 1}.csv")
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    _write_json(os.path.join(out_dir, "fit.json"), {
        "estimator": opts["estimator"],
        "family": opts["family"],
        "kernel": opts["kernel"],
        "n": ds.n,
        "ndim": ds.ndim,
        "covariates": names,
        "bandwidths": [float(v) for v in h],
        "grid_points": int(opts["grid_points"]),
        "intercept": float(fit.intercept),
        "converged": bool(diag.converged),
        "outer_iterations": int(diag.outer_iterations),
        "outer_changes": [float(v) for v in diag.outer_changes],
        "inner_sweep_counts": [int(v) for v in diag.inner_sweep_counts],
        "inner_contractions": [float(v) for v in diag.inner_contractions],
        "residual_norm": float(diag.residual_norm),
        "smoothed_ql_path": [float(v) for v in diag.sq_path],
        "constraint_residuals": [float(v)
                                 for v in diag.constraint_residuals],
        "weight_total": float(diag.weight_total),
    })
    return 0


def _cmd_simulate(opts) -> int:
    model = SimModel.from_label(str(opts["model"]), n=int(opts["n"]),
                                seed=int(opts["seed"]),
                                extra_dims=int(opts["extra_dims"]))
    rng = np.random.default_rng(np.random.SeedSequence([model.seed]))
    x = gen_covariates(model, rng)
    y = gen_response(model, x, rng)
    path = opts["out"]
    if os.path.dirname(path) == "" and opts["out_dir"] != ".":
        path = os.path.join(opts["out_dir"], path)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow([f"x{j + 1}" for j in range(model.ndim)] + ["y"])
        for i in range(model.n):
            wr.writerow([f"{v:.12g}" for v in x[i]] + [f"{y[i]:.12g}"])
    return 0


def _cmd_study(opts) -> int:
    model = SimModel.from_label(str(opts["model"]), n=int(opts["n"]),
                                seed=int(opts["seed"]),
                                extra_dims=int(opts["extra_dims"]))
    result = run_study(
        model,
        estimator=opts["estimator"],
        reps=int(opts["reps"]),
        bandwidths=_parse_bandwidth(opts["bandwidth"]),
        bandwidth_scale=float(opts["bandwidth_scale"]),
        grid_points=int(opts["grid_points"]),
        kernel=opts["kernel"],
        n_jobs=int(opts["n_jobs"]),
    )
    out_dir = opts["out_dir"]
    write_study_csv([result], os.path.join(out_dir, "study.csv"))
    write_study_json(result, os.path.join(out_dir, "study.json"))
    return 0


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _record_error(out_dir, exc, code) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(os.path.join(out_dir, "error.json"), {
            "error": type(exc).__name__,
            "message": str(exc),
            "exit_code": code,
        })
    except OSError:
        pass


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = getattr(args, "out_dir", None) or "."
    try:
        opts = _merge_options(args, _command_flags(parser, args.command))
        out_dir = str(opts.get("out_dir") or ".")
        os.makedirs(out_dir, exist_ok=True)
        handler = {"fit": _cmd_fit, "simulate": _cmd_simulate,
                   "study": _cmd_study}[args.command]
        return handler(opts)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _record_error(out_dir, exc, 2)
        return 2
    except FitError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        _record_error(out_dir, exc, 3)
        return 3
    except Exception as exc:  # noqa: BLE001 - map anything else to code 4
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        _record_error(out_dir, exc, 4)
        return 4


if __name__ == "__main__":
    sys.exit(main())
