"""Command line interface: fit a model, simulate data, run a study.

Three subcommands:

* ``sbgam fit``       fit an additive model to a CSV file and write the
                      component curves and a diagnostics JSON;
* ``sbgam simulate``  draw one replication from a study model and write
                      the dataset as CSV;
* ``sbgam study``     run a Monte Carlo study cell and write the summary
                      table (CSV) and the full results (JSON).

The parser is the one table of the options, their types, choices and
defaults; ``sbgam <command> --help`` lists each option with its choices.
Options can also be supplied as a flat JSON object via ``--config``,
keyed by the flag names written with ``-`` or ``_``.  Each value is read
as the flag's value and becomes the command's default, so explicit flags
win over config values.
Exit codes: 0 success, 2 invalid input or command line, 3 fit failure
(diagnostics are still written when available), 4 internal error.  Every
failure leaves a machine readable ``error.json`` in the output directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields

import numpy as np

from .backfit import FitConfig
from .errors import FitError, InputError, NonConvergenceError
from .family import FAMILY_NAMES
from .grid import Dataset, Grid, default_bandwidths, resolve_bandwidths
from .kernels import KERNEL_NAMES
from .ll_fit import fit_ll
from .nw_fit import fit_nw
from .sim import SimModel, gen_covariates, gen_response, run_study, \
    write_study_csv, write_study_json

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """Flags count only when spelled in full, as config keys do, and usage
    errors raise InputError, so `main` exits 2 with error.json.  The
    command parsers are of this class too."""

    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    """The one table of the options; `sbgam <command> --help` prints it."""
    parser = _Parser(prog="sbgam",
                     description="additive quasi-likelihood smoothing")
    sub = parser.add_subparsers(dest="command", required=True)

    # parents share their action objects with every command built on them,
    # so set_defaults on one command changes the others' defaults too;
    # harmless, as main builds a fresh parser for every command line
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with default options")
    common.add_argument("--out-dir", help="output directory (default .)")

    smoothing = argparse.ArgumentParser(add_help=False)
    smoothing.add_argument("--estimator", choices=("nw", "ll"), default="nw")
    smoothing.add_argument("--kernel", choices=KERNEL_NAMES,
                           default="epanechnikov")
    smoothing.add_argument("--bandwidth", type=_parse_bandwidth,
                           help="rescaled bandwidth, scalar or comma list")
    smoothing.add_argument("--bandwidth-scale", type=float, default=1.0)
    smoothing.add_argument("--grid-points", type=int, default=41)

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", default="1,1",
                       help="model label such as 1,1 or 2,2")
    model.add_argument("--n", type=int, default=100)
    model.add_argument("--seed", type=int, default=0)
    model.add_argument("--extra-dims", type=int, default=0)

    p_fit = sub.add_parser("fit", parents=[common, smoothing],
                           help="fit an additive model to CSV data")
    p_fit.add_argument("--data", help="input CSV file with a header row")
    p_fit.add_argument("--response", help="name of the response column")
    p_fit.add_argument("--covariates",
                       help="comma separated covariate column names "
                            "(default: all non-response columns)")
    p_fit.add_argument("--family", choices=FAMILY_NAMES, default="gaussian")
    for f in fields(FitConfig):
        p_fit.add_argument("--" + f.name.replace("_", "-"),
                           type=type(f.default))

    p_sim = sub.add_parser("simulate", parents=[common, model],
                           help="draw data from a study model")
    p_sim.add_argument("--out", default="data.csv", help="output CSV path")

    p_study = sub.add_parser("study", parents=[common, smoothing, model],
                             help="run a Monte Carlo study cell")
    p_study.add_argument("--reps", type=int, default=200)
    p_study.add_argument("--n-jobs", type=int, default=1)
    return parser


def _apply_config(parser, args, argv) -> argparse.Namespace:
    """The values of args' --config file become the command's defaults,
    and argv is parsed again, so explicit flags still win.

    The command's parser reads each config value as it reads the value of
    its flag; a null value counts as not given.
    """
    if not args.config:
        return args
    try:
        with open(args.config) as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise InputError("config file must hold a JSON object")
    command = _command_parser(parser, args.command)
    keys = {a.dest for a in command._actions} - {"help", "config"}
    spelled = {}
    for key, val in loaded.items():
        k = key.replace("-", "_")
        if k not in keys:
            raise InputError(f"unknown config key {key!r}")
        if spelled.setdefault(k, key) != key:
            raise InputError(f"config keys {spelled[k]!r} and {key!r} "
                             f"set the same option")
        if val is not None:
            flag = "--" + k.replace("_", "-")
            try:
                value = getattr(command.parse_args([f"{flag}={val}"]), k)
            except InputError as exc:
                raise InputError(f"config value {val!r} of {key!r}: "
                                 f"{exc}") from None
            command.set_defaults(**{k: value})
    return parser.parse_args(argv)


def _command_parser(parser, command) -> argparse.ArgumentParser:
    """The subcommand's own parser."""
    (commands,) = [a.choices for a in parser._actions if a.dest == "command"]
    return commands[command]


def _parse_bandwidth(spec):
    entries = spec.split(",")
    if not all(p.strip() for p in entries):
        # a missing value would shift the ones after it to other covariates
        raise InputError(f"empty entry in bandwidth {spec!r}")
    try:
        parts = [float(p) for p in entries]
    except ValueError as exc:
        raise InputError(f"cannot parse bandwidth {spec!r}") from exc
    return parts[0] if len(parts) == 1 else np.array(parts)


def _read_csv_dataset(path, response, covariates):
    if path is None:
        raise InputError("no data file given; pass --data")
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
            names = [c.strip() for c in covariates.split(",")
                     if c.strip()]
            missing = [c for c in names if c not in header]
            if missing:
                raise InputError("covariate columns not found: "
                                 + ", ".join(missing))
            if response in names:
                raise InputError(f"response column {response!r} cannot "
                                 f"also be a covariate")
        if len(set(names)) < len(names):
            raise InputError("covariate columns are not distinct: "
                             + ", ".join(names))
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


def _fit_config(args) -> FitConfig | None:
    given = {f.name: getattr(args, f.name) for f in fields(FitConfig)
             if getattr(args, f.name) is not None}
    return FitConfig(**given) if given else None


def _model(args) -> SimModel:
    return SimModel.from_label(args.model, n=args.n, seed=args.seed,
                               extra_dims=args.extra_dims)


def _cmd_fit(args, out_dir) -> int:
    ds, names = _read_csv_dataset(args.data, args.response, args.covariates)
    h = resolve_bandwidths(args.bandwidth, ds.ndim, args.bandwidth_scale)
    if h is None:
        h = default_bandwidths(ds.x, c=args.bandwidth_scale)
    grid = Grid.uniform(ds.ndim, args.grid_points)
    fitter = fit_nw if args.estimator == "nw" else fit_ll

    try:
        fit = fitter(ds, h, grid=grid, family=args.family,
                     kernel=args.kernel, config=_fit_config(args))
    except NonConvergenceError as exc:
        # record the history of the loop that stopped before reraising
        _write_json(os.path.join(out_dir, "fit.json"), {
            "converged": False,
            f"{exc.loop}_changes": [float(v) for v in exc.history],
            "estimator": args.estimator,
            "family": args.family,
            "kernel": args.kernel,
            "bandwidths": [float(v) for v in h],
        })
        raise

    diag = fit.diagnostics
    comps, derivs = fit.curves, None
    if args.estimator == "ll":
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
        with _writing(path), open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    _write_json(os.path.join(out_dir, "fit.json"), {
        "estimator": args.estimator,
        "family": args.family,
        "kernel": args.kernel,
        "n": ds.n,
        "ndim": ds.ndim,
        "covariates": names,
        "bandwidths": [float(v) for v in h],
        "grid_points": args.grid_points,
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


def _cmd_simulate(args, out_dir) -> int:
    model = _model(args)
    rng = np.random.default_rng(np.random.SeedSequence([model.seed]))
    x = gen_covariates(model, rng)
    y = gen_response(model, x, rng)
    path = args.out
    if os.path.dirname(path) == "" and out_dir != ".":
        path = os.path.join(out_dir, path)
    with _writing(path), open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow([f"x{j + 1}" for j in range(model.ndim)] + ["y"])
        for i in range(model.n):
            wr.writerow([f"{v:.12g}" for v in x[i]] + [f"{y[i]:.12g}"])
    return 0


def _cmd_study(args, out_dir) -> int:
    result = run_study(
        _model(args),
        estimator=args.estimator,
        reps=args.reps,
        bandwidths=args.bandwidth,
        bandwidth_scale=args.bandwidth_scale,
        grid_points=args.grid_points,
        kernel=args.kernel,
        n_jobs=args.n_jobs,
    )
    with _writing(out_dir):
        write_study_csv([result], os.path.join(out_dir, "study.csv"))
        write_study_json(result, os.path.join(out_dir, "study.json"))
    return 0


@contextmanager
def _writing(path):
    """Turn an OSError raised inside into an InputError naming the file,
    or else path: an output that cannot be created or written."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write output {exc.filename or path}: "
                         f"{exc.strerror or exc}") from exc


def _write_json(path, payload) -> None:
    with _writing(path), open(path, "w") as fh:
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


def _out_dir_flag(argv) -> str:
    """The --out-dir of a command line that fails to parse, else '.'."""
    pre = _Parser(add_help=False)
    pre.add_argument("--out-dir", nargs="?")
    return pre.parse_known_args(argv)[0].out_dir or "."


def main(argv=None) -> int:
    parser = build_parser()
    out_dir = "."
    try:
        try:
            args = parser.parse_args(argv)
        except InputError:
            out_dir = _out_dir_flag(argv)
            raise
        out_dir = args.out_dir or "."
        args = _apply_config(parser, args, argv)
        out_dir = args.out_dir or "."
        with _writing(out_dir):
            os.makedirs(out_dir, exist_ok=True)
        handler = {"fit": _cmd_fit, "simulate": _cmd_simulate,
                   "study": _cmd_study}[args.command]
        return handler(args, out_dir)
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
