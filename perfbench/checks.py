"""Output checks that decide whether a unit of work counts as passed.

Invariant checks hold for any seed:

* a fit converged, its last constraint residual is at machine precision,
  its estimating-equation residual is tiny and its smoothed
  quasi-likelihood path never decreases beyond rounding;
* a study cell satisfies mise == isb + iv and accounts for every
  replication.

For seeds recorded in fingerprints.json the intercept and component
curves (or the study's screening counts and averages) must also match
the values recorded when the benchmark was defined, within a tolerance
tied to the fitters' default outer tolerance.  Iteration counts are not
checked here; the traced run reports them.
"""

from __future__ import annotations

import json
import os

import numpy as np

# sbgam.FitConfig().tol_outer, the stopping rule every workload fit uses
TOL_OUTER = 1e-6
# a converged fit may differ from its fingerprint by this many outer
# tolerances, scaled by the size of the fitted predictor
FINGERPRINT_FACTOR = 10.0
# recentering leaves constraint integrals at rounding level (about 1e-17)
CONSTRAINT_TOL = 1e-13
# score fields at the converged iterate (about 1e-13 to 1e-10)
RESIDUAL_TOL = 1e-8
# allowed drop of the smoothed quasi-likelihood between steps, relative
SQ_SLACK = 1e-12

FINGERPRINT_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "fingerprints.json")


def fit_curves(fit):
    """Intercept and component curves of an NW or LL fit."""
    if hasattr(fit, "components0"):
        return float(fit.eta00), [np.asarray(c) for c in fit.components0]
    return float(fit.eta0), [np.asarray(c) for c in fit.components]


def _round(v: float) -> float:
    return float(f"{v:.12g}")


def fit_fingerprint(fit) -> dict:
    intercept, curves = fit_curves(fit)
    return {"intercept": _round(intercept),
            "curves": [[_round(v) for v in c] for c in curves]}


def study_fingerprint(payload: dict) -> dict:
    return {
        "bad_count": int(payload["bad_count"]),
        "reps_used": int(payload["reps_used"]),
        "mise_avg": _round(payload["mise_avg"]),
        "eta0_mean": _round(payload["eta0_mean"]),
    }


def check_fit(fit, fingerprint: dict | None = None) -> list:
    """Problems with a fit's output; an empty list means it passed."""
    problems = []
    diag = fit.diagnostics
    if not diag.converged:
        problems.append("fit did not converge")
    if not diag.constraint_residuals:
        problems.append("no constraint residual recorded")
    elif not abs(diag.constraint_residuals[-1]) <= CONSTRAINT_TOL:
        problems.append(
            f"final constraint residual {diag.constraint_residuals[-1]:.3e}"
            f" exceeds {CONSTRAINT_TOL:.0e}")
    if not diag.residual_norm <= RESIDUAL_TOL:
        problems.append(f"residual_norm {diag.residual_norm:.3e} exceeds "
                        f"{RESIDUAL_TOL:.0e}")
    sq = np.asarray(diag.sq_path, dtype=float)
    if sq.size < 2 or not np.all(np.isfinite(sq)):
        problems.append("smoothed quasi-likelihood path is short or "
                        "not finite")
    else:
        drop = sq[:-1] - sq[1:]
        slack = SQ_SLACK * np.maximum(1.0, np.abs(sq[:-1]))
        if np.any(drop > slack):
            k = int(np.argmax(drop - slack))
            problems.append(f"smoothed quasi-likelihood fell by "
                            f"{drop[k]:.3e} at step {k + 1}")
    intercept, curves = fit_curves(fit)
    if not (np.isfinite(intercept)
            and all(np.all(np.isfinite(c)) for c in curves)):
        problems.append("non-finite intercept or component curve")
    elif fingerprint is not None:
        problems.extend(_compare_fit(intercept, curves, fingerprint))
    return problems


def _compare_fit(intercept, curves, fp) -> list:
    ref_curves = [np.asarray(c, dtype=float) for c in fp["curves"]]
    if len(ref_curves) != len(curves) or any(
            r.shape != c.shape for r, c in zip(ref_curves, curves)):
        return ["component curves do not match the fingerprint's shape"]
    scale = abs(fp["intercept"]) + sum(float(np.abs(r).max())
                                       for r in ref_curves)
    tol = FINGERPRINT_FACTOR * TOL_OUTER * max(1.0, scale)
    dev = max([abs(intercept - fp["intercept"])]
              + [float(np.abs(c - r).max())
                 for c, r in zip(curves, ref_curves)])
    if dev > tol:
        return [f"fit differs from its fingerprint by {dev:.3e} "
                f"(tolerance {tol:.3e})"]
    return []


def check_study(payload: dict, fingerprint: dict | None = None) -> list:
    """Problems with one study cell's study.json payload."""
    problems = []
    isb = np.asarray(payload["isb"], dtype=float)
    iv = np.asarray(payload["iv"], dtype=float)
    mise = np.asarray(payload["mise"], dtype=float)
    if not (np.all(np.isfinite(mise)) and np.all(iv >= 0.0)
            and np.all(isb >= 0.0)):
        problems.append("study isb/iv/mise are negative or not finite")
    elif np.any(np.abs(mise - (isb + iv)) > 4e-16 * np.abs(mise)):
        problems.append("study mise != isb + iv")
    if payload["reps_used"] + payload["bad_count"] != payload["reps"]:
        problems.append("study reps_used + bad_count != reps")
    if len(payload["bad_indices"]) != payload["bad_count"]:
        problems.append("study bad_indices do not match bad_count")
    if fingerprint is not None and not problems:
        got = study_fingerprint(payload)
        for key in ("bad_count", "reps_used"):
            if got[key] != fingerprint[key]:
                problems.append(f"study {key} {got[key]} differs from its "
                                f"fingerprint {fingerprint[key]}")
        for key in ("mise_avg", "eta0_mean"):
            dev = abs(payload[key] - fingerprint[key])
            if dev > FINGERPRINT_FACTOR * TOL_OUTER:
                problems.append(f"study {key} differs from its fingerprint "
                                f"by {dev:.3e}")
    return problems


def load_fingerprint(workload: str, seed: int,
                     path: str = FINGERPRINT_FILE) -> dict | None:
    """The recorded fingerprint for a workload and seed, if any."""
    try:
        with open(path) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))
