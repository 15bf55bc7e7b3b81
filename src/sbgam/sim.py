"""Monte Carlo study harness for the additive quasi-likelihood fitters.

The generating model has additive predictor

    eta(x) = sin(pi x_1) + 0.5 (x_2 + sin(pi x_2)) + 0.1 (x_3 + ... + x_d)

on [-1, 1]^d.  The first two covariates are a bivariate standard normal
pair with correlation rho, truncated to the square by rejection; any
extra covariates are independent uniforms.  Responses are Bernoulli with
logit link or Poisson with log link.

Model labels follow the "i,j" convention: i = 1 Bernoulli, i = 2 Poisson;
j = 1 independent covariates, j = 2 correlated with rho = 0.9.

The reported truth is the centered decomposition of eta under the
limiting weight density of the smoothers, so the study compares each
fitted component against the population quantity it actually estimates.
For the Bernoulli models every centering constant vanishes by symmetry
(eta is odd under the joint sign flip and the weight is invariant); for
the Poisson models the constants are computed by Gauss-Legendre
quadrature and the extra dimensions factor out of the integrals.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial

import numpy as np

from . import kernels
from .errors import FitError, InputError, is_number, require_integer
from .family import get_family
from .grid import (Dataset, Grid, default_bandwidths, resolve_bandwidths,
                   trapz_weights)
from .ll_fit import fit_ll
from .nw_fit import fit_nw

__all__ = [
    "SimModel",
    "MODEL_LABELS",
    "gen_covariates",
    "gen_response",
    "make_dataset",
    "TruthSpec",
    "true_components",
    "pair_density",
    "asymptotic_inputs",
    "StudyResult",
    "run_study",
    "write_study_csv",
    "write_study_json",
]


MODEL_LABELS = {
    "1,1": ("bernoulli", 0.0),
    "1,2": ("bernoulli", 0.9),
    "2,1": ("poisson", 0.0),
    "2,2": ("poisson", 0.9),
}


@dataclass(frozen=True)
class SimModel:
    """One simulation setting: response family, correlation, size, seed."""

    response: str = "bernoulli"
    rho: float = 0.0
    extra_dims: int = 0
    n: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.response not in ("bernoulli", "poisson"):
            raise InputError(
                f"unknown response family {self.response!r} for simulation"
            )
        if not (is_number(self.rho) and -1.0 < self.rho < 1.0):
            raise InputError("rho must be a number strictly inside (-1, 1)")
        require_integer("extra_dims", self.extra_dims, 0)
        require_integer("n", self.n, 10)
        require_integer("seed", self.seed, 0)

    @classmethod
    def from_label(cls, label: str, n: int = 100, seed: int = 0,
                   extra_dims: int = 0) -> "SimModel":
        key = str(label).strip().strip("()").replace(" ", "")
        if key not in MODEL_LABELS:
            known = ", ".join(sorted(MODEL_LABELS))
            raise InputError(f"unknown model label {label!r}; expected one "
                             f"of {known}")
        response, rho = MODEL_LABELS[key]
        return cls(response=response, rho=rho, extra_dims=extra_dims,
                   n=n, seed=seed)

    @property
    def ndim(self) -> int:
        return 2 + self.extra_dims

    @property
    def label(self) -> str:
        for key, (resp, rho) in MODEL_LABELS.items():
            if resp == self.response and rho == self.rho:
                return key
        return "custom"


def _raw_component(j: int):
    """Uncentered j-th component function on [-1, 1] and derivatives."""
    if j == 0:
        return (lambda x: np.sin(np.pi * x),
                lambda x: np.pi * np.cos(np.pi * x),
                lambda x: -np.pi ** 2 * np.sin(np.pi * x))
    if j == 1:
        return (lambda x: 0.5 * (x + np.sin(np.pi * x)),
                lambda x: 0.5 * (1.0 + np.pi * np.cos(np.pi * x)),
                lambda x: -0.5 * np.pi ** 2 * np.sin(np.pi * x))
    return (lambda x: 0.1 * x,
            lambda x: 0.1 * np.ones_like(np.asarray(x, dtype=float)),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)))


def eta_raw(model: SimModel, x: np.ndarray) -> np.ndarray:
    """Additive predictor of the generating model, original coordinates."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    for j in range(model.ndim):
        out = out + _raw_component(j)[0](x[..., j])
    return out


def gen_covariates(model: SimModel, rng: np.random.Generator) -> np.ndarray:
    """Draw n covariate rows: truncated normal pair plus uniform extras."""
    n, rho = model.n, model.rho
    root = np.sqrt(1.0 - rho * rho)
    pair = np.empty((n, 2))
    have = 0
    while have < n:
        m = max(32, int((n - have) / 0.4) + 1)
        z = rng.standard_normal((m, 2))
        x1 = z[:, 0]
        x2 = rho * z[:, 0] + root * z[:, 1]
        keep = (np.abs(x1) <= 1.0) & (np.abs(x2) <= 1.0)
        got = min(int(keep.sum()), n - have)
        idx = np.flatnonzero(keep)[:got]
        pair[have:have + got, 0] = x1[idx]
        pair[have:have + got, 1] = x2[idx]
        have += got
    if model.extra_dims == 0:
        return pair
    extras = rng.uniform(-1.0, 1.0, size=(n, model.extra_dims))
    return np.concatenate([pair, extras], axis=1)


def gen_response(model: SimModel, x: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    eta = eta_raw(model, x)
    if model.response == "bernoulli":
        p = get_family("bernoulli").mean(eta)
        return (rng.random(x.shape[0]) < p).astype(float)
    return rng.poisson(np.exp(eta)).astype(float)


def make_dataset(model: SimModel, rng: np.random.Generator) -> Dataset:
    """One replication's data, rescaled with the known [-1, 1] support."""
    x = gen_covariates(model, rng)
    y = gen_response(model, x, rng)
    return Dataset.with_support(x, y, -1.0, 1.0)


# ---------------------------------------------------------------------------
# population truth


def _gl(n: int, lo: float = -1.0, hi: float = 1.0):
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _normal_pair(x1, x2, rho: float):
    """Density of the standard normal pair with correlation rho."""
    det = 1.0 - rho * rho
    quad = (x1 * x1 - 2.0 * rho * x1 * x2 + x2 * x2) / det
    return np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(det))


@lru_cache(maxsize=None)
def _square_mass(rho: float) -> float:
    """Mass of the normal pair on [-1, 1]^2, by 201-point Gauss-Legendre."""
    g, w = _gl(201)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    return float(w @ _normal_pair(gx, gy, rho) @ w)


def pair_density(x1, x2, rho: float):
    """Density of the pair, standard normal truncated to the square."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return _normal_pair(x1, x2, rho) / _square_mass(rho)


def density_original(model: SimModel, X: np.ndarray) -> np.ndarray:
    """Covariate density on [-1, 1]^d."""
    X = np.asarray(X, dtype=float)
    out = pair_density(X[..., 0], X[..., 1], model.rho)
    if model.extra_dims:
        out = out * 0.5 ** model.extra_dims
    return out


@dataclass(frozen=True)
class TruthSpec:
    """Centered population decomposition of the generating predictor."""

    model: SimModel
    eta0_star: float
    constants: tuple

    def component(self, j: int, x) -> np.ndarray:
        return _raw_component(j)[0](np.asarray(x, dtype=float)) \
            - self.constants[j]

    def component_d1(self, j: int, x) -> np.ndarray:
        return _raw_component(j)[1](np.asarray(x, dtype=float))

    def component_d2(self, j: int, x) -> np.ndarray:
        return _raw_component(j)[2](np.asarray(x, dtype=float))


def true_components(model: SimModel, nodes: int = 201) -> TruthSpec:
    """Center the generating components under the limiting weight density.

    Bernoulli: all constants are zero because the predictor is odd under
    the joint sign flip of the covariates while the weight density is
    invariant.  Poisson: the weight is p(x) exp(eta(x)), the extra
    dimensions factor out, and the pair constants reduce to 2-D
    quadratures.
    """
    d = model.ndim
    if model.response == "bernoulli":
        consts = (0.0,) * d
        return TruthSpec(model=model, eta0_star=0.0, constants=consts)

    g, w = _gl(nodes)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    p = pair_density(gx, gy, model.rho)
    f1 = _raw_component(0)[0]
    f2 = _raw_component(1)[0]
    core = p * np.exp(f1(gx) + f2(gy))
    mass = float(w @ core @ w)
    c1 = float(w @ (f1(gx) * core) @ w) / mass
    c2 = float(w @ (core * f2(gy)) @ w) / mass
    consts = [c1, c2]
    for j in range(2, d):
        fe = _raw_component(j)[0]
        ew = np.exp(fe(g))
        consts.append(float((fe(g) * ew) @ w) / float(ew @ w))
    return TruthSpec(model=model, eta0_star=float(sum(consts)),
                     constants=tuple(consts))


def asymptotic_inputs(model: SimModel, n: int, bandwidths,
                      kernel: str = "epanechnikov") -> "AsymptoticInputs":
    """Limit-formula inputs for a simulation model, in rescaled coordinates.

    bandwidths are on the rescaled [0, 1] scale, matching what the fitters
    take; deltas are n^{1/5} times those.  InputError, before the truth is
    built, unless there are one or d bandwidths in (0, 1/2], n is an
    integer of at least 1 and kernel names a base kernel.
    """
    # the only use of oracles in this module: fits and studies load
    # neither it nor the limit formulas
    from .oracles import AsymptoticInputs, ComponentTruth

    d = model.ndim
    h = kernels.validate_bandwidths(bandwidths, d)
    require_integer("n", n, 1)
    kernels.validate_kernel(kernel)
    truth = true_components(model)
    comps = []
    for j in range(d):
        raw_v, raw_d1, raw_d2 = _raw_component(j)
        cj = truth.constants[j]
        comps.append(ComponentTruth(
            value=lambda u, f=raw_v, c=cj: f(2.0 * np.asarray(u) - 1.0) - c,
            d1=lambda u, f=raw_d1: 2.0 * f(2.0 * np.asarray(u) - 1.0),
            d2=lambda u, f=raw_d2: 4.0 * f(2.0 * np.asarray(u) - 1.0),
        ))

    scale = 2.0 ** d

    def density_unit(U):
        return density_original(model, 2.0 * np.asarray(U) - 1.0) * scale

    # chain rule: d/du = 2 d/dx, and the unit density already carries the
    # 2^d volume factor through density_original
    def grad_unit(U, j):
        if j >= 2:
            return np.zeros(np.asarray(U).shape[:-1])
        X = 2.0 * np.asarray(U) - 1.0
        p_unit = density_original(model, X) * scale
        det = 1.0 - model.rho * model.rho
        dlog = -(X[..., j] - model.rho * X[..., 1 - j]) / det
        return 2.0 * p_unit * dlog

    return AsymptoticInputs(
        family=get_family(model.response),
        eta0=truth.eta0_star,
        components=tuple(comps),
        density=density_unit,
        deltas=n ** 0.2 * h,
        kernel=kernel,
        density_grad=grad_unit,
    )


# ---------------------------------------------------------------------------
# study driver


@dataclass(frozen=True)
class StudyResult:
    """Aggregated Monte Carlo results for one (model, estimator, n) cell."""

    model_label: str
    estimator: str
    n: int
    reps: int
    seed: int
    bandwidths: np.ndarray
    grid_points: int
    kernel: str
    isb: np.ndarray
    iv: np.ndarray
    mise: np.ndarray
    isb_avg: float
    iv_avg: float
    mise_avg: float
    bad_count: int
    bad_indices: tuple
    reps_used: int
    eta0_mean: float
    eta0_star: float
    axes: list = field(repr=False)
    mean_curves: list = field(repr=False)
    var_curves: list = field(repr=False)
    truth_curves: list = field(repr=False)
    elapsed_seconds: float = 0.0

    def to_dict(self) -> dict:
        """The `study.json` payload, in plain Python lists and numbers:
        every field but var_curves and the wall time, which keeps it
        deterministic, with model_label written as "model" and a
        non-finite number as None."""
        out = {f.name: _plain(getattr(self, f.name)) for f in fields(self)
               if f.name not in ("var_curves", "elapsed_seconds")}
        out["model"] = out.pop("model_label")
        return out


def _plain(value):
    """numpy arrays and scalars, in lists and tuples too, as plain Python;
    a non-finite float, such as a default bandwidth's NaN, as None."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _study_rep(model: SimModel, estimator: str, bandwidths,
               bandwidth_scale: float, grid: Grid, kernel: str,
               truth_eta0: float, truth_curves: list, rep: int):
    """Replication rep of a study cell: simulate, fit, compare to truth.

    bandwidths are `resolve_bandwidths`' (d,) result, or None for the
    default of this replication's data; grid is the study's grid.  Returns
    (eta0_hat, curves, l2, error_message); curves is None when the fit
    failed outright.
    """
    rng = np.random.default_rng(np.random.SeedSequence([model.seed, rep]))
    ds = make_dataset(model, rng)
    d = model.ndim
    h = (default_bandwidths(ds.x, c=bandwidth_scale) if bandwidths is None
         else bandwidths)
    fitter = fit_nw if estimator == "nw" else fit_ll
    try:
        fit = fitter(ds, h, grid=grid, family=model.response, kernel=kernel)
    except FitError as exc:
        return np.nan, None, np.inf, str(exc)

    # squared L2 distance of the full predictor over the original box,
    # via the exact additive decomposition (unit-cube integrals times 2^d)
    eta0_hat, curves = fit.intercept, fit.curves
    tw = grid.weights
    delta0 = eta0_hat - truth_eta0
    mu = 0.0
    spread = 0.0
    for j in range(d):
        dj = curves[j] - truth_curves[j]
        mj = float(tw[j] @ dj)
        vj = float(tw[j] @ (dj * dj))
        mu += mj
        spread += vj - mj * mj
    l2 = 2.0 ** d * ((delta0 + mu) ** 2 + spread)
    return eta0_hat, [np.asarray(c) for c in curves], l2, None


def run_study(
    model: SimModel,
    estimator: str = "nw",
    reps: int = 200,
    bandwidths=None,
    bandwidth_scale: float = 1.0,
    grid_points: int = 41,
    kernel: str = "epanechnikov",
    n_jobs: int = 1,
    bad_threshold: float = 50.0,
    interior_fraction: float = 0.9,
) -> StudyResult:
    """Run a Monte Carlo study cell and aggregate bias and variance.

    Each replication draws its own data from a per-replication stream, so
    results do not depend on n_jobs.  Replications whose fit fails or
    whose fitted predictor is farther than bad_threshold from the truth
    in squared L2 norm are counted bad, mirroring the usual practice of
    screening out diverged fits; the summaries average the kept ones.
    bad_threshold must be positive; inf keeps every converged fit.

    ISB, IV and MISE are integrals over the central interior_fraction of
    each axis (at least two grid points), in original coordinates;
    mise = isb + iv holds exactly.  The scalar summaries average the
    first two components.
    """
    if estimator not in ("nw", "ll"):
        raise InputError(f"unknown estimator {estimator!r}; use 'nw' or 'll'")
    require_integer("reps", reps, 1)
    if not (is_number(interior_fraction) and 0.0 < interior_fraction <= 1.0):
        raise InputError("interior_fraction must be a number in (0, 1]")
    if not (is_number(bad_threshold) and bad_threshold > 0.0):
        raise InputError("bad_threshold must be a positive number")
    require_integer("n_jobs", n_jobs, 1)
    t_start = time.perf_counter()
    d = model.ndim
    # checked once, before any replication runs
    h = resolve_bandwidths(bandwidths, d, bandwidth_scale)
    if h is not None:
        kernels.validate_bandwidths(h, d)
    kernels.validate_kernel(kernel)
    grid = Grid.uniform(d, grid_points)
    lo_frac = 0.5 * (1.0 - interior_fraction)
    u = grid.points[0]
    mask = (u >= lo_frac - 1e-12) & (u <= 1.0 - lo_frac + 1e-12)
    if mask.sum() < 2:
        raise InputError(f"interior_fraction {interior_fraction} keeps "
                         f"{mask.sum()} grid point(s); ISB needs two")
    truth = true_components(model)
    axes = [2.0 * grid.points[j] - 1.0 for j in range(d)]
    truth_curves = [truth.component(j, axes[j]) for j in range(d)]

    # both maps return results in replication order
    rep_fn = partial(_study_rep, model, estimator, h, bandwidth_scale, grid,
                     kernel, truth.eta0_star, truth_curves)
    if n_jobs == 1:
        raw = list(map(rep_fn, range(reps)))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            raw = list(pool.map(rep_fn, range(reps), chunksize=4))

    bad, eta0_kept, curves_kept = [], [], []
    for rep, (eta0_hat, curves, l2, _) in enumerate(raw):
        if curves is None or l2 > bad_threshold:
            bad.append(rep)
        else:
            eta0_kept.append(eta0_hat)
            curves_kept.append(curves)
    if not curves_kept:
        raise FitError(
            f"all {reps} replications failed or were screened out for "
            f"model {model.label}, estimator {estimator}"
        )

    stack = np.array(curves_kept)  # (kept, d, G)
    mean_curves = list(stack.mean(axis=0))
    var_curves = list(stack.var(axis=0))

    isb = np.empty(d)
    iv = np.empty(d)
    for j in range(d):
        w_in = trapz_weights(axes[j][mask])
        bias = mean_curves[j][mask] - truth_curves[j][mask]
        isb[j] = float(w_in @ (bias * bias))
        iv[j] = float(w_in @ var_curves[j][mask])
    mise = isb + iv
    k = min(2, d)

    return StudyResult(
        model_label=model.label,
        estimator=estimator,
        n=model.n,
        reps=reps,
        seed=model.seed,
        bandwidths=h if h is not None else np.full(d, np.nan),
        grid_points=grid_points,
        kernel=kernel,
        isb=isb,
        iv=iv,
        mise=mise,
        isb_avg=float(isb[:k].mean()),
        iv_avg=float(iv[:k].mean()),
        mise_avg=float(mise[:k].mean()),
        bad_count=len(bad),
        bad_indices=tuple(bad),
        reps_used=len(curves_kept),
        eta0_mean=float(np.mean(eta0_kept)),
        eta0_star=truth.eta0_star,
        axes=axes,
        mean_curves=mean_curves,
        var_curves=var_curves,
        truth_curves=truth_curves,
        elapsed_seconds=time.perf_counter() - t_start,
    )


def write_study_csv(results, path) -> None:
    """Tabulate study cells: one row per model and metric, one column per
    (estimator, n) combination, in the usual report layout."""
    import csv

    results = list(results)
    cols = sorted({(r.estimator, r.n) for r in results})
    cells = {(r.model_label, r.estimator, r.n): r for r in results}
    models = list(dict.fromkeys(r.model_label for r in results))
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["model", "metric"]
                    + [f"{est}_n{n}" for est, n in cols])
        for label in models:
            for metric in ("isb", "iv", "mise"):
                row = [label, metric.upper()]
                for est, n in cols:
                    r = cells.get((label, est, n))
                    row.append(f"{getattr(r, metric + '_avg'):.6f}"
                               if r is not None else "")
                wr.writerow(row)


def write_study_json(result, path) -> None:
    """Write one study cell's `StudyResult.to_dict` as `study.json`."""
    import json

    with open(path, "w") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
