"""The four benchmark workloads and the inputs they are built from.

Every workload is a closed loop with one caller: the next unit of work
starts when the previous one returns.  A unit is one `fit_nw`/`fit_ll`
call for the fit workloads and one `sbgam study` cell, run through
`sbgam.cli.main` in-process, for the study workload.

Fit inputs come from this module's own numpy code, seeded by the
workload seed, so a change to `sbgam.sim` or its random streams cannot
change what the fit workloads measure.  Only the stable entry points
`Dataset`, `Grid`, `fit_nw`, `fit_ll` and `cli.main` are used.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass

import numpy as np

# Seed used while developing the benchmark and the held-out seed that a
# later claim must also hold on (see baseline.json).
PRIMARY_SEED = 0
HOLDOUT_SEED = 17

STUDY_REPS = 1000


def _rng(workload: str, seed: int) -> np.random.Generator:
    tag = zlib.crc32(workload.encode())
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def truncated_normal_pair(rng, n: int, rho: float) -> np.ndarray:
    """Standard normal pair with correlation rho, truncated to [-1, 1]^2."""
    root = np.sqrt(1.0 - rho * rho)
    out = np.empty((n, 2))
    have = 0
    while have < n:
        z = rng.standard_normal((2 * n, 2))
        x1 = z[:, 0]
        x2 = rho * z[:, 0] + root * z[:, 1]
        keep = np.flatnonzero((np.abs(x1) <= 1.0) & (np.abs(x2) <= 1.0))
        keep = keep[: n - have]
        out[have:have + keep.size, 0] = x1[keep]
        out[have:have + keep.size, 1] = x2[keep]
        have += keep.size
    return out


def _pair_predictor(x: np.ndarray) -> np.ndarray:
    """sin(pi x1) + (x2 + sin(pi x2)) / 2, the study design's first pair."""
    return (np.sin(np.pi * x[:, 0])
            + 0.5 * (x[:, 1] + np.sin(np.pi * x[:, 1])))


def _inputs_ll_d2_dense(rng):
    n = 2000
    x = truncated_normal_pair(rng, n, 0.0)
    p = 1.0 / (1.0 + np.exp(-_pair_predictor(x)))
    y = (rng.random(n) < p).astype(float)
    return x, y


def _inputs_nw_d5_gaussian(rng):
    n, d = 1500, 5
    x = rng.uniform(-1.0, 1.0, size=(n, d))
    eta = (0.3 + np.sin(np.pi * x[:, 0])
           + 0.8 * x[:, 1] ** 2 - 0.8 / 3.0
           + 0.6 * x[:, 2]
           - 0.5 * np.abs(x[:, 3]) + 0.25)
    y = eta + rng.normal(scale=0.4, size=n)
    return x, y


def _inputs_ll_d3_poisson(rng):
    n = 300
    x = np.concatenate(
        [truncated_normal_pair(rng, n, 0.0), rng.uniform(-1.0, 1.0, (n, 1))],
        axis=1,
    )
    y = rng.poisson(np.exp(_pair_predictor(x) + 0.1 * x[:, 2]))
    return x, y.astype(float)


@dataclass(frozen=True)
class FitWorkload:
    """One fitter call on fixed seeded data."""

    name: str
    estimator: str
    family: str
    grid_points: int
    bandwidth: float
    make_xy: object

    kind = "fit"

    def setup(self, seed: int, workdir: str):
        """Build the inputs; the returned unit's `run` performs one fit."""
        from sbgam import Dataset, Grid, fit_ll, fit_nw

        x, y = self.make_xy(_rng(self.name, seed))
        ds = Dataset.with_support(x, y, -1.0, 1.0)
        grid = Grid.uniform(ds.ndim, self.grid_points)
        fitter = fit_nw if self.estimator == "nw" else fit_ll
        return FitUnit(self, fitter, ds, grid)


@dataclass
class FitUnit:
    workload: FitWorkload
    fitter: object
    dataset: object
    grid: object

    def run(self):
        wl = self.workload
        return self.fitter(self.dataset, wl.bandwidth, grid=self.grid,
                           family=wl.family)


@dataclass(frozen=True)
class StudyWorkload:
    """One Monte Carlo study cell through the command line entry point."""

    name: str
    model: str
    estimator: str
    n: int
    bandwidth: float
    grid_points: int
    reps: int

    kind = "study"

    def setup(self, seed: int, workdir: str):
        """Build the argument list; the returned unit's `run` runs a cell."""
        from sbgam import cli

        out_dir = os.path.join(workdir, f"study-{self.name}-{os.getpid()}")
        argv = [
            "study", "--model", self.model, "--estimator", self.estimator,
            "--n", str(self.n), "--seed", str(seed),
            "--reps", str(self.reps), "--bandwidth", str(self.bandwidth),
            "--grid-points", str(self.grid_points), "--n-jobs", "1",
            "--out-dir", out_dir,
        ]
        return StudyUnit(self, cli.main, argv, out_dir)


@dataclass
class StudyUnit:
    workload: StudyWorkload
    main: object
    argv: list
    out_dir: str

    def run(self):
        """Run one cell; returns the parsed study.json payload."""
        path = os.path.join(self.out_dir, "study.json")
        if os.path.exists(path):
            os.remove(path)
        code = self.main(list(self.argv))
        if code != 0:
            raise RuntimeError(f"sbgam study exited with code {code}")
        with open(path) as fh:
            return json.load(fh)


WORKLOADS = {
    w.name: w
    for w in (
        # the tier-1 hot spot (criterion 10's configuration): dense LL
        # moments and family evaluation on 2000 x 41 x 41 cells
        FitWorkload("ll_d2_dense", "ll", "bernoulli", 41, 0.25,
                    _inputs_ll_d2_dense),
        # the many-covariate claim: streamed NW marginals with an identity
        # link, demo 05's shape
        FitWorkload("nw_d5_gaussian", "nw", "gaussian", 21, 0.2,
                    _inputs_nw_d5_gaussian),
        # streamed LL with a non-identity link: many tiny family calls
        FitWorkload("ll_d3_poisson", "ll", "poisson", 21, 0.3,
                    _inputs_ll_d3_poisson),
        # many small fits: per-fit fixed costs, sim and cli
        StudyWorkload("study_nw_corr", "1,2", "nw", 100, 0.3, 41,
                      STUDY_REPS),
    )
}
