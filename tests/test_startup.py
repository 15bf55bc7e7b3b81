"""Start-up: importing, fitting, studies and the CLI run on numpy alone,
and fits on the fitting core alone.

scipy is loaded only by `kernel_constants`, whose kappa is a `quad`
integral; a worker pool module only by a study with n_jobs > 1; the
study harness `sbgam.sim` only by a study name or `sbgam.cli`; and the
limit formulas `sbgam.oracles` only by `sim.asymptotic_inputs`.  All are
checked in a fresh interpreter, since this test process has long loaded
them.
"""

import json
import os
import subprocess
import sys

import pytest

import sbgam
from sbgam import oracles, sim

SCRIPT = r"""
import json
import sys


def loaded():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy.")
                  or m == "concurrent.futures.process"
                  or m in ("sbgam.sim", "sbgam.oracles"))


report = {}
import sbgam
report["import"] = loaded()

import numpy as np

rng = np.random.default_rng(3)
x = rng.uniform(-1.0, 1.0, size=(80, 2))
eta = np.sin(np.pi * x[:, 0]) + 0.5 * x[:, 1]
responses = {
    "gaussian": eta + rng.normal(scale=0.4, size=80),
    "bernoulli": (rng.random(80) < 1.0 / (1.0 + np.exp(-eta))).astype(float),
    "poisson": rng.poisson(np.exp(eta)).astype(float),
}
for name, y in responses.items():
    data = sbgam.Dataset.with_support(x, y, -1.0, 1.0)
    for fitter in (sbgam.fit_nw, sbgam.fit_ll):
        fit = fitter(data, 0.3, grid=sbgam.Grid.uniform(2, 21), family=name)
        fit.predict_mean(x[:5])
report["fits"] = loaded()

# the first access to a study name loads sim
sbgam.run_study(sbgam.SimModel.from_label("1,1", n=60), reps=2,
                bandwidths=0.3, grid_points=21)
report["study"] = loaded()

import sbgam.cli
report["cli_import"] = loaded()
code = sbgam.cli.main(["study", "--model", "2,1", "--n", "60", "--reps", "2",
                       "--bandwidth", "0.3", "--grid-points", "21",
                       "--out-dir", sys.argv[1]])
report["cli_study"] = loaded() if code == 0 else f"exit code {code}"

try:
    sbgam.kernel_constants("gaussian")
except sbgam.InputError:
    report["unknown_kernel"] = loaded()

kappa = {name: sbgam.kernel_constants(name).kappa.hex()
         for name in ("epanechnikov", "quartic", "triangular")}
report["after_constants"] = "scipy.integrate" in sys.modules

from scipy.integrate import quad
from sbgam.kernels import partial_moment


def direct(name):
    return quad(lambda t: partial_moment(1, -t, name)
                / partial_moment(0, -t, name),
                0.0, 1.0, epsabs=1e-11, epsrel=1e-11)[0].hex()


report["kappa"] = kappa
report["kappa_direct"] = {name: direct(name) for name in kappa}
print(json.dumps(report))
"""


def test_numpy_alone_until_kernel_constants(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path
                                                      if p))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    for stage in ("import", "fits"):
        assert report.get(stage) == [], (stage, report.get(stage))
    for stage in ("study", "cli_import", "cli_study", "unknown_kernel"):
        assert report.get(stage) == ["sbgam.sim"], (stage, report.get(stage))
    assert (tmp_path / "study.json").exists()
    # the first kernel_constants call imports quad, and kappa is the
    # value quad gives to the bit
    assert report["after_constants"]
    assert report["kappa"] == report["kappa_direct"]


def test_study_names_resolve_to_sim_on_first_access():
    from sbgam import SimModel, StudyResult, run_study, true_components

    names = ("SimModel", "StudyResult", "run_study", "true_components")
    assert (SimModel, StudyResult, run_study, true_components) == tuple(
        getattr(sim, name) for name in names)
    assert sbgam.run_study is sim.run_study
    assert set(names) <= set(dir(sbgam)) and set(names) <= set(sbgam.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        sbgam.no_such_name
    inputs = sim.asymptotic_inputs(SimModel.from_label("2,2"), 400, 0.3)
    assert isinstance(inputs, oracles.AsymptoticInputs)
    assert all(isinstance(c, oracles.ComponentTruth)
               for c in inputs.components)
