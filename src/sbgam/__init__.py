"""Additive quasi-likelihood models by smoothed backfitting.

Fits g(m(x)) = eta_0 + sum_j eta_j(x_j) for Gaussian, Bernoulli and
Poisson responses with local constant or local linear kernel smoothing.
The outer loop is a Newton linearization of the smoothed quasi-likelihood;
each linearized problem is solved by backfitting the component curves on
a product grid.

Main entry points: `fit_nw` and `fit_ll` take a `Dataset` (use
`Dataset.from_raw` or `Dataset.with_support` to rescale covariates onto
the unit cube) plus bandwidths on the rescaled scale and return a fit
object with the intercept, component curves and diagnostics.  `run_study`
drives Monte Carlo experiments; the `sbgam` console script exposes
fitting, simulation and studies from the shell.
"""

from .backfit import FitConfig, FitDiagnostics
from .errors import (
    DegenerateWeightError,
    FitError,
    InitializerError,
    InputError,
    NonConvergenceError,
    SbgamError,
)
from .family import (
    BernoulliLogit,
    Family,
    GaussianIdentity,
    PoissonLog,
    QuasiFamily,
    get_family,
)
from .grid import Dataset, Grid, default_bandwidths
from .kernels import KernelConstants, kernel_constants
from .ll_fit import LlFit, fit_ll
from .nw_fit import NwFit, fit_nw
from .sim import SimModel, StudyResult, run_study, true_components

__version__ = "0.1.0"

__all__ = [
    "fit_nw",
    "fit_ll",
    "NwFit",
    "LlFit",
    "FitConfig",
    "FitDiagnostics",
    "Dataset",
    "Grid",
    "default_bandwidths",
    "Family",
    "GaussianIdentity",
    "BernoulliLogit",
    "PoissonLog",
    "QuasiFamily",
    "get_family",
    "KernelConstants",
    "kernel_constants",
    "SimModel",
    "StudyResult",
    "run_study",
    "true_components",
    "SbgamError",
    "InputError",
    "InitializerError",
    "FitError",
    "NonConvergenceError",
    "DegenerateWeightError",
    "__version__",
]
