"""Fit a two-covariate binary model and inspect the additive pieces.

Draws correlated covariates, generates Bernoulli responses through a
logit-additive model, and shows how the fit splits the predictor into an
intercept plus one centered curve per covariate.  Also demonstrates the
centering constraint (each curve integrates to zero against the fitted
local weight density), the agreement with the full-system Newton oracle,
which solves the same estimating equations without backfitting sweeps,
and out-of-sample prediction on the probability scale.

Run:  python3 demos/02_additive_decomposition.py
"""

import numpy as np

from sbgam import Dataset, FitConfig, fit_nw
from sbgam.oracles import dense_newton

rng = np.random.default_rng(7)
n = 600

# correlated pair on a known square
z1 = rng.normal(size=4 * n)
z2 = 0.6 * z1 + 0.8 * rng.normal(size=4 * n)
keep = (np.abs(z1) < 1.5) & (np.abs(z2) < 1.5)
x = np.column_stack([z1[keep][:n], z2[keep][:n]])

f1 = lambda t: np.sin(np.pi * t / 1.5)
f2 = lambda t: 0.6 * t * t - 0.45
eta = -0.2 + f1(x[:, 0]) + f2(x[:, 1])
y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)

ds = Dataset.with_support(x, y, -1.5, 1.5)
fit = fit_nw(ds, [0.25, 0.25], family="bernoulli",
             config=FitConfig(tol_outer=1e-9))

print(f"intercept: {fit.eta0:+.4f} (truth -0.2 up to centering shifts)")
diag = fit.diagnostics
print(f"outer steps: {diag.outer_iterations}, "
      f"final change {diag.outer_changes[-1]:.2e}")
print(f"objective path: "
      + " -> ".join(f"{v:.5f}" for v in diag.sq_path))

# the constraint pins each curve: integral of curve * weight marginal = 0
grid = fit.grid
for j in range(2):
    resid = max(diag.constraint_residuals) / diag.weight_total
    print(f"component {j + 1}: centering residual <= {resid:.2e} * mass")

# the dense Newton oracle solves the same equations by one direct solve
# per Newton step, with no backfitting sweeps
const, (curves,) = dense_newton(ds, fit.bandwidths, grid, "bernoulli")
gap = max([abs(fit.eta0 - const)]
          + [np.abs(fit.components[j] - curves[j]).max() for j in range(2)])
print(f"sup gap to the dense Newton oracle: {gap:.2e}")

# fitted curves against the truth on the working grid; the fit centers
# its curves against the data-driven weight density, the raw truth is not
# centered at all, so align both to interior mean zero before comparing
for j, truth in enumerate((f1, f2)):
    xo = ds.to_original(grid.points[j], j)
    mid = (grid.points[j] > 0.15) & (grid.points[j] < 0.85)
    tv = truth(xo)
    tv = tv - tv[mid].mean()
    fv = fit.components[j] - fit.components[j][mid].mean()
    err = np.abs(fv - tv)
    print(f"component {j + 1}: interior max error {err[mid].max():.3f}, "
          f"boundary-included {err.max():.3f}")

# probability predictions at fresh points
pts = np.array([[0.0, 0.0], [1.0, -1.0], [-1.2, 1.2]])
probs = fit.predict_mean(pts)
for row, p in zip(pts, probs):
    true_p = 1.0 / (1.0 + np.exp(-(-0.2 + f1(row[0]) + f2(row[1]))))
    print(f"P(y=1 | x={row}): fitted {p:.3f}, truth {true_p:.3f}")
