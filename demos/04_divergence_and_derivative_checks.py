"""Numerical verification of the formulas behind the bounds.

Two ingredients make the routing programs valid lower bounds: the Fisher
information of each mixing direction (the small-t limit of chi-square /
t^2, and of D / t^2 with D = log(1 + chi-square), the Renyi divergence of
order 2) and the closed-form derivatives of the projector map on the
rotation group.  Both have independent numerical checks: divergence
ratios extrapolated to t = 0, and finite differences of the exact
exponentiated curves.
"""

import numpy as np

from subspace_bounds import (
    CovModel,
    DenoiseModel,
    SkewMatrix,
    Spectrum,
    fisher_quad,
    generator,
    skew_exp,
    verify_fisher_limit,
)
from subspace_bounds.verify import FD_STEPS, derivative_errors

# %% log(1 + chi-square) over t^2 converges to the Fisher value --------------
spectrum = Spectrum([3.0, 1.5, 0.8], 1)
xi = generator(3, 0, 2)
ts = (1e-1, 1e-2, 1e-3)
rotations = skew_exp(xi.a[None], ts)[0]  # exp(t xi) for every t, one eigensolve
models = (CovModel(spectrum, n=2), DenoiseModel(spectrum, sigma=1.3))
# one report per model and direction; here a stack of one direction
limit_reports = verify_fisher_limit(models, xi.a[None])
for model, [report] in zip(models, limit_reports):
    print(f"{model.kind} model, direction L(0, 2):")
    for t, value in zip(ts, model.renyi2(rotations)):  # every t in one call
        print(f"  D(t={t:g}) / t^2 = {value / t**2:.8f}")
    print(f"  extrapolated limit  = {report.extrapolated:.8f}")
    print(f"  closed-form value   = {report.closed_form:.8f}")
    print(f"  relative error      = {report.rel_error:.2e} -> {'PASS' if report.passed else 'FAIL'}")
    print()

# %% Directions inside one eigen-block carry no information ------------------
flat = Spectrum([2.0, 2.0, 1.0], 2)
info = fisher_quad(CovModel(flat, n=5), generator(3, 0, 1).a[None])[0]
print("equal leading eigenvalues: information along L(0, 1) =", info)
print()

# %% Projector derivative vs finite differences ------------------------------
rng = np.random.default_rng(7)
p, d = 5, 2
raw = rng.standard_normal((p, p))
xi = SkewMatrix(raw / np.linalg.norm((raw - raw.T) / 2.0))
proj_errors, _ = derivative_errors(xi, d, 0, 1)
print("random unit direction, projector curve at the identity:")
for t, err in zip(FD_STEPS, proj_errors):
    print(f"  t = {t:g}: max |finite difference - closed form| = {err:.3e}")
print("(errors shrink linearly with t: the closed form is the derivative)")
