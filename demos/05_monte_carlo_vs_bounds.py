"""Do real estimators respect the computed floors?  (They must.)

Every lower bound in this package caps the uniform-prior Bayes risk of
all estimators, so the Monte Carlo risk of any concrete estimator has to
land above it.  This script simulates the plug-in spectral estimators for
all three bound families and reports the margins, then checks the
first-order scale of the eigenvector overlaps that motivates the pair
capacities.
"""

from subspace_bounds import (
    CovModel,
    DenoiseModel,
    RngStream,
    SimConfig,
    Spectrum,
    bayes_risk,
    denoise_lower_bound,
    excess_lower_bound,
    hs_lower_bound,
    overlap_clt,
)
from subspace_bounds.verify import domination

REPS = 3000  # one-second-scale demo; the acceptance suite runs 10x more


def show(title, est, bound):
    margin, dominates = domination(est, bound)
    print(title)
    print(f"  simulated risk = {est.mean:.4f} +- {est.std_error:.4f}")
    print(f"  lower bound    = {bound:.4f}   margin = {margin:+.1f} SE -> {'PASS' if dominates else 'FAIL'}")
    print()


# %% Subspace-distance loss ---------------------------------------------------
model = CovModel(Spectrum([4.0, 3.0, 1.0, 0.5], 2), n=50)
est = bayes_risk(SimConfig(model, "hs_squared", REPS, seed=1))
bound = hs_lower_bound(model, 1.0).value
show("squared subspace distance, p = 4, n = 50:", est, bound)

# %% Excess reconstruction risk ----------------------------------------------
est = bayes_risk(SimConfig(model, "excess", REPS, seed=2))
bound = excess_lower_bound(model, "auto").value
show("excess reconstruction risk, same model:", est, bound)

# %% Matrix denoising ----------------------------------------------------------
dmodel = DenoiseModel(Spectrum([10.0, 0.0, 0.0, 0.0], 1), sigma=1.0)
est = bayes_risk(SimConfig(dmodel, "hs_squared", REPS, seed=3))
bound = denoise_lower_bound(dmodel, 1.0).value
show("denoising, rank-1 signal of size 10 at sigma = 1:", est, bound)

# %% The overlap scale behind the pair capacities ------------------------------
print("scaled overlap n <e_i, uhat_j>^2 vs lam_i lam_j / gap^2 (n = 1000):")
for k, lam in enumerate(([2.0, 1.0], [3.0, 1.0], [4.0, 2.0])):
    model = CovModel(Spectrum(lam, 1), n=1000)
    rep = overlap_clt(model, 0, 1, 2000, RngStream(40, k))
    print(
        f"  lam = {lam}: sample mean {rep.sample_mean:.3f}, "
        f"target {rep.target:.3f}, z = {rep.z_score:+.2f} -> "
        f"{'PASS' if rep.passed else 'FAIL'}"
    )
