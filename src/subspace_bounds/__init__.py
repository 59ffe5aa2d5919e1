"""Minimax lower bounds for principal subspace estimation.

A numpy library in four layers: a deterministic dense-matrix kernel
(`linalg`), observation models and reproducible samplers (`models`),
tangent-space derivatives, losses and Fisher/chi-square formulas
(`equivariance`, `fisher`), and the bound assembly itself (`bounds`):
capacitated doubly-substochastic programs solved exactly as max-flow with
min-cut certificates.  `risksim` estimates uniform-prior Bayes risks of
plug-in spectral estimators by Monte Carlo so every computed bound can be
checked empirically, `verify` holds the numerical checks of the formulas
the bounds rest on, and `cli` ties the pieces into reproducible
command-line reports.
"""

from .bounds import (
    BoundResult,
    SubstochasticProgram,
    canonical_bound,
    cramer_rao_ratio,
    denoise_lower_bound,
    excess_lower_bound,
    hs_bound_d1,
    hs_lower_bound,
    lp_oracle,
    optimize_delta,
    relrank_bound,
    relrank_condition,
    singleton_max,
    substochastic_max,
)
from .equivariance import (
    Projector,
    WeightMatrix,
    dP_dir,
    dv_dir,
    excess_risk,
    excess_risk_weights,
    generator,
    projector_leq_d,
    random_projector,
    weighted_loss,
)
from .errors import CheckFailed, ConditionNotMet, DegenerateGap, InvalidInput, NotConverged
from .fisher import (
    FisherLimitReport,
    chi2_gauss_cov,
    chi2_gauss_meanshift,
    fisher_quad,
    verify_fisher_limit,
)
from .linalg import (
    OrthMatrix,
    SkewMatrix,
    SymMatrix,
    skew_exp,
    sym_eig,
)
from .models import (
    CovModel,
    DenoiseModel,
    RngStream,
    Spectrum,
    empirical_cov,
    exp_spectrum,
    haar_from_normals,
    haar_orthogonal,
    parse_spectrum,
    poly_spectrum,
    sample_cov,
    sample_denoise,
    sample_goe,
    spike_spectrum,
)
from .risksim import (
    OverlapReport,
    RiskEstimate,
    SimConfig,
    bayes_risk,
    denoise_estimator,
    overlap_clt,
    pca_estimator,
)
from .verify import lp_oracle_check

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
