"""Fisher-information quadratic forms and their divergence limit.

For both observation models the Fisher information along a one-parameter
subgroup exp(t*xi) exists as a quadratic form in xi, and it equals the
small-t limit of D/t^2, D = log(1 + chi2(P_{exp(t xi)}, P_I)), which each
model's ``renyi2`` evaluates in closed form: the check needs 12+ digits at
t ~ 1e-4, and D/t^2, unlike chi2/t^2, stays near the limit at any n.
Monte Carlo estimates of chi2 = expm1(D) live in the test suite as an
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import OrthMatrix, SkewMatrix, skew_exp_batch
from .models import CovModel, DenoiseModel


T_GRID = (1e-2, 1e-3, 1e-4)
_TINY = np.finfo(float).tiny


def fisher_matrix(model: CovModel | DenoiseModel) -> np.ndarray:
    """The p x p matrix of the model's Fisher information I_ij along L(i, j).
    InvalidInput if any I_ij overflows, or if some pair with lam_i != lam_j has
    I_ij t^2 below the smallest normal float at the least t of T_GRID, where its
    divergence would vanish instead of approaching the limit."""
    lam = model.spectrum.lambdas
    info = model.generator_fisher(lam[:, None], lam[None, :])
    if not np.isfinite(info).all():
        raise InvalidInput(f"the {model.kind} Fisher information overflows the float range")
    if ((info * min(T_GRID) ** 2 < _TINY) & (lam[:, None] != lam)).any():
        raise InvalidInput(
            f"the {model.kind} Fisher information underflows the float range at t={min(T_GRID):g}"
        )
    return info


def fisher_quad(model: CovModel | DenoiseModel, xi: SkewMatrix) -> float:
    """(1/2) sum_ij xi_ij^2 I_ij over ``fisher_matrix(model)``, whose checks it raises."""
    x = (xi if isinstance(xi, SkewMatrix) else SkewMatrix(xi)).a
    if x.shape[0] != model.p:
        raise InvalidInput(f"direction has dim {x.shape[0]}, expected {model.p}")
    return float(0.5 * np.sum(x * x * fisher_matrix(model)))


def _chi2_one(model: CovModel | DenoiseModel, u: OrthMatrix) -> float:
    if u.dim != model.p:
        raise InvalidInput(f"dimension mismatch: U is {u.dim}x{u.dim}, p={model.p}")
    return float(np.expm1(model.renyi2(u.a[None])[0]))


def chi2_gauss_cov(model: CovModel, u: OrthMatrix) -> float:
    """chi-square divergence at one basis U: expm1 of ``CovModel.renyi2``."""
    return _chi2_one(model, u)


def chi2_gauss_meanshift(model: DenoiseModel, u: OrthMatrix) -> float:
    """chi-square divergence at one basis U: expm1 of ``DenoiseModel.renyi2``."""
    return _chi2_one(model, u)


def extrapolate_to_zero(ts, fs) -> float:
    """Polynomial (Richardson-type) extrapolation of f(t) to t = 0."""
    ts = np.asarray(ts, dtype=np.float64)
    fs = np.asarray(fs, dtype=np.float64)
    total = 0.0
    for i in range(ts.size):
        weight = 1.0
        for j in range(ts.size):
            if j != i:
                weight *= ts[j] / (ts[j] - ts[i])
        total += weight * fs[i]
    return float(total)


REL_TOL = 1e-3
ZERO_ATOL = 1e-9


@dataclass(frozen=True)
class FisherLimitReport:
    """Comparison of the D(t)/t^2 limit, extrapolated from t in T_GRID, with the closed form."""

    kind: str
    ratios: tuple
    extrapolated: float
    closed_form: float
    rel_error: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "t_grid": list(T_GRID),
            "ratios": list(self.ratios),
            "extrapolated": self.extrapolated,
            "closed_form": self.closed_form,
            "rel_error": self.rel_error,
            "status": "PASS" if self.passed else "FAIL",
        }


def limit_report(model: CovModel | DenoiseModel, target: float, renyi2) -> FisherLimitReport:
    """Report on renyi2, the model's divergences D at exp(t xi), t in T_GRID:
    D/t^2 extrapolated to t = 0 against target = fisher_quad(model, xi), PASS
    when the relative error is at most REL_TOL (absolute ZERO_ATOL when the
    target vanishes)."""
    ratios = tuple(float(c / (t * t)) for c, t in zip(renyi2, T_GRID))
    extrapolated = extrapolate_to_zero(T_GRID, ratios) if np.isfinite(ratios).all() else np.inf
    scale, tol = (1.0, ZERO_ATOL) if target == 0.0 else (abs(target), REL_TOL)
    rel_error = abs(extrapolated - target) / scale  # inf or nan never passes
    return FisherLimitReport(
        kind=model.kind,
        ratios=ratios,
        extrapolated=float(extrapolated),
        closed_form=float(target),
        rel_error=float(rel_error),
        passed=bool(rel_error <= tol),
    )


def verify_fisher_limit(model: CovModel | DenoiseModel, xi: SkewMatrix) -> FisherLimitReport:
    """Check that D(exp(t xi))/t^2 converges to the Fisher value, with the
    whole t grid in one ``skew_exp_batch`` and one ``model.renyi2`` call."""
    xi = xi if isinstance(xi, SkewMatrix) else SkewMatrix(xi)
    target = fisher_quad(model, xi)  # an overflow raises before any divergence
    return limit_report(model, target, model.renyi2(skew_exp_batch(xi.a[None], T_GRID)[0]))
