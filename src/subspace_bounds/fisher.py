"""Fisher-information quadratic forms and their chi-square limit.

For both observation models the Fisher information along a one-parameter
subgroup exp(t*xi) exists as a quadratic form in xi, and it equals the
small-t limit of chi2(P_{exp(t xi)}, P_I)/t^2.  Each model's ``chi2``
evaluates the divergences in closed form (log-domain, expm1/log1p) because
verifying that limit numerically needs 12+ significant digits at t ~ 1e-4;
Monte Carlo estimates of the same divergences live in the test suite as an
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import OrthMatrix, SkewMatrix, skew_exp
from .models import CovModel, DenoiseModel


def fisher_quad(model: CovModel | DenoiseModel, xi: SkewMatrix) -> float:
    """(1/2) sum_ij xi_ij^2 I_ij, with I_ij the model's Fisher information along L(i, j)."""
    x = (xi if isinstance(xi, SkewMatrix) else SkewMatrix(xi)).a
    if x.shape[0] != model.p:
        raise InvalidInput(f"direction has dim {x.shape[0]}, expected {model.p}")
    lam = model.spectrum.lambdas
    return float(0.5 * np.sum(x * x * model.generator_fisher(lam[:, None], lam[None, :])))


def _chi2_one(model: CovModel | DenoiseModel, u: OrthMatrix) -> float:
    if u.dim != model.p:
        raise InvalidInput(f"dimension mismatch: U is {u.dim}x{u.dim}, p={model.p}")
    return float(model.chi2(u.a[None])[0])


def chi2_gauss_cov(model: CovModel, u: OrthMatrix) -> float:
    """``CovModel.chi2`` at one basis U."""
    return _chi2_one(model, u)


def chi2_gauss_meanshift(model: DenoiseModel, u: OrthMatrix) -> float:
    """``DenoiseModel.chi2`` at one basis U."""
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


T_GRID = (1e-2, 1e-3, 1e-4)
REL_TOL = 1e-3
ZERO_ATOL = 1e-9


@dataclass(frozen=True)
class FisherLimitReport:
    """Comparison of the chi2(t)/t^2 limit, extrapolated from t in T_GRID, with the closed form."""

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


def rotation_grid(xi: SkewMatrix) -> np.ndarray:
    """The rotations exp(t xi), t in T_GRID, as one stack."""
    return np.stack([skew_exp(xi, t).a for t in T_GRID])


def limit_report(model: CovModel | DenoiseModel, xi: SkewMatrix, chi2) -> FisherLimitReport:
    """Report on chi2, the model's divergences at rotation_grid(xi).

    Extrapolates chi2/t^2 to t = 0 and compares with the closed-form
    quadratic form; PASS when the relative error is at most REL_TOL
    (absolute ZERO_ATOL when the target vanishes).
    """
    target = fisher_quad(model, xi)
    ratios = [c / (t * t) for c, t in zip(chi2, T_GRID)]
    if all(np.isfinite(r) for r in ratios):
        extrapolated = extrapolate_to_zero(T_GRID, ratios)
    else:
        extrapolated = float("inf")
    if target == 0.0:
        rel_error = abs(extrapolated)
        passed = rel_error <= ZERO_ATOL
    else:
        rel_error = abs(extrapolated - target) / abs(target)
        passed = bool(np.isfinite(extrapolated) and rel_error <= REL_TOL)
    return FisherLimitReport(
        kind=model.kind,
        ratios=tuple(float(r) for r in ratios),
        extrapolated=float(extrapolated),
        closed_form=float(target),
        rel_error=float(rel_error),
        passed=passed,
    )


def verify_fisher_limit(model: CovModel | DenoiseModel, xi: SkewMatrix) -> FisherLimitReport:
    """Check that chi2(exp(t xi))/t^2 converges to the Fisher value, with the
    whole t grid in one ``model.chi2`` call."""
    return limit_report(model, xi, model.chi2(rotation_grid(xi)))
