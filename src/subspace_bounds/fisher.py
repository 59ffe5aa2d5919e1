"""Fisher-information forms and closed-form Gaussian chi-square divergences.

For both observation models the Fisher information along a one-parameter
subgroup exp(t*xi) exists as a quadratic form in xi, and it equals the
small-t limit of chi2(P_{exp(t xi)}, P_I)/t^2.  The chi-square divergences
are evaluated in closed form (log-domain, expm1/log1p) because verifying
that limit numerically needs 12+ significant digits at t ~ 1e-4; Monte
Carlo estimates of the same divergences live in the test suite as an
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import OrthMatrix, SkewMatrix, skew_exp, sym_eig_batch, vech, vech_diag_mask
from .models import CovModel, DenoiseModel


def _check_direction(xi: SkewMatrix, p: int) -> np.ndarray:
    if not isinstance(xi, SkewMatrix):
        xi = SkewMatrix(xi)
    if xi.dim != p:
        raise InvalidInput(f"direction has dim {xi.dim}, expected {p}")
    return xi.a


def fisher_quad(model: CovModel | DenoiseModel, xi: SkewMatrix) -> float:
    """(1/2) sum_ij xi_ij^2 I_ij, with I_ij the model's Fisher information along L(i, j)."""
    x = _check_direction(xi, model.p)
    lam = model.spectrum.lambdas
    return float(0.5 * np.sum(x * x * model.generator_fisher(lam[:, None], lam[None, :])))


def _chi2_cov(model: CovModel, u: np.ndarray) -> np.ndarray:
    """chi2_gauss_cov of each basis in a (B, p, p) stack, with one stacked eigensolve."""
    lam = model.spectrum.lambdas
    scale = 1.0 / np.sqrt(lam)
    sigma1 = (u * lam) @ u.swapaxes(-1, -2)
    same = np.all(sigma1 == np.diag(lam), axis=(-2, -1))
    m = scale[:, None] * sigma1 * scale[None, :]
    args = (1.0 - sym_eig_batch(m)[0]) ** 2
    blocked = np.any(args >= 1.0, axis=-1)
    log_one_plus_chi1 = -0.5 * np.sum(np.log1p(-np.where(blocked[:, None], 0.0, args)), axis=-1)
    chi2 = np.where(blocked, np.inf, np.expm1(model.n * log_one_plus_chi1))
    return np.where(same, 0.0, chi2)


def chi2_gauss_cov(model: CovModel, u: OrthMatrix) -> float:
    """chi-square divergence of the n-sample law at U from the one at I.

    Single-sample value for centered Gaussians N(0, S1) vs N(0, S0):
    with m the eigenvalues of S0^{-1/2} S1 S0^{-1/2},

        1 + chi2_1 = prod_k (m_k (2 - m_k))^{-1/2},

    finite iff every m_k < 2; the n-fold product law gives
    chi2_n = (1 + chi2_1)^n - 1, computed as expm1(n * log1p(chi2_1)).
    Returns 0 when S1 equals S0 exactly and +inf when the definiteness
    condition fails.
    """
    if u.dim != model.p:
        raise InvalidInput(f"dimension mismatch: U is {u.dim}x{u.dim}, p={model.p}")
    return float(_chi2_cov(model, u.a[None])[0])


def meanshift_quadratic(model: DenoiseModel, u: OrthMatrix) -> float:
    """Quadratic form Delta^T (sigma^2 Sigma_W)^{-1} Delta of the mean shift.

    Delta = vech(U diag(lam) U^T - diag(lam)); Sigma_W is the diagonal
    covariance of the half-vectorized GOE matrix (2 on diagonal positions,
    1 elsewhere).
    """
    if u.dim != model.p:
        raise InvalidInput(f"dimension mismatch: U is {u.dim}x{u.dim}, p={model.p}")
    lam = model.spectrum.lambdas
    delta = vech((u.a * lam) @ u.a.T - np.diag(lam))
    inv_w = np.where(vech_diag_mask(model.p), 0.5, 1.0) / model.sigma**2
    return float(np.sum(inv_w * delta * delta))


def chi2_gauss_meanshift(model: DenoiseModel, u: OrthMatrix) -> float:
    """chi-square divergence for equal-covariance Gaussians: expm1(quadratic)."""
    return float(np.expm1(meanshift_quadratic(model, u)))


@dataclass(frozen=True)
class FisherForm:
    """The Fisher quadratic form of one model, with its matching chi-square."""

    model: CovModel | DenoiseModel

    @property
    def kind(self) -> str:
        return self.model.kind

    @property
    def p(self) -> int:
        return self.model.p

    def quad(self, xi: SkewMatrix) -> float:
        return fisher_quad(self.model, xi)

    def pair(self, xi: SkewMatrix, eta: SkewMatrix) -> float:
        """Bilinear value by polarization: (Q(xi+eta) - Q(xi-eta)) / 4."""
        xa = _check_direction(xi, self.p)
        ea = _check_direction(eta, self.p)
        plus = self.quad(SkewMatrix(xa + ea))
        minus = self.quad(SkewMatrix(xa - ea))
        return 0.25 * (plus - minus)

    def generator_quad(self, i: int, j: int) -> float:
        """Closed form of the quadratic form on the generator L(i, j)."""
        lam = self.model.spectrum.lambdas
        return float(self.model.generator_fisher(lam[i], lam[j]))

    def chi2(self, u: OrthMatrix) -> float:
        if isinstance(self.model, CovModel):
            return chi2_gauss_cov(self.model, u)
        return chi2_gauss_meanshift(self.model, u)


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


def verify_fisher_limit(form: FisherForm, xi: SkewMatrix) -> FisherLimitReport:
    """Check that chi2(exp(t xi))/t^2 converges to the Fisher value.

    Evaluates the ratio at each t of T_GRID, extrapolates to t = 0, and
    compares with the closed-form quadratic form; PASS when the relative
    error is at most REL_TOL (absolute ZERO_ATOL when the target vanishes).
    """
    target = form.quad(xi)
    rotations = [skew_exp(xi, t) for t in T_GRID]
    if isinstance(form.model, CovModel):  # the whole grid in one stacked eigensolve
        chi2 = _chi2_cov(form.model, np.stack([u.a for u in rotations]))
    else:
        chi2 = [form.chi2(u) for u in rotations]
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
        kind=form.kind,
        ratios=tuple(float(r) for r in ratios),
        extrapolated=float(extrapolated),
        closed_form=float(target),
        rel_error=float(rel_error),
        passed=passed,
    )
