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
from .linalg import OrthMatrix, antisymmetrized, skew_exp
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


def fisher_quad(model: CovModel | DenoiseModel, xis) -> np.ndarray:
    """(1/2) sum_ij xi_ij^2 I_ij for each xi of a (B, p, p) stack of directions,
    antisymmetrized as SkewMatrix does, over ``fisher_matrix(model)``, whose
    checks it raises; halved before the sum, so the pair of equal terms of a
    generator cannot overflow it."""
    x = np.asarray(xis, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (model.p, model.p):
        raise InvalidInput(f"expected a stack of {model.p} x {model.p} directions, got shape {x.shape}")
    x = antisymmetrized(x)
    return np.sum(0.5 * x * x * fisher_matrix(model), axis=(-2, -1))


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


def extrapolate_to_zero(ts, fs) -> float | np.ndarray:
    """Polynomial (Richardson-type) extrapolation of f(t) to t = 0, for the
    values at ts along the last axis of fs: a float for one vector, an array
    over a stack of them.  The Lagrange weights depend on ts only, and each
    extrapolation adds its terms in the order of ts."""
    ts = np.asarray(ts, dtype=np.float64)
    fs = np.asarray(fs, dtype=np.float64)
    total = np.zeros(fs.shape[:-1])
    for i in range(ts.size):
        weight = 1.0
        for j in range(ts.size):
            if j != i:
                weight *= ts[j] / (ts[j] - ts[i])
        total += weight * fs[..., i]
    return total[()]


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


def verify_fisher_limit(models, xis) -> list[list[FisherLimitReport]]:
    """Check that D(exp(t xi))/t^2 converges to ``fisher_quad(model, xi)`` for each
    model and each xi of a (B, p, p) stack: one list per model, one report per
    direction in stack order.  Every model's targets come first, so an overflow
    raises before any divergence; one ``skew_exp`` call builds every T_GRID
    rotation, and each model scores them in one ``renyi2`` call.

    Each model's reports are computed as arrays over the stack: the ratios
    D/t^2, their extrapolation to t = 0 (inf unless every ratio is finite),
    and the error against the target, relative (PASS at most REL_TOL) or,
    where the target vanishes, absolute (PASS at most ZERO_ATOL); inf or nan
    never passes."""
    targets = [fisher_quad(model, xis) for model in models]
    rotations = skew_exp(xis, T_GRID)
    rotations = rotations.reshape(-1, *rotations.shape[-2:])
    t_squared = np.array([t * t for t in T_GRID])
    reports = []
    for model, target in zip(models, targets):
        ratios = model.renyi2(rotations).reshape(len(target), len(T_GRID)) / t_squared
        finite = np.isfinite(ratios).all(axis=-1)
        with np.errstate(invalid="ignore"):  # inf - inf in a row that is not finite
            extrapolated = np.where(finite, extrapolate_to_zero(T_GRID, ratios), np.inf)
            rel_error = np.abs(extrapolated - target) / np.where(target == 0.0, 1.0, np.abs(target))
        passed = rel_error <= np.where(target == 0.0, ZERO_ATOL, REL_TOL)
        columns = (ratios.tolist(), extrapolated.tolist(), target.tolist(), rel_error.tolist(), passed.tolist())
        reports.append([FisherLimitReport(model.kind, tuple(r), *rest) for r, *rest in zip(*columns)])
    return reports
