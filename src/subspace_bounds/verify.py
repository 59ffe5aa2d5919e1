"""Numerical checks of the formulas the bounds rest on, one instance at a time.

The `verify` command and the acceptance tests both compute their checks
here; each caller draws its own instances and keeps its own PASS thresholds.
"""

from __future__ import annotations

import numpy as np

from .bounds import SubstochasticProgram, lp_oracle, substochastic_max
from .equivariance import (
    dP_dir,
    dv_dir,
    excess_risk,
    excess_risk_weights,
    generator,
    projector_leq_d,
    weighted_loss,
)
from .errors import InvalidInput
from .fisher import T_GRID, fisher_matrix, limit_report
from .linalg import SkewMatrix, skew_exp, skew_exp_batch

FD_STEPS = (1e-3, 1e-4, 1e-5)
BAND_FACTOR = 3.0


def check_record(name: str, passed: bool, detail: str) -> dict:
    """One entry of the `checks` list of a `verify` artifact."""
    return {"name": name, "status": "PASS" if passed else "FAIL", "detail": detail}


def fisher_limit_checks(models) -> list[dict]:
    """One check record per model and generator L(i, j), i < j, in that order:
    D/t^2, D = log(1 + chi2), extrapolated to t = 0 against the closed-form
    Fisher value from one ``fisher_matrix`` per model, computed first, so an overflow
    raises before any divergence.  One ``skew_exp_batch`` call builds the T_GRID
    rotations of every generator, and each model scores them in one call."""
    p = models[0].p
    if p < 2 or any(model.p != p for model in models):
        raise InvalidInput("fisher-limit checks need models of one dimension p >= 2")
    pairs = [(i, j) for i in range(p - 1) for j in range(i + 1, p)]
    xis = np.stack([generator(p, i, j).a for i, j in pairs])
    targets = [(0.5 * np.sum(xis * xis * fisher_matrix(m), axis=(1, 2))).tolist() for m in models]
    rotations = skew_exp_batch(xis, T_GRID).reshape(-1, p, p)
    checks = []
    for model, model_targets in zip(models, targets):
        renyi2 = model.renyi2(rotations).reshape(len(pairs), len(T_GRID))
        for (i, j), target, row in zip(pairs, model_targets, renyi2):
            report = limit_report(model, target, row)
            detail = (
                f"limit={report.extrapolated:.9g} "
                f"closed={report.closed_form:.9g} rel_err={report.rel_error:.3e}"
            )
            record = check_record(f"{model.kind} L({i},{j})", report.passed, detail)
            checks.append({**record, "report": report.to_json_dict()})
    return checks


def derivative_errors(xi: SkewMatrix, d: int, i: int, j: int) -> tuple[list, list]:
    """max |finite difference - closed form| at each of FD_STEPS along exp(t xi),
    for the rank-d projector map and for v_ij; both start at the identity."""
    p = xi.dim
    closed_p = dP_dir(p, d, xi).a
    closed_v = dv_dir(p, i, j, xi)
    base_p = np.diag((np.arange(p) < d).astype(np.float64))
    base_v = np.zeros((p, p))
    base_v[i, j] = 1.0
    errs_p, errs_v = [], []
    for t in FD_STEPS:
        q = skew_exp(xi, t)
        fd_p = (projector_leq_d(q, d).a - base_p) / t
        fd_v = (np.outer(q.a[:, i], q.a[:, j]) - base_v) / t
        errs_p.append(float(np.max(np.abs(fd_p - closed_p))))
        errs_v.append(float(np.max(np.abs(fd_v - closed_v))))
    return errs_p, errs_v


def decade_ratios(errs) -> list[float]:
    """errs[k] / errs[k + 1] (inf where the next error is 0); about 10 for an
    O(t) error over steps a decade apart."""
    return [a / b if b > 0 else float("inf") for a, b in zip(errs, errs[1:])]


def excess_identity_gap(spectrum, u, p_hat, mu: float) -> float:
    """|trace-formula excess risk - weighted loss under the gap weights at mu|."""
    direct = excess_risk(spectrum, u, p_hat)
    via_loss = weighted_loss(u, p_hat.a, spectrum.d, excess_risk_weights(spectrum, mu))
    return abs(direct - via_loss)


def lp_oracle_check(rng: np.random.Generator, trials: int) -> tuple[float, float]:
    """(max |flow - lp|, max duality gap) over random programs drawn from rng.

    Each has 1..4 rows and columns, edge caps uniform on [0, 1) with about
    15% set to inf, and row and column caps uniform on [0.05, 1.5).
    """
    worst = 0.0
    worst_gap = 0.0
    for _ in range(trials):
        nr = int(rng.integers(1, 5))
        nc = int(rng.integers(1, 5))
        caps = rng.uniform(0.0, 1.0, size=(nr, nc))
        caps[rng.uniform(size=(nr, nc)) < 0.15] = np.inf
        prog = SubstochasticProgram(
            caps, rng.uniform(0.05, 1.5, size=nr), rng.uniform(0.05, 1.5, size=nc)
        )
        sol = substochastic_max(prog)
        worst = max(worst, abs(sol.value - lp_oracle(prog)))
        worst_gap = max(worst_gap, abs(sol.value - sol.cut_value))
    return worst, worst_gap


def ratio_band(ratios) -> tuple[float, bool]:
    """(geometric-mean center, whether every ratio lies within BAND_FACTOR of it)."""
    center = float(np.exp(np.mean(np.log(ratios))))
    within = max(ratios) <= BAND_FACTOR * center and min(ratios) >= center / BAND_FACTOR
    return center, within
