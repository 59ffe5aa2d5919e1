"""Numerical checks of the formulas the bounds rest on: the loss identity on
stacks of instances, the Fisher limits on the stack of every generator, the
derivatives one direction at a time and the LP oracle's optima one block of
programs at a time.

The `verify` and `simulate` commands, `report` and the acceptance tests take
the verdicts they share from here: each caller draws its own instances, and
the tolerances, margins and rate shapes below are the only copies.
"""

from __future__ import annotations

import numpy as np

from .bounds import SubstochasticProgram, lp_oracle, substochastic_max
from .equivariance import (
    dP_dir,
    dv_dir,
    excess_risk,
    excess_risk_weights,
    projector_leq_d,
    weighted_loss,
)
from .errors import InvalidInput
from .fisher import verify_fisher_limit
from .linalg import OrthMatrix, SkewMatrix, skew_exp

FD_STEPS = (1e-3, 1e-4, 1e-5)
FD_TOL = 1e-4  # finite-difference error at the smallest step
DECADE_RATIO = (5.0, 20.0)  # error ratio between steps a decade apart: O(t) decay
IDENTITY_TOL = 1e-9  # |trace-formula excess risk - weighted loss|
LP_TOL = 1e-8  # |flow optimum - LP optimum|
GAP_TOL = 1e-9  # |flow value - cut value|
DOMINATION_SE = 3.0  # simulated risk + this many standard errors must reach the bound
BAND_FACTOR = 3.0
SLOPE_TOL = 0.1  # relative error of the fitted exp decay slope against -alpha
LP_BLOCK = 500  # programs per LP solve of lp_oracle_check: criterion 1's count


def check_record(name: str, passed: bool, detail: str) -> dict:
    """One entry of the `checks` list of a `verify` artifact."""
    return {"name": name, "status": "PASS" if passed else "FAIL", "detail": detail}


def fisher_limit_checks(models) -> list[dict]:
    """One check record per model and generator L(i, j), i < j, in that order,
    from one ``fisher.verify_fisher_limit`` call on the stack of every generator,
    built by one scatter with the entries of ``equivariance.generator``."""
    p = models[0].p
    if p < 2 or any(model.p != p for model in models):
        raise InvalidInput("fisher-limit checks need models of one dimension p >= 2")
    ij = np.stack(np.triu_indices(p, 1), axis=1)  # the pairs (i, j), i < j, row by row
    pairs = ij.tolist()
    xis = np.zeros((len(pairs), p, p))
    xis[np.arange(len(pairs))[:, None], ij, ij[:, ::-1]] = (1.0, -1.0)  # L(i, j) at (i, j), (j, i)
    checks = []
    for model, reports in zip(models, verify_fisher_limit(models, xis)):
        for (i, j), report in zip(pairs, reports):
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
    q = skew_exp(xi.a[None], FD_STEPS)[0]
    ts = np.array(FD_STEPS)[:, None, None]
    fd_p = (projector_leq_d(OrthMatrix(q), d).a - base_p) / ts
    fd_v = (q[:, :, i, None] * q[:, None, :, j] - base_v) / ts
    errs_p = np.abs(fd_p - closed_p).max(axis=(1, 2))
    errs_v = np.abs(fd_v - closed_v).max(axis=(1, 2))
    return errs_p.tolist(), errs_v.tolist()


def derivative_checks(xi: SkewMatrix, d: int, i: int, j: int, trial: int) -> list[dict]:
    """The projector's and v_ij's check records for one direction: each passes
    when its error at the smallest step is below FD_TOL and every ratio of
    errors a decade apart lies in DECADE_RATIO (about 10 for an O(t) error)."""
    checks = []
    for label, errs in zip(("projector", "basis-field"), derivative_errors(xi, d, i, j)):
        ratios = [a / b if b > 0 else float("inf") for a, b in zip(errs, errs[1:])]
        ok = errs[-1] < FD_TOL and all(DECADE_RATIO[0] <= r <= DECADE_RATIO[1] for r in ratios)
        detail = f"errors={[f'{e:.3e}' for e in errs]}"
        checks.append(check_record(f"{label} derivative trial {trial}", ok, detail))
    return checks


def loss_identity_check(name: str, groups) -> dict:
    """One record for the identity excess risk = weighted loss under the gap
    weights at mu, over (spectrum, u, p_hat, mu) groups drawn as iterated: u
    and p_hat one basis and projector or a (..., p, p) stack of them, mu one
    level or the (...) stack of them; each group is one call of each formula.
    A NaN on either side makes the worst error NaN, which fails."""
    worst = 0.0
    for spectrum, u, p_hat, mu in groups:
        via_loss = weighted_loss(u, p_hat.a, spectrum.d, excess_risk_weights(spectrum, mu))
        worst = float(np.maximum(worst, np.abs(excess_risk(spectrum, u, p_hat) - via_loss).max()))
    return check_record(name, worst <= IDENTITY_TOL, f"max |direct - weighted| = {worst:.3e}")


def lp_oracle_check(rng: np.random.Generator, trials: int) -> dict:
    """One record: flow vs LP optimum within LP_TOL and every duality gap
    within GAP_TOL, over random programs drawn from rng.

    Each has 1..4 rows and columns, edge caps uniform on [0, 1) with about
    15% set to inf, and row and column caps uniform on [0.05, 1.5).  The
    programs are drawn, and their flows solved and certified one at a time,
    in blocks of LP_BLOCK; each block's LP optima come from one
    ``lp_oracle`` call, whose block-diagonal LP is separable, so every
    program's optimum is exactly the one it has alone.
    """
    worst = 0.0
    worst_gap = 0.0
    for start in range(0, trials, LP_BLOCK):
        progs = [_random_program(rng) for _ in range(min(LP_BLOCK, trials - start))]
        flows = []
        for prog in progs:
            sol = substochastic_max(prog)
            flows.append(sol.value)
            worst_gap = max(worst_gap, abs(sol.value - sol.cut_value))
        worst = float(np.max(np.abs(np.array(flows) - lp_oracle(progs)), initial=worst))
    ok = worst <= LP_TOL and worst_gap <= GAP_TOL
    detail = f"max |flow - lp| = {worst:.3e}, max duality gap = {worst_gap:.3e}"
    return check_record(f"flow vs LP oracle ({trials} random instances)", ok, detail)


def _random_program(rng: np.random.Generator) -> SubstochasticProgram:
    nr = int(rng.integers(1, 5))
    nc = int(rng.integers(1, 5))
    caps = rng.uniform(0.0, 1.0, size=(nr, nc))
    caps[rng.uniform(size=(nr, nc)) < 0.15] = np.inf
    return SubstochasticProgram(
        caps, rng.uniform(0.05, 1.5, size=nr), rng.uniform(0.05, 1.5, size=nc)
    )


def ratio_band(ratios) -> tuple[float, bool]:
    """(geometric-mean center, whether every ratio lies within BAND_FACTOR of it)."""
    center = float(np.exp(np.mean(np.log(ratios))))
    within = max(ratios) <= BAND_FACTOR * center and min(ratios) >= center / BAND_FACTOR
    return center, within


def decay_slope(ds, values, n: int, alpha: float) -> tuple[float, bool]:
    """(least-squares slope of log(n value / d) against d over the bound values at
    each d, whether it lies within SLOPE_TOL * alpha of -alpha, the slope of the
    "exp" rate shape d e^{-alpha d} / n)."""
    xs = np.asarray(ds, dtype=np.float64)
    slope = float(np.polyfit(xs, np.log(np.asarray(values) * n) - np.log(xs), 1)[0])
    return slope, abs(slope + alpha) <= SLOPE_TOL * alpha


def domination(estimate, bound: float) -> tuple[float, bool]:
    """(margin of the simulated risk over the bound in standard errors, whether
    the risk plus DOMINATION_SE standard errors reaches the bound)."""
    se = estimate.std_error
    margin = (estimate.mean - bound) / se if se > 0 else float("inf")
    return margin, estimate.mean + DOMINATION_SE * se >= bound


def rate_shape(family: str, alpha: float, d: int, n: int) -> float:
    """The rate the relative-rank bound tracks: d e^{-alpha d} / n for the
    "exp" family, d^{2 - alpha} / n for "poly"."""
    if family == "exp":
        return d * np.exp(-alpha * d) / n
    if family == "poly":
        return d ** (2.0 - alpha) / n
    raise InvalidInput(f"unknown spectrum family {family!r}")
