"""Command-line interface: bound / simulate / verify / report.

Exit codes: 0 success, 2 usage error, 3 precondition failure, 4 a
verification or domination check failed (a sentinel for implementation
bugs: the inequalities it guards are mathematically guaranteed), 5 a
numerical solver stopped at its iteration cap.  All artifacts are
deterministic given flags and seed: JSON is dumped with sorted keys and
CSV rows use shortest round-trip float formatting.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import bounds, fisher, risksim
from .equivariance import (
    dP_dir,
    dv_dir,
    excess_risk,
    excess_risk_weights,
    generator,
    projector_leq_d,
    random_projector,
    weighted_loss,
)
from .errors import ConditionNotMet, InvalidInput, NotConverged, Unsupported
from .linalg import SkewMatrix, skew_exp
from .models import CovModel, DenoiseModel, RngStream, haar_orthogonal, parse_spectrum

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_VIOLATION = 4
EXIT_NOT_CONVERGED = 5

SEED_ENV_VAR = "SUBSPACE_BOUNDS_SEED"

SIMULATE_COLUMNS = [
    "model",
    "p",
    "d",
    "n_or_sigma",
    "loss",
    "mean",
    "se",
    "replicates",
    "seed",
    "bound",
    "margin_sigmas",
]


class _UsageError(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _seed_from(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    text = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(text)
    except ValueError as exc:
        raise _UsageError(f"{SEED_ENV_VAR} must be an integer, got {text!r}") from exc


def _spectrum(args):
    try:
        return parse_spectrum(args.spectrum, d=args.d)
    except InvalidInput as exc:
        raise _UsageError(str(exc)) from exc


def _cov_model(args, spectrum) -> CovModel:
    if args.n is None:
        raise _UsageError("--n is required for the covariance model")
    return CovModel(spectrum, args.n)


def _denoise_model(args, spectrum) -> DenoiseModel:
    if args.sigma is None:
        raise _UsageError("--sigma is required for the denoising model")
    return DenoiseModel(spectrum, args.sigma)


def _float_or_auto(text: str, flag: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError as exc:
        raise _UsageError(f"{flag} must be a number or 'auto'") from exc


# --- bound --------------------------------------------------------------


def cmd_bound(args) -> int:
    spectrum = _spectrum(args)
    kind = args.kind
    payload: dict
    if kind == "hs":
        model = _cov_model(args, spectrum)
        delta = _float_or_auto(args.delta, "--delta")
        if delta == "auto":
            delta, result = bounds.optimize_delta(model)
        else:
            result = bounds.hs_lower_bound(model, delta)
        payload = result.to_json_dict()
    elif kind == "denoise":
        model = _denoise_model(args, spectrum)
        delta = _float_or_auto(args.delta, "--delta")
        if delta == "auto":
            delta, result = bounds.optimize_delta(model)
        else:
            result = bounds.denoise_lower_bound(model, delta)
        payload = result.to_json_dict()
    elif kind == "excess":
        model = _cov_model(args, spectrum)
        mu = _float_or_auto(args.mu, "--mu")
        result = bounds.excess_lower_bound(model, mu)
        payload = result.to_json_dict()
    elif kind == "canonical":
        model = _cov_model(args, spectrum)
        value = bounds.canonical_bound(model)
        payload = {
            "schema": 1,
            "value": value,
            "params": {"bound": "canonical", "n": model.n, "d": spectrum.d, "p": spectrum.p},
        }
    elif kind == "relrank":
        model = _cov_model(args, spectrum)
        holds, lhs = bounds.relrank_condition(model)
        value = bounds.relrank_bound(model)  # raises ConditionNotMet when invalid
        payload = {
            "schema": 1,
            "value": value,
            "condition_lhs": lhs,
            "condition_holds": holds,
            "params": {"bound": "relrank", "n": model.n, "d": spectrum.d, "p": spectrum.p},
        }
    else:  # pragma: no cover - argparse restricts choices
        raise _UsageError(f"unknown bound kind {kind!r}")

    print(f"{kind} lower bound: {payload['value']:.12g}")
    tight = payload.get("tight")
    if tight:
        print(
            "active constraints: "
            f"rows {sum(tight['rows'])}/{len(tight['rows'])}, "
            f"cols {sum(tight['cols'])}/{len(tight['cols'])}, "
            f"edges {sum(sum(r) for r in tight['edges'])}"
        )
    if args.format == "json":
        text = _json_text(payload)
    else:
        params = payload.get("params", {})
        header = ["kind", "p", "d", "param", "value"]
        param = params.get("delta", params.get("mu", ""))
        rows = [[kind, spectrum.p, spectrum.d, param, payload["value"]]]
        text = _csv_text(header, rows)
    _write_text(args.out, text)
    if not args.out:
        sys.stdout.write(text)
    return EXIT_OK


# --- simulate -----------------------------------------------------------


def cmd_simulate(args) -> int:
    spectrum = _spectrum(args)
    seed = _seed_from(args)
    if args.reps < 1:
        raise _UsageError("--reps must be >= 1")
    if args.sigma is not None:
        model = _denoise_model(args, spectrum)
        if args.loss != "hs":
            raise _UsageError("the denoising model supports --loss hs only")
        bound = bounds.denoise_lower_bound(model, args.delta).value
        model_tag = "denoise"
        n_or_sigma = model.sigma
    else:
        model = _cov_model(args, spectrum)
        model_tag = "cov"
        n_or_sigma = model.n
        if args.loss == "hs":
            bound = bounds.hs_lower_bound(model, args.delta).value
        else:
            bound = bounds.excess_lower_bound(model, "auto").value
    loss_tag = "hs_squared" if args.loss == "hs" else "excess"
    config = risksim.SimConfig(
        model=model, loss=loss_tag, replicates=args.reps, seed=seed, workers=args.workers
    )
    estimate = risksim.bayes_risk(config)
    margin = (estimate.mean - bound) / estimate.std_error if estimate.std_error > 0 else float("inf")
    row = [
        model_tag,
        spectrum.p,
        spectrum.d,
        n_or_sigma,
        loss_tag,
        estimate.mean,
        estimate.std_error,
        estimate.replicates,
        seed,
        bound,
        margin,
    ]
    print(
        f"risk {estimate.mean:.6g} +- {estimate.std_error:.3g} "
        f"(bound {bound:.6g}, margin {margin:.2f} SE)"
    )
    if args.out:
        fresh = not os.path.exists(args.out)
        with open(args.out, "a", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\r\n")
            if fresh:
                writer.writerow(SIMULATE_COLUMNS)
            writer.writerow([_fmt(v) for v in row])
    else:
        sys.stdout.write(_csv_text(SIMULATE_COLUMNS, [row]))
    if estimate.mean + 3.0 * estimate.std_error < bound:
        print("VIOLATION: simulated risk is more than 3 SE below the lower bound", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# --- verify -------------------------------------------------------------


def _verify_fisher_limit(args) -> list[dict]:
    if args.spectrum is None:
        raise _UsageError("fisher-limit needs --spectrum")
    spectrum = _spectrum(args)
    forms = []
    if args.n is not None:
        forms.append(fisher.FisherForm(CovModel(spectrum, args.n)))
    if args.sigma is not None:
        forms.append(fisher.FisherForm(DenoiseModel(spectrum, args.sigma)))
    if not forms:
        raise _UsageError("fisher-limit needs --n and/or --sigma")
    checks = []
    p = spectrum.p
    for form in forms:
        for i in range(p - 1):
            for j in range(i + 1, p):
                report = fisher.verify_fisher_limit(form, generator(p, i, j))
                checks.append(
                    {
                        "name": f"{form.kind} L({i},{j})",
                        "status": "PASS" if report.passed else "FAIL",
                        "detail": (
                            f"limit={report.extrapolated:.9g} "
                            f"closed={report.closed_form:.9g} rel_err={report.rel_error:.3e}"
                        ),
                        "report": report.to_json_dict(),
                    }
                )
    return checks


def _verify_derivatives(args) -> list[dict]:
    p = args.p or 5
    d = args.d or max(1, p // 2)
    rng = RngStream(_seed_from(args), stream=1).generator()
    ts = (1e-3, 1e-4, 1e-5)
    checks = []
    trials = args.trials or 10
    for trial in range(trials):
        raw = rng.standard_normal((p, p))
        xi = SkewMatrix(raw / np.linalg.norm((raw - raw.T) / 2.0))
        closed = dP_dir(p, d, xi).a
        pi_d = projector_leq_d(skew_exp(xi, 0.0), d).a
        errs = []
        for t in ts:
            fd = (projector_leq_d(skew_exp(xi, t), d).a - pi_d) / t
            errs.append(float(np.max(np.abs(fd - closed))))
        ratios = [errs[k] / errs[k + 1] if errs[k + 1] > 0 else float("inf") for k in range(2)]
        ok = errs[-1] < 1e-4 and all(5.0 <= r <= 20.0 or errs[k] < 1e-12 for k, r in enumerate(ratios))
        checks.append(
            {
                "name": f"projector derivative trial {trial}",
                "status": "PASS" if ok else "FAIL",
                "detail": f"errors={[f'{e:.3e}' for e in errs]}",
            }
        )
        i, j = sorted(rng.choice(p, size=2, replace=False))
        closed_v = dv_dir(p, int(i), int(j), xi)
        base = np.zeros((p, p))
        base[i, j] = 1.0
        errs_v = []
        for t in ts:
            q = skew_exp(xi, t).a
            curve = np.outer(q[:, i], q[:, j])
            errs_v.append(float(np.max(np.abs((curve - base) / t - closed_v))))
        ratios_v = [
            errs_v[k] / errs_v[k + 1] if errs_v[k + 1] > 0 else float("inf") for k in range(2)
        ]
        ok_v = errs_v[-1] < 1e-4 and all(
            5.0 <= r <= 20.0 or errs_v[k] < 1e-12 for k, r in enumerate(ratios_v)
        )
        checks.append(
            {
                "name": f"basis-field derivative trial {trial}",
                "status": "PASS" if ok_v else "FAIL",
                "detail": f"errors={[f'{e:.3e}' for e in errs_v]}",
            }
        )
    return checks


def _verify_loss_identity(args) -> list[dict]:
    p = args.p or 6
    d = args.d or max(1, p // 2)
    trials = args.trials or 100
    rng = RngStream(_seed_from(args), stream=2)
    g = rng.generator()
    lam = np.sort(g.uniform(0.2, 3.0, size=p))[::-1]
    from .models import Spectrum

    spectrum = Spectrum(lam, d)
    worst = 0.0
    for _ in range(trials):
        u = haar_orthogonal(p, g)
        p_hat = random_projector(p, d, g)
        mu = g.uniform(lam[d], lam[d - 1])
        w = excess_risk_weights(spectrum, mu)
        direct = excess_risk(spectrum, u, p_hat)
        via_loss = weighted_loss(u, p_hat.a, d, w)
        worst = max(worst, abs(direct - via_loss))
    ok = worst <= 1e-9
    return [
        {
            "name": f"excess-risk identity ({trials} trials, p={p})",
            "status": "PASS" if ok else "FAIL",
            "detail": f"max |direct - weighted| = {worst:.3e}",
        }
    ]


def _verify_lp_oracle(args) -> list[dict]:
    trials = args.trials or 500
    rng = RngStream(_seed_from(args), stream=3).generator()
    worst = 0.0
    worst_gap = 0.0
    for _ in range(trials):
        nr = int(rng.integers(1, 5))
        nc = int(rng.integers(1, 5))
        caps = rng.uniform(0.0, 1.0, size=(nr, nc))
        caps[rng.uniform(size=(nr, nc)) < 0.15] = np.inf
        prog = bounds.SubstochasticProgram(
            caps, rng.uniform(0.05, 1.5, size=nr), rng.uniform(0.05, 1.5, size=nc)
        )
        sol = bounds.substochastic_max(prog)
        reference = bounds.lp_oracle(prog)
        worst = max(worst, abs(sol.value - reference))
        worst_gap = max(worst_gap, abs(sol.value - sol.cut_value))
    ok = worst <= 1e-8 and worst_gap <= 1e-9
    return [
        {
            "name": f"flow vs LP oracle ({trials} random instances)",
            "status": "PASS" if ok else "FAIL",
            "detail": f"max |flow - lp| = {worst:.3e}, max duality gap = {worst_gap:.3e}",
        }
    ]


def cmd_verify(args) -> int:
    suites = {
        "fisher-limit": _verify_fisher_limit,
        "derivatives": _verify_derivatives,
        "loss-identity": _verify_loss_identity,
        "lp-oracle": _verify_lp_oracle,
    }
    checks = suites[args.suite](args)
    for check in checks:
        print(f"{check['status']} {check['name']}: {check['detail']}")
    all_pass = all(c["status"] == "PASS" for c in checks)
    payload = {
        "schema": 1,
        "suite": args.suite,
        "checks": checks,
        "status": "PASS" if all_pass else "FAIL",
    }
    _write_text(args.out, _json_text(payload))
    return EXIT_OK if all_pass else EXIT_VIOLATION


# --- report -------------------------------------------------------------


def cmd_report(args) -> int:
    if args.d_max < args.d_min:
        raise _UsageError("empty d grid")
    from .models import exp_spectrum, poly_spectrum

    seed = _seed_from(args)
    rows = []
    ratios = []
    ds = list(range(args.d_min, args.d_max + 1))
    for d in ds:
        if not 1 <= d < args.p:
            raise _UsageError(f"d={d} must satisfy 1 <= d < p={args.p}")
        if args.family == "exp":
            spectrum = exp_spectrum(args.alpha, args.p, d)
            shape = d * np.exp(-args.alpha * d) / args.n
        else:
            spectrum = poly_spectrum(args.alpha, args.p, d)
            shape = d ** (2.0 - args.alpha) / args.n
        model = CovModel(spectrum, args.n)
        holds, lhs = bounds.relrank_condition(model)
        if holds:
            value = bounds.relrank_bound(model)
            ratio = value / shape
            ratios.append(ratio)
        else:
            value = float("nan")
            ratio = float("nan")
        row = [args.family, args.alpha, args.p, args.n, d, lhs, holds, value, shape, ratio]
        if args.simulate:
            config = risksim.SimConfig(
                model=model,
                loss="excess",
                replicates=args.simulate,
                seed=seed,
                workers=args.workers,
            )
            est = risksim.bayes_risk(config)
            row += [est.mean, est.std_error]
        rows.append(row)
    header = ["family", "alpha", "p", "n", "d", "condition_lhs", "condition_holds", "bound", "shape", "ratio"]
    if args.simulate:
        header += ["risk", "se"]
    text = _csv_text(header, rows)
    _write_text(args.out, text)
    if not args.out:
        sys.stdout.write(text)

    ok = True
    if not ratios:
        raise _UsageError("no valid d in the grid satisfied the bound condition")
    lo, hi = min(ratios), max(ratios)
    center = float(np.exp(np.mean(np.log(ratios))))
    print(f"ratio band: min {lo:.4g}, max {hi:.4g}, spread x{hi / lo:.3f}, center {center:.4g}")
    if args.family == "exp":
        valid = [(d, r) for d, r in zip(ds, rows) if r[6]]
        xs = np.array([d for d, _ in valid], dtype=float)
        ys = np.array([np.log(r[7] * args.n) - np.log(d) for d, r in valid])
        slope = float(np.polyfit(xs, ys, 1)[0])
        ok = abs(slope + args.alpha) <= 0.1 * args.alpha
        print(
            f"{'PASS' if ok else 'FAIL'} decay-slope fit: slope {slope:.4f} "
            f"vs -alpha {-args.alpha:.4f} (tolerance 10%)"
        )
    else:
        ok = hi <= 3.0 * center and lo >= center / 3.0
        print(
            f"{'PASS' if ok else 'FAIL'} scaling band: every ratio within factor 3 "
            f"of the central constant {center:.4g}"
        )
    return EXIT_OK if ok else EXIT_VIOLATION


# --- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subspace-bounds",
        description="Minimax lower bounds for principal subspace estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spectrum_flags(p_):
        p_.add_argument("--spectrum", required=True, help="exp:a,p | poly:a,p | spike:l1,l2,d,p | JSON")
        p_.add_argument("--d", type=int, default=None, help="subspace rank (for exp/poly)")

    b = sub.add_parser("bound", help="compute a lower bound")
    b.add_argument("kind", choices=["hs", "excess", "denoise", "canonical", "relrank"])
    add_spectrum_flags(b)
    b.add_argument("--n", type=int, default=None, help="sample count (covariance model)")
    b.add_argument("--sigma", type=float, default=None, help="noise level (denoising model)")
    b.add_argument("--delta", default="1", help="mixing level, a number or 'auto'")
    b.add_argument("--mu", default="auto", help="split level for the excess bound, or 'auto'")
    b.add_argument("--out", default=None, help="artifact path")
    b.add_argument("--format", choices=["json", "csv"], default="json")
    b.set_defaults(func=cmd_bound)

    s = sub.add_parser("simulate", help="Monte Carlo Bayes risk vs. the bound")
    add_spectrum_flags(s)
    s.add_argument("--loss", choices=["hs", "excess"], required=True)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--sigma", type=float, default=None)
    s.add_argument("--delta", type=float, default=1.0)
    s.add_argument("--reps", type=int, required=True)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--out", default=None, help="CSV path (appended)")
    s.set_defaults(func=cmd_simulate)

    v = sub.add_parser("verify", help="run a numerical verification suite")
    v.add_argument("suite", choices=["fisher-limit", "derivatives", "loss-identity", "lp-oracle"])
    v.add_argument("--spectrum", default=None)
    v.add_argument("--d", type=int, default=None)
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--sigma", type=float, default=None)
    v.add_argument("--p", type=int, default=None)
    v.add_argument("--trials", type=int, default=None)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("report", help="sweep a spectrum family and emit plot-ready CSV")
    r.add_argument("--family", choices=["exp", "poly"], required=True)
    r.add_argument("--alpha", type=float, default=1.0)
    r.add_argument("--p", type=int, required=True)
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--d-min", type=int, default=3)
    r.add_argument("--d-max", type=int, default=12)
    r.add_argument("--simulate", type=int, default=None, help="also simulate (replicate count)")
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--workers", type=int, default=1)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidInput, ConditionNotMet, Unsupported) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NotConverged as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
