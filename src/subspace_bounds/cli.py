"""Command-line interface: bound / simulate / verify / report.

Exit codes: 0 success, 2 usage error, 3 precondition failure (also a
simulated replicate whose eigenvalue gap stays degenerate after every
resample), 4 a verification or domination check failed (a sentinel for
implementation bugs: the inequalities it guards are mathematically
guaranteed), 5 the LAPACK eigensolver did not converge.  All
artifacts are deterministic given flags and seed: JSON is dumped with
sorted keys and CSV rows use shortest round-trip float formatting.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import bounds, risksim, verify
from .equivariance import random_projector
from .errors import ConditionNotMet, DegenerateGap, InvalidInput, NotConverged
from .linalg import SkewMatrix
from .models import (
    CovModel,
    DenoiseModel,
    RngStream,
    Spectrum,
    exp_spectrum,
    haar_orthogonal,
    parse_spectrum,
    poly_spectrum,
)

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
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
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
        seed, name = args.seed, "--seed"
    else:
        text = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed, name = int(text), SEED_ENV_VAR
        except ValueError as exc:
            raise _UsageError(f"{SEED_ENV_VAR} must be an integer, got {text!r}") from exc
    if seed < 0:
        raise _UsageError(f"{name} must be >= 0, got {seed}")
    return seed


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


def _reject_unread(args, command: str, reads: tuple) -> None:
    """Usage error for a flag given (not None) to a command that does not read it."""
    for flag in ("spectrum", "d", "n", "sigma", "delta", "mu", "p", "trials", "seed", "workers"):
        if getattr(args, flag, None) is not None and flag not in reads:
            raise _UsageError(f"{command} does not read --{flag}")


def _require_positive(args, *flags: str) -> None:
    """Usage error for a count flag given as 0 or less."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise _UsageError(f"--{flag} must be >= 1, got {value}")


def _float_or_auto(text: str, flag: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError as exc:
        raise _UsageError(f"{flag} must be a number or 'auto'") from exc


# --- bound --------------------------------------------------------------


# The model flags and parameters each bound kind reads beside --spectrum and --d.
BOUND_READS = {
    "hs": ("n", "delta"),
    "denoise": ("sigma", "delta"),
    "excess": ("n", "mu"),
    "canonical": ("n",),
    "relrank": ("n",),
}


def cmd_bound(args) -> int:
    kind = args.kind
    _reject_unread(args, f"bound {kind}", ("spectrum", "d") + BOUND_READS[kind])
    spectrum = _spectrum(args)
    payload: dict
    if kind in ("hs", "denoise"):
        if kind == "hs":
            model, fn = _cov_model(args, spectrum), bounds.hs_lower_bound
        else:
            model, fn = _denoise_model(args, spectrum), bounds.denoise_lower_bound
        delta = _float_or_auto("1" if args.delta is None else args.delta, "--delta")
        if delta == "auto":
            delta, result = bounds.optimize_delta(model)
        else:
            result = fn(model, delta)
        payload = result.to_json_dict()
    elif kind == "excess":
        model = _cov_model(args, spectrum)
        mu = _float_or_auto("auto" if args.mu is None else args.mu, "--mu")
        result = bounds.excess_lower_bound(model, mu)
        payload = result.to_json_dict()
    else:  # canonical or relrank
        model = _cov_model(args, spectrum)
        params = {"bound": kind, "n": model.n, "d": spectrum.d, "p": spectrum.p}
        payload = {"schema": 1, "params": params}
        if kind == "canonical":
            payload["value"] = bounds.canonical_bound(model)
        else:
            holds, lhs = bounds.relrank_condition(model)
            value = bounds.relrank_bound(model)  # raises ConditionNotMet when invalid
            payload.update(value=value, condition_lhs=lhs, condition_holds=holds)

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
    # --sigma picks the denoising model, which has the hs loss only.
    model_flag = "sigma" if args.sigma is not None and args.loss == "hs" else "n"
    reads = (model_flag, "delta") if args.loss == "hs" else (model_flag,)
    command = f"simulate --loss {args.loss} --{model_flag}"
    _reject_unread(args, command, ("spectrum", "d", "seed", "workers") + reads)
    _require_positive(args, "reps", "workers")
    if args.reps < 2:
        raise _UsageError(f"--reps must be >= 2: one replicate has no standard error, got {args.reps}")
    spectrum = _spectrum(args)
    seed = _seed_from(args)
    delta = 1.0 if args.delta is None else args.delta
    if model_flag == "sigma":
        model = _denoise_model(args, spectrum)
        bound = bounds.denoise_lower_bound(model, delta).value
        model_tag = "denoise"
        n_or_sigma = model.sigma
    else:
        model = _cov_model(args, spectrum)
        model_tag = "cov"
        n_or_sigma = model.n
        if args.loss == "hs":
            bound = bounds.hs_lower_bound(model, delta).value
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
    if spectrum.p < 2:
        raise _UsageError(f"--spectrum must have p >= 2 for fisher-limit, got p={spectrum.p}")
    models = []
    if args.n is not None:
        models.append(CovModel(spectrum, args.n))
    if args.sigma is not None:
        models.append(DenoiseModel(spectrum, args.sigma))
    if not models:
        raise _UsageError("fisher-limit needs --n and/or --sigma")
    return verify.fisher_limit_checks(models)


def _derivative_check(name: str, errs: list) -> dict:
    ratios = verify.decade_ratios(errs)
    ok = errs[-1] < 1e-4 and all(5.0 <= r <= 20.0 or errs[k] < 1e-12 for k, r in enumerate(ratios))
    return verify.check_record(name, ok, f"errors={[f'{e:.3e}' for e in errs]}")


def _sizes(args, default_p: int, default_trials: int) -> tuple[int, int, int]:
    """--p, --d and --trials of a verify suite; a default only where a flag is absent."""
    p = default_p if args.p is None else args.p
    d = max(1, p // 2) if args.d is None else args.d
    _require_positive(args, "trials")
    trials = default_trials if args.trials is None else args.trials
    if not 1 <= d < p:
        raise _UsageError(f"--p must be >= 2 and --d in 1..p-1, got p={p}, d={d}")
    return p, d, trials


def _verify_derivatives(args) -> list[dict]:
    p, d, trials = _sizes(args, 5, 10)
    rng = RngStream(_seed_from(args), stream=1).generator()
    checks = []
    for trial in range(trials):
        raw = rng.standard_normal((p, p))
        xi = SkewMatrix(raw / np.linalg.norm((raw - raw.T) / 2.0))
        i, j = sorted(rng.choice(p, size=2, replace=False))
        errs_p, errs_v = verify.derivative_errors(xi, d, int(i), int(j))
        checks.append(_derivative_check(f"projector derivative trial {trial}", errs_p))
        checks.append(_derivative_check(f"basis-field derivative trial {trial}", errs_v))
    return checks


def _verify_loss_identity(args) -> list[dict]:
    p, d, trials = _sizes(args, 6, 100)
    g = RngStream(_seed_from(args), stream=2).generator()
    lam = np.sort(g.uniform(0.2, 3.0, size=p))[::-1]
    spectrum = Spectrum(lam, d)
    worst = 0.0
    for _ in range(trials):
        u = haar_orthogonal(p, g)
        p_hat = random_projector(p, d, g)
        mu = g.uniform(lam[d], lam[d - 1])
        worst = max(worst, verify.excess_identity_gap(spectrum, u, p_hat, mu))
    name = f"excess-risk identity ({trials} trials, p={p})"
    return [verify.check_record(name, worst <= 1e-9, f"max |direct - weighted| = {worst:.3e}")]


def _verify_lp_oracle(args) -> list[dict]:
    trials = _sizes(args, 2, 500)[2]
    rng = RngStream(_seed_from(args), stream=3).generator()
    worst, worst_gap = verify.lp_oracle_check(rng, trials)
    ok = worst <= 1e-8 and worst_gap <= 1e-9
    detail = f"max |flow - lp| = {worst:.3e}, max duality gap = {worst_gap:.3e}"
    return [verify.check_record(f"flow vs LP oracle ({trials} random instances)", ok, detail)]


def cmd_verify(args) -> int:
    # Each suite and the flags it reads beside --out; any other flag is a usage error.
    suite, reads = {
        "fisher-limit": (_verify_fisher_limit, ("spectrum", "d", "n", "sigma")),
        "derivatives": (_verify_derivatives, ("p", "d", "trials", "seed")),
        "loss-identity": (_verify_loss_identity, ("p", "d", "trials", "seed")),
        "lp-oracle": (_verify_lp_oracle, ("trials", "seed")),
    }[args.suite]
    _reject_unread(args, f"verify {args.suite}", reads)
    checks = suite(args)
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
    # --seed, --workers and the seed variable only matter to a simulation.
    simulate = args.simulate is not None
    command = "report" if simulate else "report without --simulate"
    _reject_unread(args, command, ("p", "n", "seed", "workers") if simulate else ("p", "n"))
    _require_positive(args, "n", "simulate", "workers")
    if args.d_min < 1 or args.d_max >= args.p:
        raise _UsageError(f"every d must be in 1..p-1={args.p - 1}, got {args.d_min}..{args.d_max}")
    seed = _seed_from(args) if simulate else None
    rows = []
    ratios = []
    ds = list(range(args.d_min, args.d_max + 1))
    for d in ds:
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
        if simulate:
            config = risksim.SimConfig(
                model=model,
                loss="excess",
                replicates=args.simulate,
                seed=seed,
                workers=1 if args.workers is None else args.workers,
            )
            est = risksim.bayes_risk(config)
            row += [est.mean, est.std_error]
        rows.append(row)
    header = ["family", "alpha", "p", "n", "d", "condition_lhs", "condition_holds", "bound", "shape", "ratio"]
    if simulate:
        header += ["risk", "se"]
    text = _csv_text(header, rows)
    _write_text(args.out, text)
    if not args.out:
        sys.stdout.write(text)

    if not ratios:
        raise _UsageError("no valid d in the grid satisfied the bound condition")
    lo, hi = min(ratios), max(ratios)
    center, in_band = verify.ratio_band(ratios)
    print(f"ratio band: min {lo:.4g}, max {hi:.4g}, spread x{hi / lo:.3f}, center {center:.4g}")
    if args.family == "exp":
        valid = [(d, r) for d, r in zip(ds, rows) if r[6]]
        if len(valid) < 2:
            raise _UsageError("the exp slope fit needs two or more d that satisfy the bound condition")
        xs = np.array([d for d, _ in valid], dtype=float)
        ys = np.array([np.log(r[7] * args.n) - np.log(d) for d, r in valid])
        slope = float(np.polyfit(xs, ys, 1)[0])
        ok = abs(slope + args.alpha) <= 0.1 * args.alpha
        print(
            f"{'PASS' if ok else 'FAIL'} decay-slope fit: slope {slope:.4f} "
            f"vs -alpha {-args.alpha:.4f} (tolerance 10%)"
        )
    else:
        ok = in_band
        print(
            f"{'PASS' if ok else 'FAIL'} scaling band: every ratio within factor "
            f"{verify.BAND_FACTOR:g} of the central constant {center:.4g}"
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
    b.add_argument("--delta", default=None, help="mixing level, a number or 'auto' (default 1)")
    b.add_argument("--mu", default=None, help="excess-bound split level, or 'auto' (default)")
    b.add_argument("--out", default=None, help="artifact path")
    b.add_argument("--format", choices=["json", "csv"], default="json")
    b.set_defaults(func=cmd_bound)

    s = sub.add_parser("simulate", help="Monte Carlo Bayes risk vs. the bound")
    add_spectrum_flags(s)
    s.add_argument("--loss", choices=["hs", "excess"], required=True)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--sigma", type=float, default=None)
    s.add_argument("--delta", type=float, default=None, help="hs-bound mixing level (default 1)")
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
    r.add_argument("--workers", type=int, default=None, help="simulation processes (default 1)")
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
    except (InvalidInput, ConditionNotMet, DegenerateGap) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NotConverged as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
