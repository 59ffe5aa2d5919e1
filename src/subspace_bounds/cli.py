"""Command-line interface: bound / simulate / verify / report.

Exit codes: 0 success, 2 usage error (also an --out path that cannot be
written, with one ``error: cannot write --out ...`` line on stderr),
3 precondition failure (also a simulated replicate whose eigenvalue gap
stays degenerate after every resample, or an array too large to allocate),
4 a verification failed or an internal check raised
``CheckFailed`` (a flow's duality gap or feasibility, a search
certificate, a domination the mathematics guarantees: a sentinel for
implementation bugs), with one ``check failed: ...`` line on stderr,
5 the LAPACK eigensolver did not converge, 141 (128 + SIGPIPE, as a
shell reports a tool that a closed pipe stopped) the reader closed stdout
before the output was written, with nothing on stderr.  All
artifacts are deterministic given flags and seed: JSON is dumped with
sorted keys and CSV rows use shortest round-trip float formatting.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import bounds, risksim, verify
from .equivariance import projector_leq_d
from .errors import CheckFailed, ConditionNotMet, DegenerateGap, InvalidInput, NotConverged
from .linalg import SkewMatrix
from .models import (
    CovModel,
    DenoiseModel,
    RngStream,
    Spectrum,
    exp_spectrum,
    haar_from_normals,
    parse_spectrum,
    poly_spectrum,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_VIOLATION = 4
EXIT_NOT_CONVERGED = 5
EXIT_CLOSED_STDOUT = 141

SEED_ENV_VAR = "SUBSPACE_BOUNDS_SEED"

SIMULATE_COLUMNS = [
    "model", "p", "d", "n_or_sigma", "loss", "mean", "se", "replicates", "seed", "bound", "margin_sigmas"
]


# The flag contract: each command's forms and the optional flags each form
# reads.  A command takes every flag that one of its forms reads; a flag given
# to a form that does not read it is a usage error.
READS = {
    "bound": {
        "hs": ("spectrum", "d", "n", "delta", "out"),
        "excess": ("spectrum", "d", "n", "mu", "out"),
        "denoise": ("spectrum", "d", "sigma", "delta", "out"),
        "canonical": ("spectrum", "d", "n", "out"),
        "relrank": ("spectrum", "d", "n", "out"),
    },
    "simulate": {  # --sigma picks the denoising model, which has the hs loss only
        "--loss hs --n": ("spectrum", "d", "n", "delta", "seed", "workers", "out"),
        "--loss hs --sigma": ("spectrum", "d", "sigma", "delta", "seed", "workers", "out"),
        "--loss excess --n": ("spectrum", "d", "n", "seed", "workers", "out"),
    },
    "verify": {
        "fisher-limit": ("spectrum", "d", "n", "sigma", "out"),
        "derivatives": ("p", "d", "trials", "seed", "out"),
        "loss-identity": ("p", "d", "trials", "seed", "out"),
        "lp-oracle": ("trials", "seed", "out"),
    },
    "report": {  # --seed, --workers and the seed variable only matter to a simulation
        "--simulate": ("p", "n", "seed", "workers", "out"),
        "without --simulate": ("p", "n", "out"),
    },
}

# Each optional flag's type and help; an absent flag reads as None.
FLAGS = {
    "spectrum": (str, "exp:a,p | poly:a,p | spike:l1,l2,d,p | JSON (bound and simulate need it)"),
    "d": (int, "subspace rank (for exp/poly; for a verify suite, default p // 2)"),
    "n": (int, "sample count (covariance model; report needs it)"),
    "sigma": (float, "noise level (denoising model)"),
    "delta": (str, "mixing level (default 1; bound also takes 'auto')"),
    "mu": (str, "excess-bound split level, or 'auto' (default)"),
    "p": (int, "dimension (report needs it; default per verify suite)"),
    "trials": (int, "trial count (default per suite)"),
    "seed": (int, f"random seed (default ${SEED_ENV_VAR}, else 0)"),
    "workers": (int, "simulation processes (default 1)"),
    "out": (str, "artifact path (simulate appends its CSV row)"),
}

# The flags each command takes, in FLAGS order: the parser adds them, and the
# unread-flag check tests them in this order.
TAKES = {
    command: [flag for flag in FLAGS if any(flag in reads for reads in forms.values())]
    for command, forms in READS.items()
}


class _UsageError(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_text(path: str | None, text: str, mode: str = "w") -> None:
    """Write (or with mode "a", append) text to the --out path, if one is given."""
    if path:
        try:
            with open(path, mode, encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write --out {path}: {exc.strerror or exc}") from exc


_BOOL_TEXT = {True: "true", False: "false"}
# json's own spelling of a scalar of each exact type but float.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: _BOOL_TEXT.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, to the byte, from one
    recursive writer; the stdlib takes its pure-Python encoder when ``indent`` is set.

    A scalar of exact type float (finite), str, int, bool or None is written as
    ``json`` writes it (``float.__repr__``, ``encode_basestring_ascii``,
    ``int.__repr__``, "true"/"false", "null"), and a list of finite floats or of
    bools is joined from those spellings, which is where a large artifact's bytes
    are.  Every other scalar, subclasses included, goes through ``json.dumps``, so
    NaN and Infinity keep their spelling and an unsupported type raises ``TypeError``.
    Keys must be strings, as the CLI's are; they are encoded as ``json`` encodes them.
    """
    return _json_value(obj, "\n") + "\n"


def _json_value(obj, newline: str) -> str:
    """The text of obj as ``json.dumps(..., indent=2)`` writes it after ``newline``."""
    kind = type(obj)
    if kind is float:
        if "n" not in (text := float.__repr__(obj)):  # all finite: "inf" and "nan" have an "n"
            return text
    elif kind in _SCALAR_TEXT:
        return _SCALAR_TEXT[kind](obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{encode_basestring_ascii(k)}: {_json_value(v, inner)}" for k, v in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if not isinstance(obj, (list, tuple)):
        return json.dumps(obj)
    if not obj:
        return "[]"
    sep, kinds = "," + inner, set(map(type, obj))
    if kinds == {bool}:
        parts = map(_BOOL_TEXT.__getitem__, obj)
    elif kinds == {float} and "n" not in (text := sep.join(map(float.__repr__, obj))):
        parts = [text]  # all finite: "inf" and "nan" are the float reprs with an "n"
    else:
        parts = (_json_value(v, inner) for v in obj)
    return "[" + inner + sep.join(parts) + newline + "]"


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


def _spectrum(args, name: str):
    if args.spectrum is None:
        raise _UsageError(f"{name} needs --spectrum")
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


def _reject_unread(args, command: str, form: str) -> None:
    """Usage error for a flag given (not None) to a form of command that does not read it."""
    reads = READS[command][form]
    for flag in TAKES[command]:
        if getattr(args, flag) is not None and flag not in reads:
            raise _UsageError(f"{command} {form} does not read --{flag}")


def _require_positive(args, *flags: str) -> None:
    """Usage error for a count flag given as 0 or less."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise _UsageError(f"--{flag} must be >= 1, got {value}")


def _number(text: str, flag: str, auto: bool = False):
    """text as a float, or "auto" where the flag takes it."""
    try:
        return "auto" if auto and text == "auto" else float(text)
    except ValueError as exc:
        raise _UsageError(f"{flag} must be a number" + (" or 'auto'" if auto else "")) from exc


# --- bound --------------------------------------------------------------


def cmd_bound(args) -> int:
    kind = args.kind
    _reject_unread(args, "bound", kind)
    spectrum = _spectrum(args, f"bound {kind}")
    payload: dict
    if kind in ("hs", "denoise"):
        if kind == "hs":
            model, fn = _cov_model(args, spectrum), bounds.hs_lower_bound
        else:
            model, fn = _denoise_model(args, spectrum), bounds.denoise_lower_bound
        delta = _number("1" if args.delta is None else args.delta, "--delta", auto=True)
        if delta == "auto":
            delta, result = bounds.optimize_delta(model)
        else:
            result = fn(model, delta)
        payload = result.to_json_dict()
    elif kind == "excess":
        model = _cov_model(args, spectrum)
        mu = _number("auto" if args.mu is None else args.mu, "--mu", auto=True)
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
    model_flag = "sigma" if args.sigma is not None and args.loss == "hs" else "n"
    _reject_unread(args, "simulate", f"--loss {args.loss} --{model_flag}")
    _require_positive(args, "reps", "workers")
    if args.reps < 2:
        raise _UsageError(f"--reps must be >= 2: one replicate has no standard error, got {args.reps}")
    spectrum = _spectrum(args, "simulate")
    seed = _seed_from(args)
    delta = 1.0 if args.delta is None else _number(args.delta, "--delta")
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
        model=model, loss=loss_tag, replicates=args.reps, seed=seed, workers=args.workers or 1
    )
    estimate = risksim.bayes_risk(config)
    margin, dominates = verify.domination(estimate, bound)
    row = [model_tag, spectrum.p, spectrum.d, n_or_sigma, loss_tag, estimate.mean, estimate.std_error,
           estimate.replicates, seed, bound, margin]
    print(
        f"risk {estimate.mean:.6g} +- {estimate.std_error:.3g} "
        f"(bound {bound:.6g}, margin {margin:.2f} SE)"
    )
    text = _csv_text(SIMULATE_COLUMNS, [row])
    if args.out:
        if os.path.exists(args.out) and os.path.getsize(args.out):  # it has its header
            text = text.partition("\r\n")[2]
        _write_text(args.out, text, "a")
    else:
        sys.stdout.write(text)
    if not dominates:
        below = f"more than {verify.DOMINATION_SE:g} SE below the lower bound"
        print(f"VIOLATION: simulated risk is {below}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# --- verify -------------------------------------------------------------


def _verify_fisher_limit(args) -> list[dict]:
    spectrum = _spectrum(args, "fisher-limit")
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
        checks += verify.derivative_checks(xi, d, int(i), int(j), trial)
    return checks


def _verify_loss_identity(args) -> list[dict]:
    """Each trial draws the basis's p x p normals, the projector's, then mu; the
    check then runs once on the stack of every trial."""
    p, d, trials = _sizes(args, 6, 100)
    g = RngStream(_seed_from(args), stream=2).generator()
    lam = np.sort(g.uniform(0.2, 3.0, size=p))[::-1]
    spectrum = Spectrum(lam, d)
    normals, mus = np.empty((2, trials, p, p)), np.empty(trials)
    for k in range(trials):
        normals[:, k] = g.standard_normal((2, p, p))
        mus[k] = g.uniform(lam[d], lam[d - 1])
    bases = haar_from_normals(normals)
    group = (spectrum, bases[0], projector_leq_d(bases[1], d), mus)
    return [verify.loss_identity_check(f"excess-risk identity ({trials} trials, p={p})", [group])]


def _verify_lp_oracle(args) -> list[dict]:
    trials = _sizes(args, 2, 500)[2]
    rng = RngStream(_seed_from(args), stream=3).generator()
    return [verify.lp_oracle_check(rng, trials)]


def cmd_verify(args) -> int:
    _reject_unread(args, "verify", args.suite)
    suite = {
        "fisher-limit": _verify_fisher_limit,
        "derivatives": _verify_derivatives,
        "loss-identity": _verify_loss_identity,
        "lp-oracle": _verify_lp_oracle,
    }[args.suite]
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
    if args.p is None or args.n is None:
        raise _UsageError("report needs --p and --n")
    if args.d_max < args.d_min:
        raise _UsageError("empty d grid")
    simulate = args.simulate is not None
    _reject_unread(args, "report", "--simulate" if simulate else "without --simulate")
    _require_positive(args, "n", "simulate", "workers")
    if args.d_min < 1 or args.d_max >= args.p:
        raise _UsageError(f"every d must be in 1..p-1={args.p - 1}, got {args.d_min}..{args.d_max}")
    seed = _seed_from(args) if simulate else None
    rows = []
    ratios = []
    ds = list(range(args.d_min, args.d_max + 1))
    family_spectrum = exp_spectrum if args.family == "exp" else poly_spectrum
    for d in ds:
        shape = verify.rate_shape(args.family, args.alpha, d, args.n)
        model = CovModel(family_spectrum(args.alpha, args.p, d), args.n)
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
                workers=args.workers or 1,
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

    if len(ratios) < 2:
        fit = "slope fit" if args.family == "exp" else "scaling band"
        raise _UsageError(f"the {args.family} {fit} needs two or more d that satisfy the bound condition")
    lo, hi = min(ratios), max(ratios)
    center, in_band = verify.ratio_band(ratios)
    print(f"ratio band: min {lo:.4g}, max {hi:.4g}, spread x{hi / lo:.3f}, center {center:.4g}")
    if args.family == "exp":
        valid = [(d, r[7]) for d, r in zip(ds, rows) if r[6]]
        slope, ok = verify.decay_slope(*zip(*valid), args.n, args.alpha)
        print(
            f"{'PASS' if ok else 'FAIL'} decay-slope fit: slope {slope:.4f} "
            f"vs -alpha {-args.alpha:.4f} (tolerance {verify.SLOPE_TOL:.0%})"
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
    for command, func, text in (
        ("bound", cmd_bound, "compute a lower bound"),
        ("simulate", cmd_simulate, "Monte Carlo Bayes risk vs. the bound"),
        ("verify", cmd_verify, "run a numerical verification suite"),
        ("report", cmd_report, "sweep a spectrum family and emit plot-ready CSV"),
    ):
        command_parser = sub.add_parser(command, help=text)
        command_parser.set_defaults(func=func)
        for flag in TAKES[command]:
            flag_type, flag_help = FLAGS[flag]
            command_parser.add_argument(f"--{flag}", type=flag_type, help=flag_help)
    b, s, v, r = sub.choices.values()

    b.add_argument("kind", choices=list(READS["bound"]))
    b.add_argument("--format", choices=["json", "csv"], default="json", help="artifact format")
    s.add_argument("--loss", choices=["hs", "excess"], required=True)
    s.add_argument("--reps", type=int, required=True, help="replicate count")
    v.add_argument("suite", choices=list(READS["verify"]))
    r.add_argument("--family", choices=["exp", "poly"], required=True, help="spectrum family")
    r.add_argument("--alpha", type=float, default=1.0, help="family decay rate (default 1)")
    r.add_argument("--d-min", type=int, default=3, help="smallest d of the sweep (default 3)")
    r.add_argument("--d-max", type=int, default=12, help="largest d of the sweep (default 12)")
    r.add_argument("--simulate", type=int, default=None, help="also simulate (replicate count)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at the exit's flush
        return code
    except BrokenPipeError:
        # What is left in stdout's buffer goes to devnull, or the exit's flush
        # would fail again; a stdout with no file descriptor has nothing to flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        with contextlib.suppress(OSError, ValueError):
            os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidInput, ConditionNotMet, DegenerateGap, MemoryError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)  # numpy's MemoryError names the size
        return EXIT_PRECONDITION
    except NotConverged as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
