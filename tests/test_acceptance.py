"""End-to-end acceptance checks for the whole library.

Each criterion prints a single PASS/FAIL line with its tolerance and
runtime budget (run pytest with -s to see them all; failures surface the
line regardless).
"""

import time

import numpy as np

from subspace_bounds import (
    CovModel,
    DenoiseModel,
    RngStream,
    SimConfig,
    SkewMatrix,
    Spectrum,
    bayes_risk,
    denoise_lower_bound,
    excess_lower_bound,
    exp_spectrum,
    generator,
    haar_orthogonal,
    hs_bound_d1,
    hs_lower_bound,
    lp_oracle_check,
    overlap_clt,
    poly_spectrum,
    random_projector,
    relrank_bound,
    relrank_condition,
    skew_exp,
)
from subspace_bounds.cli import main as cli_main
from subspace_bounds.verify import (
    decade_ratios,
    derivative_errors,
    excess_identity_gap,
    fisher_limit_checks,
    ratio_band,
)

from conftest import random_skew_unit, random_spectrum
from test_fisher import mc_chi2_cov, mc_chi2_meanshift


def report(criterion: int, passed: bool, elapsed: float, limit: float, detail: str):
    status = "PASS" if passed and elapsed < limit else "FAIL"
    print(f"criterion {criterion} {status} ({elapsed:.2f}s / limit {limit:.0f}s): {detail}")
    assert passed, f"criterion {criterion}: {detail}"
    assert elapsed < limit, f"criterion {criterion} exceeded its runtime limit"


def test_criterion_1_flow_matches_lp_oracle():
    """Flow optimum vs LP oracle on 500 instances, with duality certificates."""
    start = time.perf_counter()
    worst, worst_gap = lp_oracle_check(np.random.default_rng(101), 500)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-8 and worst_gap <= 1e-9,
        elapsed,
        10.0,
        f"max |flow - lp| = {worst:.2e}, max duality gap = {worst_gap:.2e}",
    )


def test_criterion_2_rank_one_closed_form():
    """Solver equals the rank-one closed form on 200 spectra x 3 deltas."""
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        p = int(rng.integers(2, 13))
        lam = np.sort(rng.uniform(0.1, 4.0, p))[::-1]
        if rng.uniform() < 0.2:
            lam[1] = lam[0]
            lam = np.sort(lam)[::-1]
        model = CovModel(Spectrum(lam, 1), n=int(rng.integers(1, 200)))
        for delta in (0.25, 1.0, 4.0):
            worst = max(
                worst, abs(hs_lower_bound(model, delta).value - hs_bound_d1(model, delta))
            )
    elapsed = time.perf_counter() - start
    report(2, worst <= 1e-10, elapsed, 5.0, f"max |solver - closed form| = {worst:.2e}")


MC_SPOT_INSTANCES = [
    ("cov", (2.0, 1.0), 1, 0.3, 11),
    ("cov", (3.0, 1.5, 0.8), 2, 0.25, 12),
    ("cov", (4.0, 2.0, 1.0, 0.5), 1, 0.2, 13),
    ("cov", (2.5, 1.2), 3, 0.2, 14),
    ("cov", (5.0, 3.0, 2.0), 1, 0.25, 15),
    ("den", (3.0, 1.0), 1.0, 0.3, 16),
    ("den", (2.0, 1.0, 0.0), 1.5, 0.4, 17),
    ("den", (4.0, 1.0), 2.0, 0.5, 18),
    ("den", (3.0, 2.0, 1.0), 1.0, 0.2, 19),
    ("den", (6.0, 2.0, 0.0, 0.0), 2.0, 0.3, 20),
]


def test_criterion_3_fisher_limits_and_mc_oracle():
    """Extrapolated D/t^2, D = log(1 + chi2), vs closed forms, and chi2 = expm1(D)
    vs Monte Carlo."""
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst_rel = 0.0
    checked = 0
    for _ in range(6):
        p = int(rng.integers(2, 7))
        d = int(rng.integers(1, p))
        spectrum = random_spectrum(rng, p, d, min_gap=0.1)
        n = int(rng.integers(1, 6))
        sigma = float(rng.uniform(0.5, 2.0))
        for check in fisher_limit_checks([CovModel(spectrum, n), DenoiseModel(spectrum, sigma)]):
            checked += 1
            assert check["status"] == "PASS", f"{check['name']}: {check['detail']}"
            worst_rel = max(worst_rel, check["report"]["rel_error"])
    worst_z = 0.0
    for kind, lam, param, t, seed in MC_SPOT_INSTANCES:
        spectrum = Spectrum(np.asarray(lam), 1)
        u = skew_exp(generator(len(lam), 0, 1), t)
        if kind == "cov":
            model = CovModel(spectrum, int(param))
            mc, se = mc_chi2_cov(model, u, 1_000_000, seed)
        else:
            model = DenoiseModel(spectrum, float(param))
            mc, se = mc_chi2_meanshift(model, u, 1_000_000, seed)
        closed = np.expm1(model.renyi2(u.a[None])[0])
        z = abs(mc - closed) / se
        worst_z = max(worst_z, z)
        assert z <= 3.0, f"{kind} {lam} t={t}: z = {z:.2f}"
    elapsed = time.perf_counter() - start
    report(
        3,
        worst_rel <= 1e-3 and worst_z <= 3.0,
        elapsed,
        120.0,
        f"{checked} limits, max rel err = {worst_rel:.2e}; 10 MC spots, max |z| = {worst_z:.2f}",
    )


def test_criterion_4_derivative_finite_differences():
    """Closed-form derivatives match finite differences with O(t) error."""
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst_final = 0.0
    ratios_seen = []
    for _ in range(20):
        p = int(rng.integers(3, 7))
        d = int(rng.integers(1, p))
        xi = SkewMatrix(random_skew_unit(rng, p))
        i, j = (int(v) for v in rng.choice(p, size=2, replace=False))
        for label, errs in zip(("projector", "basis-field"), derivative_errors(xi, d, i, j)):
            worst_final = max(worst_final, errs[-1])
            for ratio in decade_ratios(errs):
                ratios_seen.append(ratio)
                assert 5.0 <= ratio <= 20.0, f"{label} decade ratio {ratio:.2f}"
    elapsed = time.perf_counter() - start
    report(
        4,
        worst_final <= 1e-4,
        elapsed,
        5.0,
        f"max error at t=1e-5: {worst_final:.2e}; decade ratios in "
        f"[{min(ratios_seen):.1f}, {max(ratios_seen):.1f}]",
    )


def test_criterion_5_excess_risk_identity():
    """Trace-formula excess risk equals the weighted loss on 100 triples."""
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    g = RngStream(105, 0).generator()
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(2, 11))
        d = int(rng.integers(1, p))
        spectrum = random_spectrum(rng, p, d, min_gap=1e-3)
        u = haar_orthogonal(p, g)
        p_hat = random_projector(p, d, g)
        mu = float(rng.uniform(spectrum.lambdas[d], spectrum.lambdas[d - 1]))
        worst = max(worst, excess_identity_gap(spectrum, u, p_hat, mu))
    elapsed = time.perf_counter() - start
    report(5, worst <= 1e-9, elapsed, 5.0, f"max |trace - weighted| = {worst:.2e}")


DOMINATION_CONFIGS = [
    ("hs p=4", CovModel(Spectrum([4.0, 3.0, 1.0, 0.5], 2), 50), "hs_squared"),
    (
        "hs p=8",
        CovModel(Spectrum([6.0, 5.0, 4.0, 3.0, 1.0, 0.8, 0.6, 0.4], 3), 60),
        "hs_squared",
    ),
    ("excess p=4", CovModel(Spectrum([4.0, 3.0, 1.0, 0.5], 2), 50), "excess"),
    (
        "excess p=8",
        CovModel(Spectrum([6.0, 5.0, 4.0, 3.0, 1.0, 0.8, 0.6, 0.4], 3), 60),
        "excess",
    ),
    ("denoise p=4", DenoiseModel(Spectrum([10.0, 0.0, 0.0, 0.0], 1), 1.0), "hs_squared"),
    (
        "denoise p=8",
        DenoiseModel(Spectrum([12.0, 8.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 2), 1.0),
        "hs_squared",
    ),
]


def test_criterion_6_simulated_risk_dominates_bounds():
    """Simulated Bayes risk + 3 SE dominates each computed lower bound."""
    start = time.perf_counter()
    details = []
    ok = True
    for name, model, loss in DOMINATION_CONFIGS:
        if isinstance(model, DenoiseModel):
            bound = denoise_lower_bound(model, 1.0).value
        elif loss == "excess":
            bound = excess_lower_bound(model, "auto").value
        else:
            bound = hs_lower_bound(model, 1.0).value
        est = bayes_risk(SimConfig(model, loss, replicates=10_000, seed=106))
        margin = (est.mean - bound) / est.std_error if est.std_error else float("inf")
        ok = ok and (est.mean + 3 * est.std_error >= bound)
        details.append(f"{name}: margin {margin:+.1f} SE")
    elapsed = time.perf_counter() - start
    report(6, ok, elapsed, 300.0, "; ".join(details))


def test_criterion_7_scaling_bands():
    """Plug-in bound tracks d e^{-d}/n for the exponential family; for the
    squared-reciprocal family every swept ratio stays within a factor 3 of
    one central constant."""
    start = time.perf_counter()
    n = 10**6
    ds = range(3, 13)

    exp_ratios = []
    for d in ds:
        model = CovModel(exp_spectrum(1.0, 40, d), n)
        holds, _ = relrank_condition(model)
        assert holds, f"exponential condition failed at d={d}"
        exp_ratios.append(relrank_bound(model) / (d * np.exp(-d) / n))
    exp_spread = max(exp_ratios) / min(exp_ratios)

    poly_ratios = []
    for d in ds:
        model = CovModel(poly_spectrum(1.0, 40, d), n)
        holds, _ = relrank_condition(model)
        assert holds, f"polynomial condition failed at d={d}"
        poly_ratios.append(relrank_bound(model) / (d ** (2.0 - 1.0) / n))
    center, poly_within = ratio_band(poly_ratios)
    poly_spread = max(poly_ratios) / min(poly_ratios)

    elapsed = time.perf_counter() - start
    report(
        7,
        exp_spread <= 3.0 and poly_within,
        elapsed,
        10.0,
        f"exp band spread x{exp_spread:.2f} (<=3); poly ratios within factor "
        f"{max(max(poly_ratios) / center, center / min(poly_ratios)):.2f} of center "
        f"{center:.3g} (raw spread x{poly_spread:.2f})",
    )


def test_criterion_8_overlap_clt_scale():
    """Scaled eigenvector overlaps match the perturbation scale within 5 SE."""
    start = time.perf_counter()
    details = []
    ok = True
    for k, lam in enumerate(([2.0, 1.0], [3.0, 1.0], [4.0, 2.0, 1.0])):
        model = CovModel(Spectrum(lam, 1), n=1000)
        rep = overlap_clt(model, 0, 1, 10_000, RngStream(108, k))
        ok = ok and rep.passed
        details.append(f"lam={lam}: z {rep.z_score:+.2f}")
    elapsed = time.perf_counter() - start
    report(8, ok, elapsed, 60.0, "; ".join(details))


def test_criterion_9_artifact_determinism(tmp_path):
    """Repeated commands produce byte-identical artifacts at any worker count."""
    start = time.perf_counter()
    checks = []

    def twice(name, args_a, args_b=None):
        out_a, out_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        code_a = cli_main(args_a + ["--out", str(out_a)])
        code_b = cli_main((args_b or args_a) + ["--out", str(out_b)])
        same = out_a.read_bytes() == out_b.read_bytes()
        checks.append((name, code_a == code_b, same))

    twice("bound", ["bound", "hs", "--spectrum", "exp:0.7,9", "--d", "3", "--n", "40"])
    twice(
        "verify",
        ["verify", "fisher-limit", "--spectrum", "spike:3,1,1,3", "--n", "2"],
    )
    sim = ["simulate", "--loss", "hs", "--spectrum", "spike:4,1,2,6", "--n", "80",
           "--reps", "600", "--seed", "9"]
    twice("simulate", sim + ["--workers", "1"], sim + ["--workers", "3"])
    twice(
        "report",
        ["report", "--family", "exp", "--alpha", "1", "--p", "30", "--n", "100000",
         "--d-min", "3", "--d-max", "8"],
    )
    ok = all(code and same for _, code, same in checks)
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{name}:{'=' if same else '!='}" for name, _, same in checks)
    report(9, ok, elapsed, 120.0, detail)
