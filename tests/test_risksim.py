import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from subspace_bounds import (
    CovModel,
    DegenerateGap,
    DenoiseModel,
    InvalidInput,
    RiskEstimate,
    RngStream,
    SimConfig,
    Spectrum,
    WeightMatrix,
    bayes_risk,
    denoise_estimator,
    excess_risk,
    exp_spectrum,
    haar_orthogonal,
    overlap_clt,
    pca_estimator,
    poly_spectrum,
    projector_leq_d,
    sample_cov,
    sample_denoise,
    sym_eig,
    weighted_loss,
)


class TestPcaEstimator:
    def test_single_direction_data(self):
        data = np.array([[2.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        proj = pca_estimator(data, 1)
        np.testing.assert_allclose(proj.a, np.diag([1.0, 0.0]), atol=1e-12)

    def test_consistency_at_large_n(self):
        spectrum = Spectrum([8.0, 4.0, 1.0, 0.5], 2)
        model = CovModel(spectrum, n=100_000)
        g = RngStream(100, 0).generator()
        u = haar_orthogonal(4, g)
        proj = pca_estimator(sample_cov(model, u, g), 2)
        risk = weighted_loss(u, proj.a, 2, WeightMatrix.ones(4))
        assert risk < 0.01

    def test_projector_invariants(self):
        g = RngStream(100, 1).generator()
        data = g.standard_normal((30, 5))
        proj = pca_estimator(data, 2)
        assert np.max(np.abs(proj.a @ proj.a - proj.a)) <= 1e-9
        assert proj.rank == 2

    def test_degenerate_gap_raises(self):
        data = np.array([[1.0, 0.0], [0.0, 1.0]])  # empirical spectrum (1/2, 1/2)
        with pytest.raises(DegenerateGap):
            pca_estimator(data, 1)


class TestDenoiseEstimator:
    def test_noiseless_recovers_truth(self):
        spectrum = Spectrum([5.0, 2.0, 0.0], 1)
        g = RngStream(101, 0).generator()
        u = haar_orthogonal(3, g)
        x = (u.a * spectrum.lambdas) @ u.a.T
        proj = denoise_estimator(x, 1)
        np.testing.assert_allclose(proj.a, projector_leq_d(u, 1).a, atol=1e-9)

    def test_projector_invariants(self):
        g = RngStream(101, 1).generator()
        x = g.standard_normal((4, 4))
        proj = denoise_estimator((x + x.T) / 2, 2)
        assert abs(np.trace(proj.a) - 2.0) <= 1e-9


class TestBayesRisk:
    MODEL = CovModel(Spectrum([4.0, 3.0, 1.0, 0.5], 2), n=50)

    def test_seed_determinism(self):
        cfg = SimConfig(self.MODEL, "hs_squared", replicates=300, seed=1)
        assert bayes_risk(cfg) == bayes_risk(cfg)

    def test_worker_count_does_not_change_bytes(self):
        base = bayes_risk(SimConfig(self.MODEL, "hs_squared", 1100, seed=2, workers=1))
        multi = bayes_risk(SimConfig(self.MODEL, "hs_squared", 1100, seed=2, workers=3))
        assert base == multi

    def test_pool_has_at_most_one_process_per_chunk(self, monkeypatch):
        # Under fork a pool starts all max_workers processes at its first
        # submit; this fake records the request and maps in this process.
        import subspace_bounds.risksim as rs

        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(rs, "ProcessPoolExecutor", SerialPool)
        base = bayes_risk(SimConfig(self.MODEL, "hs_squared", 1100, seed=2, workers=1))
        many = bayes_risk(SimConfig(self.MODEL, "hs_squared", 1100, seed=2, workers=5000))
        assert requested == [3]  # 1100 replicates make 3 chunks of at most CHUNK = 512
        assert json.dumps(many.to_json_dict()) == json.dumps(base.to_json_dict())

    def test_mean_dominates_bound(self):
        from subspace_bounds import hs_lower_bound
        from subspace_bounds.verify import domination

        cfg = SimConfig(self.MODEL, "hs_squared", replicates=2000, seed=3)
        est = bayes_risk(cfg)
        assert domination(est, hs_lower_bound(self.MODEL, 1.0).value)[1]

    def test_excess_loss_requires_cov_model(self):
        dm = DenoiseModel(Spectrum([2.0, 1.0, 0.0], 1), 1.0)
        with pytest.raises(InvalidInput):
            SimConfig(dm, "excess", replicates=10, seed=0)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(InvalidInput, match="seed must be >= 0"):
            SimConfig(self.MODEL, "hs_squared", replicates=10, seed=-1)

    @pytest.mark.parametrize("field", ["replicates", "seed", "workers"])
    @pytest.mark.parametrize("value", [2.5, float("nan"), "3", None])
    def test_counts_must_be_whole_numbers(self, field, value):
        args = {"replicates": 10, "seed": 0, "workers": 1, field: value}
        with pytest.raises(InvalidInput, match=f"{field} must be a whole number"):
            SimConfig(self.MODEL, "hs_squared", **args)

    @pytest.mark.parametrize(
        "loss, workers, message",
        [("mse", 1, "loss must be one of"), ("hs_squared", 0, "workers must be >= 1")],
    )
    def test_rejects_unknown_loss_and_no_workers(self, loss, workers, message):
        with pytest.raises(InvalidInput, match=message):
            SimConfig(self.MODEL, loss, replicates=10, seed=0, workers=workers)

    def test_counts_are_written_as_ints(self):
        cfg = SimConfig(self.MODEL, "hs_squared", replicates=True, seed=4.0, workers=np.int64(1))
        assert (cfg.replicates, cfg.seed, cfg.workers) == (1, 4, 1)
        assert all(type(v) is int for v in (cfg.replicates, cfg.seed, cfg.workers))
        payload = json.dumps(bayes_risk(cfg).to_json_dict(), sort_keys=True)
        assert '"replicates": 1,' in payload and '"seed": 4,' in payload

    def test_non_whole_n_is_invalid_before_simulating(self):
        with pytest.raises(InvalidInput, match="n must be a whole number, got 2.5"):
            bayes_risk(SimConfig(CovModel(self.MODEL.spectrum, 2.5), "hs_squared", 10, seed=0))

    def test_replicates_must_be_positive(self):
        with pytest.raises(InvalidInput):
            SimConfig(self.MODEL, "hs_squared", replicates=0, seed=0)

    def test_risk_decreases_with_sample_size(self):
        estimates = []
        for n in (50, 200, 800):
            model = CovModel(Spectrum([4.0, 3.0, 1.0, 0.5], 2), n=n)
            estimates.append(bayes_risk(SimConfig(model, "hs_squared", 800, seed=4)))
        for a, b in zip(estimates, estimates[1:]):
            slack = 2.0 * np.hypot(a.std_error, b.std_error)
            assert b.mean <= a.mean + slack

    def test_pipeline_equivariance(self):
        """Rotating every draw by a fixed V leaves the loss unchanged.

        The estimator commutes with rotations and the loss is invariant, so
        per-replicate losses agree up to eigensolver roundoff; comparing the
        two means within Monte Carlo noise would hide a broken pipeline,
        while this direct comparison cannot.  This is why bayes_risk may
        simulate at U = I.
        """
        from subspace_bounds import OrthMatrix

        denoise = DenoiseModel(Spectrum([12.0, 8.0, 0.0, 0.0], 2), 1.0)
        for model, loss in ((self.MODEL, "hs_squared"), (self.MODEL, "excess"), (denoise, "hs_squared")):
            p, d = model.p, model.spectrum.d
            v = haar_orthogonal(p, RngStream(105, 0).generator()).a
            diffs = []
            for rep in range(200):
                rng = RngStream(106, rep).generator()
                u = haar_orthogonal(p, rng)
                if isinstance(model, CovModel):
                    data = sample_cov(model, u, rng)
                    plain, rotated = pca_estimator(data, d), pca_estimator(data @ v.T, d)
                else:
                    x = sample_denoise(model, u, rng).a
                    plain, rotated = denoise_estimator(x, d), denoise_estimator(v @ x @ v.T, d)
                losses = [_one_matrix_loss(model, loss, basis, p_hat)
                          for basis, p_hat in ((u, plain), (OrthMatrix(v @ u.a), rotated))]
                diffs.append(abs(losses[0] - losses[1]))
            assert max(diffs) <= 1e-8, (model, loss)

    @pytest.mark.parametrize(
        "model, loss",
        [
            (MODEL, "hs_squared"),
            (MODEL, "excess"),
            (DenoiseModel(Spectrum([10.0, 0.0, 0.0, 0.0], 1), 1.0), "hs_squared"),
        ],
    )
    def test_risk_matches_haar_and_rows_reference(self, model, loss):
        """bayes_risk at U = I against the reference path it replaced: a Haar
        basis per replicate, the data drawn at it (n Gaussian rows, or the
        rotated signal plus GOE noise), and the loss against that basis."""
        reps = 3000
        losses = np.empty(reps)
        for rep in range(reps):
            g = RngStream(110, rep).generator()
            u = haar_orthogonal(model.p, g)
            if isinstance(model, CovModel):
                p_hat = pca_estimator(sample_cov(model, u, g), model.spectrum.d)
            else:
                p_hat = denoise_estimator(sample_denoise(model, u, g), model.spectrum.d)
            losses[rep] = _one_matrix_loss(model, loss, u, p_hat)
        ref_se = losses.std(ddof=1) / np.sqrt(reps)
        est = bayes_risk(SimConfig(model, loss, replicates=reps, seed=111))
        assert abs(est.mean - losses.mean()) <= 4.0 * np.hypot(est.std_error, ref_se)
        assert est.std_error == pytest.approx(ref_se, rel=0.15)

    def test_estimate_serializes(self):
        est = RiskEstimate(0.5, 0.01, 100, 7, "hs_squared")
        payload = est.to_json_dict()
        assert payload["schema"] == 1
        assert payload["loss"] == "hs_squared"

    def test_degenerate_draws_are_resampled_and_counted(self, monkeypatch):
        import subspace_bounds.risksim as rs

        real = rs._degenerate
        calls = {"n": 0}

        def flaky(values, d):
            calls["n"] += 1
            if calls["n"] == 1:  # the chunk's first attempt: every replicate fails
                return np.ones(values.shape[0], dtype=bool)
            return real(values, d)

        clean = bayes_risk(SimConfig(self.MODEL, "hs_squared", replicates=8, seed=5))
        assert clean.resampled == 0
        monkeypatch.setattr(rs, "_degenerate", flaky)
        est = bayes_risk(SimConfig(self.MODEL, "hs_squared", replicates=8, seed=5))
        assert est.resampled == 8  # every replicate needed exactly one retry
        assert est.replicates == clean.replicates == 8

    def test_always_degenerate_model_raises(self):
        # One observation: the empirical covariance has rank 1, so the gap
        # below the second eigenvalue is zero on every draw.
        model = CovModel(Spectrum([3.0, 2.0, 1.0], 2), n=1)
        with pytest.raises(DegenerateGap) as info:
            bayes_risk(SimConfig(model, "hs_squared", replicates=3, seed=0))
        assert str(info.value) == "replicate 0 degenerate after 100 resamples"

    def test_batched_chunk_matches_one_matrix_pipeline(self):
        """Each replicate's loss from the eigenvector blocks equals the loss of
        the one-matrix functions on the same draw at U = I, to 1e-12 times its
        largest value (2d for hs, the sum of the leading d eigenvalues for
        excess), and the chunk's sums are exactly those of the block losses,
        drawn from the chunk's generator."""
        import subspace_bounds.risksim as rs
        from subspace_bounds import OrthMatrix

        for model, loss in (
            (self.MODEL, "hs_squared"),
            (self.MODEL, "excess"),
            (DenoiseModel(Spectrum([12.0, 8.0, 0.0, 0.0, 0.0], 2), 1.0), "hs_squared"),
        ):
            cfg = SimConfig(model, loss, replicates=40, seed=7)
            x = model.observe(40, RngStream(7, 0).generator())
            values, vectors = sym_eig(x)
            assert not rs._degenerate(values, model.spectrum.d).any()
            batched = rs._losses(cfg, vectors)
            ident = OrthMatrix(np.eye(model.p))
            # denoise_estimator is the top-d projector of any observed symmetric
            # matrix, a scatter included.
            refs = [
                _one_matrix_loss(model, loss, ident, denoise_estimator(x[rep], model.spectrum.d))
                for rep in range(40)
            ]
            d, lam = model.spectrum.d, model.spectrum.lambdas
            top = 2.0 * d if loss == "hs_squared" else float(np.sum(lam[:d]))
            np.testing.assert_allclose(batched, refs, rtol=0.0, atol=1e-12 * top)
            scaled = (batched / rs._loss_scale(cfg)).tolist()
            assert rs._chunk_sums(cfg, 0, 40) == (sum(scaled), sum(x * x for x in scaled), 0)


def _one_matrix_loss(model, loss, basis, p_hat) -> float:
    """The loss of one estimate against one basis, by the one-matrix functions."""
    if loss == "hs_squared":
        return weighted_loss(basis, p_hat.a, model.spectrum.d, WeightMatrix.ones(model.p))
    return excess_risk(model.spectrum, basis, p_hat)


# RiskEstimate and OverlapReport JSON, re-saved once when the simulation moved
# to U = I with one generator per chunk and the Bartlett scatter.  Each risk
# mean is within 1.1 standard errors of the one the Haar-basis, row-drawing
# pipeline saved before.  Three strings were re-saved again when the losses
# moved to eigenvector blocks: two excess means moved by at most 1.6e-15 and
# three standard errors by at most 3.1e-15, relative.
_P4 = [4.0, 3.0, 1.0, 0.5]
_P8 = [6.0, 5.0, 4.0, 3.0, 1.0, 0.8, 0.6, 0.4]
GOLDEN_RISKS = [
    (
        CovModel(Spectrum(_P4, 2), 50),
        "hs_squared",
        '{"loss": "hs_squared", "mean": 0.07145083355949487, "replicates": 600, '
        '"resampled": 0, "schema": 1, "seed": 106, "std_error": 0.0026836501433051448}',
    ),
    (
        CovModel(Spectrum(_P8, 3), 60),
        "hs_squared",
        '{"loss": "hs_squared", "mean": 0.7007475704607534, "replicates": 600, '
        '"resampled": 0, "schema": 1, "seed": 106, "std_error": 0.021870832297928394}',
    ),
    (
        CovModel(Spectrum(_P4, 2), 50),
        "excess",
        '{"loss": "excess", "mean": 0.08940363026433124, "replicates": 600, '
        '"resampled": 0, "schema": 1, "seed": 106, "std_error": 0.003155849038881343}',
    ),
    (
        CovModel(Spectrum(_P8, 3), 60),
        "excess",
        '{"loss": "excess", "mean": 0.6341836881062473, "replicates": 600, '
        '"resampled": 0, "schema": 1, "seed": 106, "std_error": 0.01616766321687282}',
    ),
    (
        DenoiseModel(Spectrum([10.0, 0.0, 0.0, 0.0], 1), 1.0),
        "hs_squared",
        '{"loss": "hs_squared", "mean": 0.0635901580790914, "replicates": 600, '
        '"resampled": 0, "schema": 1, "seed": 106, "std_error": 0.0022609361008339352}',
    ),
    (
        DenoiseModel(Spectrum([12.0, 8.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 2), 1.0),
        "hs_squared",
        '{"loss": "hs_squared", "mean": 0.2872203209470933, "replicates": 600, '
        '"resampled": 0, "schema": 1, "seed": 106, "std_error": 0.006342180611019954}',
    ),
]
GOLDEN_OVERLAP = (
    '{"i": 0, "j": 2, "n": 200, "replicates": 700, "sample_mean": 0.43594103961218295, '
    '"schema": 1, "status": "PASS", "std_error": 0.02176047559184896, '
    '"target": 0.4444444444444444, "z_score": -0.39077293124267376}'
)


class TestGoldenBytes:
    """Simulation output is pinned to saved bytes: the six acceptance-criterion-6
    models over two replicate chunks, and one overlap report."""

    @pytest.mark.parametrize("model,loss,expected", GOLDEN_RISKS)
    def test_risk_estimate_json(self, model, loss, expected):
        est = bayes_risk(SimConfig(model, loss, replicates=600, seed=106))
        assert json.dumps(est.to_json_dict(), sort_keys=True) == expected

    def test_overlap_report_json(self):
        model = CovModel(Spectrum([4.0, 2.0, 1.0], 1), n=200)
        report = overlap_clt(model, 0, 2, 700, RngStream(108, 9))
        assert json.dumps(report.to_json_dict(), sort_keys=True) == GOLDEN_OVERLAP


def _scaled(model, k: int):
    """The model with its spectrum, and a denoising model's sigma, times 2^k."""
    spectrum = Spectrum([math.ldexp(lam, k) for lam in model.spectrum.lambdas], model.spectrum.d)
    if isinstance(model, CovModel):
        return CovModel(spectrum, model.n)
    return DenoiseModel(spectrum, math.ldexp(model.sigma, k))


class TestScaleFree:
    """Scaling a criterion-6 model by 2^k leaves its hs risk and resample count
    unchanged and scales its excess risk by 2^k, to 1e-12 relative: the gap
    test is relative, and no sum of squared losses overflows or underflows."""

    @settings(max_examples=100)
    @given(st.sampled_from(GOLDEN_RISKS), st.integers(-1000, 1000))
    @example(GOLDEN_RISKS[2], 1000)
    @example(GOLDEN_RISKS[3], -1000)
    @example(GOLDEN_RISKS[5], 1000)
    @example(GOLDEN_RISKS[4], -1000)
    def test_bayes_risk_follows_the_scale_of_the_model(self, case, k):
        model, loss, _ = case
        base, scaled = (
            bayes_risk(SimConfig(m, loss, replicates=24, seed=9)) for m in (model, _scaled(model, k))
        )
        factor = 1.0 if loss == "hs_squared" else math.ldexp(1.0, k)
        assert scaled.mean == pytest.approx(base.mean * factor, rel=1e-12, abs=0.0)
        assert scaled.std_error == pytest.approx(base.std_error * factor, rel=1e-12, abs=0.0)
        assert scaled.resampled == base.resampled

    def test_estimators_follow_the_scale_of_the_data(self):
        g = RngStream(100, 2).generator()
        data, x = g.standard_normal((30, 5)), g.standard_normal((5, 5))
        scale = 2.0**-300
        for estimator, arg in ((pca_estimator, data), (denoise_estimator, (x + x.T) / 2)):
            unscaled = estimator(arg, 2).a
            np.testing.assert_allclose(estimator(arg * scale, 2).a, unscaled, rtol=0.0, atol=1e-12)


@st.composite
def large_n_models(draw):
    """Covariance models with exp, poly or random spectra, p <= 8, at n = 10^k,
    k <= 18; a random spectrum's gap at d is at least 1% of its top eigenvalue."""
    p = draw(st.integers(2, 8))
    d = draw(st.integers(1, p - 1))
    family = draw(st.sampled_from(["exp", "poly", "random"]))
    if family == "exp":
        lam = exp_spectrum(draw(st.floats(0.05, 3.0)), p, d).lambdas
    elif family == "poly":
        lam = poly_spectrum(draw(st.floats(0.1, 3.0)), p, d).lambdas
    else:
        values = draw(st.lists(st.floats(0.1, 10.0), min_size=p, max_size=p, unique=True))
        lam = np.sort(values)[::-1]
        assume(lam[d - 1] - lam[d] >= 0.01 * lam[0])
    return CovModel(Spectrum(lam, d), 10 ** draw(st.integers(0, 18)))


class TestLargeN:
    """The simulated excess loss of a draw is at least (lam_d - lam_{d+1})/2
    times its hs loss at every n: both come from blocks of the eigenvectors,
    so no terms of the size of lam cancel as the losses shrink like 1/n."""

    @settings(max_examples=200)
    @given(large_n_models(), st.integers(0, 2**32 - 1))
    @example(CovModel(Spectrum([4.0, 3.0, 1.0, 0.5, 0.25, 0.1], 2), 10**16), 1)
    def test_excess_loss_dominates_the_gap_times_the_hs_loss(self, model, seed):
        import subspace_bounds.risksim as rs

        d, lam = model.spectrum.d, model.spectrum.lambdas
        values, vectors = sym_eig(model.observe(64, RngStream(seed, 0).generator()))
        vectors = vectors[~rs._degenerate(values, d)]
        hs = rs._losses(SimConfig(model, "hs_squared", 1, 0), vectors)
        excess = rs._losses(SimConfig(model, "excess", 1, 0), vectors)
        assert np.all(excess >= (lam[d - 1] - lam[d]) / 2.0 * hs * (1.0 - 1e-12))

    def test_large_n_risk_scales_as_one_over_n(self):
        model = CovModel(Spectrum([4.0, 3.0, 1.0, 0.5, 0.25, 0.1], 2), 10**12)
        base = bayes_risk(SimConfig(model, "excess", replicates=256, seed=1)).mean
        for n in (10**15, 10**16, 10**18):
            est = bayes_risk(SimConfig(CovModel(model.spectrum, n), "excess", 256, 1))
            assert est.mean * n == pytest.approx(base * 10**12, rel=1e-6)


class TestOverlap:
    MODEL = CovModel(Spectrum([2.0, 1.0], 1), n=1000)

    def test_scale_matches_first_order_theory(self):
        report = overlap_clt(self.MODEL, 0, 1, 2000, RngStream(107, 0))
        assert report.target == pytest.approx(2.0)
        assert report.passed

    def test_equal_indices_rejected(self):
        with pytest.raises(InvalidInput):
            overlap_clt(self.MODEL, 1, 1, 100, RngStream(107, 1))

    def test_rng_must_be_stream_or_generator(self):
        with pytest.raises(InvalidInput, match="expected RngStream or numpy Generator"):
            overlap_clt(self.MODEL, 0, 1, 4, "x")

    def test_replicates_must_be_a_whole_number(self):
        with pytest.raises(InvalidInput, match="replicates must be a whole number, got 2.5"):
            overlap_clt(self.MODEL, 0, 1, 2.5, RngStream(107, 3))
        assert overlap_clt(self.MODEL, 0, 1, 20.0, RngStream(107, 3)).replicates == 20

    def test_wrong_side_rejected(self):
        model = CovModel(Spectrum([3.0, 2.0, 1.0], 2), n=100)
        with pytest.raises(InvalidInput):
            overlap_clt(model, 0, 1, 100, RngStream(107, 2))  # j inside leading block

    def test_scale_tracks_spectrum(self):
        means = []
        targets = []
        for lam in ([2.0, 1.0], [3.0, 1.0], [4.0, 2.0]):
            model = CovModel(Spectrum(lam, 1), n=500)
            report = overlap_clt(model, 0, 1, 1000, RngStream(108, int(lam[0])))
            means.append(report.sample_mean)
            targets.append(report.target)
            assert report.passed
        ratio = np.array(means) / np.array(targets)
        assert np.all(np.abs(ratio - 1.0) < 0.2)
