import json

import numpy as np
import pytest

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
    haar_orthogonal,
    overlap_clt,
    pca_estimator,
    projector_leq_d,
    sample_cov,
    sample_denoise,
    sym_eig_batch,
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

        cfg = SimConfig(self.MODEL, "hs_squared", replicates=2000, seed=3)
        est = bayes_risk(cfg)
        assert est.mean + 3 * est.std_error >= hs_lower_bound(self.MODEL, 1.0).value

    def test_excess_loss_requires_cov_model(self):
        dm = DenoiseModel(Spectrum([2.0, 1.0, 0.0], 1), 1.0)
        with pytest.raises(InvalidInput):
            SimConfig(dm, "excess", replicates=10, seed=0)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(InvalidInput, match="seed must be >= 0"):
            SimConfig(self.MODEL, "hs_squared", replicates=10, seed=-1)

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
        while this direct comparison cannot.
        """
        model = self.MODEL
        p, d = 4, 2
        g = RngStream(105, 0).generator()
        v = haar_orthogonal(p, g).a
        from subspace_bounds import OrthMatrix

        w_ones = WeightMatrix.ones(p)
        diffs = []
        for rep in range(200):
            rng = RngStream(106, rep).generator()
            u = haar_orthogonal(p, rng)
            data = sample_cov(model, u, rng)
            plain = weighted_loss(u, pca_estimator(data, d).a, d, w_ones)
            rotated = weighted_loss(
                OrthMatrix(v @ u.a), pca_estimator(data @ v.T, d).a, d, w_ones
            )
            diffs.append(abs(plain - rotated))
        assert max(diffs) <= 1e-8

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
        """Each replicate's loss from the stacked pipeline equals, bit for bit,
        the loss of the one-matrix functions on the same draw."""
        import subspace_bounds.risksim as rs

        for model, loss in (
            (self.MODEL, "hs_squared"),
            (self.MODEL, "excess"),
            (DenoiseModel(Spectrum([12.0, 8.0, 0.0, 0.0, 0.0], 2), 1.0), "hs_squared"),
        ):
            cfg = SimConfig(model, loss, replicates=40, seed=7)
            reps = np.arange(40)
            u, x = rs._draw(cfg, reps, np.zeros(40, dtype=int))
            values, vectors = sym_eig_batch(x)
            assert not rs._degenerate(values, model.spectrum.d).any()
            batched = rs._losses(cfg, u, vectors)
            for rep in reps:
                g = RngStream(7, (int(rep), 0)).generator()
                basis = haar_orthogonal(model.p, g)
                if isinstance(model, CovModel):
                    p_hat = pca_estimator(sample_cov(model, basis, g), model.spectrum.d)
                else:
                    p_hat = denoise_estimator(sample_denoise(model, basis, g), model.spectrum.d)
                if loss == "hs_squared":
                    ref = weighted_loss(basis, p_hat.a, model.spectrum.d, WeightMatrix.ones(model.p))
                else:
                    ref = excess_risk(model.spectrum, basis, p_hat)
                assert np.float64(ref).tobytes() == batched[rep].tobytes()


# RiskEstimate and OverlapReport JSON computed with the one-matrix pipeline
# (one sym_eig per replicate) before the stacked eigensolver replaced it.
_P4 = [4.0, 3.0, 1.0, 0.5]
_P8 = [6.0, 5.0, 4.0, 3.0, 1.0, 0.8, 0.6, 0.4]
GOLDEN_RISKS = [
    (
        CovModel(Spectrum(_P4, 2), 50),
        "hs_squared",
        '{"loss": "hs_squared", "mean": 0.07579551312244642, "replicates": 600, '
        '"resampled": 0, "schema": 1, "seed": 106, "std_error": 0.0031572005536184}',
    ),
    (
        CovModel(Spectrum(_P8, 3), 60),
        "hs_squared",
        '{"loss": "hs_squared", "mean": 0.6715373723650118, "replicates": 600, '
        '"resampled": 0, "schema": 1, "seed": 106, "std_error": 0.021700228325853565}',
    ),
    (
        CovModel(Spectrum(_P4, 2), 50),
        "excess",
        '{"loss": "excess", "mean": 0.09413517232730265, "replicates": 600, '
        '"resampled": 0, "schema": 1, "seed": 106, "std_error": 0.003647316791874988}',
    ),
    (
        CovModel(Spectrum(_P8, 3), 60),
        "excess",
        '{"loss": "excess", "mean": 0.6199757199640569, "replicates": 600, '
        '"resampled": 0, "schema": 1, "seed": 106, "std_error": 0.016584918130155175}',
    ),
    (
        DenoiseModel(Spectrum([10.0, 0.0, 0.0, 0.0], 1), 1.0),
        "hs_squared",
        '{"loss": "hs_squared", "mean": 0.06340572370881414, "replicates": 600, '
        '"resampled": 0, "schema": 1, "seed": 106, "std_error": 0.0020959200439608972}',
    ),
    (
        DenoiseModel(Spectrum([12.0, 8.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 2), 1.0),
        "hs_squared",
        '{"loss": "hs_squared", "mean": 0.2895969407566029, "replicates": 600, '
        '"resampled": 0, "schema": 1, "seed": 106, "std_error": 0.006116083477514235}',
    ),
]
GOLDEN_OVERLAP = (
    '{"i": 0, "j": 2, "n": 200, "replicates": 700, "sample_mean": 0.5092166067222873, '
    '"schema": 1, "status": "PASS", "std_error": 0.02582341755186323, '
    '"target": 0.4444444444444444, "z_score": 2.508272274487131}'
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
