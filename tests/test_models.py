import json

import numpy as np
import pytest
from scipy import stats

from subspace_bounds import (
    CovModel,
    DenoiseModel,
    InvalidInput,
    RngStream,
    Spectrum,
    empirical_cov,
    exp_spectrum,
    haar_orthogonal,
    parse_spectrum,
    poly_spectrum,
    sample_cov,
    sample_denoise,
    sample_goe,
    spike_spectrum,
)

KS_ALPHA = 0.001


class TestSpectrum:
    def test_rejects_unsorted(self):
        with pytest.raises(InvalidInput):
            Spectrum([1.0, 2.0], 1)

    def test_rejects_bad_d(self):
        with pytest.raises(InvalidInput):
            Spectrum([2.0, 1.0], 3)

    def test_json_roundtrip(self):
        spectrum = Spectrum([3.0, 1.0, 0.5], 2)
        again = Spectrum.from_json_dict(json.loads(json.dumps(spectrum.to_json_dict())))
        np.testing.assert_array_equal(again.lambdas, spectrum.lambdas)
        assert again.d == spectrum.d

    def test_cov_model_needs_positive_tail(self):
        with pytest.raises(InvalidInput):
            CovModel(Spectrum([1.0, 0.0], 1), 5)
        DenoiseModel(Spectrum([1.0, 0.0], 1), 1.0)  # zero tail allowed here

    def test_denoise_needs_positive_sigma(self):
        with pytest.raises(InvalidInput):
            DenoiseModel(Spectrum([1.0, 0.5], 1), 0.0)

    @pytest.mark.parametrize("sigma", [1e300, 1e-300, np.inf, np.nan, -1.0])
    def test_denoise_sigma_squared_must_be_positive_and_finite(self, sigma):
        # sigma needs only 0 < sigma < inf: nothing squares sigma before
        # dividing by it, so a sigma whose square leaves the float range is fine.
        if 0.0 < sigma < np.inf:
            assert DenoiseModel(Spectrum([1.0, 0.5], 1), sigma).sigma == sigma
        else:
            with pytest.raises(InvalidInput, match="sigma must be > 0 and finite"):
                DenoiseModel(Spectrum([1.0, 0.5], 1), sigma)

    def test_order_check_does_not_overflow(self):
        # Neighbours are compared, not subtracted: 1e308 - (-1e308) overflows.
        spectrum = Spectrum([1e308, 1e308, -1e308], 1)
        assert spectrum.lambdas[-1] == -1e308
        with pytest.raises(InvalidInput, match="sorted non-increasing"):
            Spectrum([-1e308, 1e308], 1)

    @pytest.mark.parametrize("make", [lambda: exp_spectrum(-1000.0, 4), lambda: poly_spectrum(-1e300, 4)])
    def test_overflowing_family_is_rejected_without_warning(self, make):
        with pytest.raises(InvalidInput, match="lambdas must be finite"):
            make()


class TestRngStream:
    def test_same_key_identical_bytes(self):
        a = RngStream(123, 4).generator().standard_normal(16)
        b = RngStream(123, 4).generator().standard_normal(16)
        assert a.tobytes() == b.tobytes()

    def test_distinct_streams_differ(self):
        a = RngStream(123, 4).generator().standard_normal(16)
        b = RngStream(123, 5).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_child_keys_extend(self):
        s = RngStream(9, 1).child(2, 3)
        assert s.stream == (1, 2, 3)
        t = RngStream(9, (1, 2)).child(3)
        assert t.generator().standard_normal(4).tobytes() == s.generator().standard_normal(4).tobytes()


class TestHaar:
    def test_p1_is_fair_sign(self):
        g = RngStream(2026, 0).generator()
        draws = np.array([haar_orthogonal(1, g).a[0, 0] for _ in range(10_000)])
        assert set(np.unique(draws)) == {-1.0, 1.0}
        counts = [np.sum(draws == 1.0), np.sum(draws == -1.0)]
        assert stats.chisquare(counts).pvalue > KS_ALPHA

    def test_entry_mean_zero(self):
        g = RngStream(2026, 1).generator()
        u11 = np.array([haar_orthogonal(3, g).a[0, 0] for _ in range(10_000)])
        se = u11.std(ddof=1) / np.sqrt(u11.size)
        assert abs(u11.mean()) <= 3 * se

    def test_left_invariance_of_trace(self):
        g = RngStream(2026, 2).generator()
        v = haar_orthogonal(3, g).a
        tr_u = []
        tr_vu = []
        for _ in range(10_000):
            u = haar_orthogonal(3, g).a
            tr_u.append(np.trace(u))
            tr_vu.append(np.trace(v @ u))
        assert stats.ks_2samp(tr_u, tr_vu).pvalue > KS_ALPHA

    def test_seed_reproducible(self):
        a = haar_orthogonal(4, RngStream(7, 7))
        b = haar_orthogonal(4, RngStream(7, 7))
        assert a.a.tobytes() == b.a.tobytes()


class TestSamplers:
    def test_cov_identity_spectrum_lln(self):
        model = CovModel(Spectrum(np.ones(3), 1), n=100_000)
        g = RngStream(5, 0).generator()
        u = haar_orthogonal(3, g)
        x = sample_cov(model, u, g)
        cov = x.T @ x / model.n
        assert np.max(np.abs(cov - np.eye(3))) < 0.05

    def test_cov_single_row(self):
        model = CovModel(Spectrum([2.0, 1.0], 1), n=1)
        x = sample_cov(model, haar_orthogonal(2, RngStream(1, 1)), RngStream(1, 2))
        assert x.shape == (1, 2)

    def test_cov_marginal_variance(self):
        model = CovModel(Spectrum([4.0, 1.0], 1), n=20_000)
        g = RngStream(5, 3).generator()
        from subspace_bounds import OrthMatrix

        x = sample_cov(model, OrthMatrix(np.eye(2)), g)
        sq = x[:, 0] ** 2
        se = sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(sq.mean() - 4.0) <= 3 * se

    def test_cov_dim_mismatch(self):
        model = CovModel(Spectrum([2.0, 1.0], 1), n=3)
        with pytest.raises(InvalidInput):
            sample_cov(model, haar_orthogonal(3, RngStream(0, 0)), RngStream(0, 1))

    def test_goe_moments(self):
        g = RngStream(6, 0).generator()
        w11 = np.empty(30_000)
        w12 = np.empty(30_000)
        for k in range(w11.size):
            w = sample_goe(2, g).a
            w11[k], w12[k] = w[0, 0], w[0, 1]
        for sample, target in ((w11, 2.0), (w12, 1.0)):
            sq = sample**2
            se = sq.std(ddof=1) / np.sqrt(sq.size)
            assert abs(sq.mean() - target) <= 3 * se

    def test_goe_symmetric_exactly(self):
        w = sample_goe(5, RngStream(6, 1)).a
        assert np.array_equal(w, w.T)

    def test_goe_conjugation_invariance(self):
        g = RngStream(6, 2).generator()
        v = haar_orthogonal(3, g).a
        plain = []
        conj = []
        for _ in range(10_000):
            w = sample_goe(3, g).a
            plain.append(w[0, 0])
            conj.append((v @ w @ v.T)[0, 0])
        assert stats.ks_2samp(plain, conj).pvalue > KS_ALPHA

    def test_denoise_noiseless_limit(self):
        # the smallest decade whose square is still a positive float
        model = DenoiseModel(Spectrum([3.0, 1.0, 0.0], 2), sigma=1e-150)
        g = RngStream(8, 0).generator()
        u = haar_orthogonal(3, g)
        signal = (u.a * model.spectrum.lambdas) @ u.a.T
        x = sample_denoise(model, u, g)
        np.testing.assert_allclose(x.a, signal, atol=1e-140)

    def test_denoise_unbiased(self):
        model = DenoiseModel(Spectrum([3.0, 1.0], 1), sigma=1.0)
        g = RngStream(8, 1).generator()
        u = haar_orthogonal(2, g)
        signal = (u.a * model.spectrum.lambdas) @ u.a.T
        draws = np.stack([sample_denoise(model, u, g).a for _ in range(30_000)])
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(mean - signal) <= 3 * se)

    def test_denoise_seed_reproducible(self):
        model = DenoiseModel(Spectrum([3.0, 1.0], 1), sigma=0.5)
        u = haar_orthogonal(2, RngStream(8, 2))
        a = sample_denoise(model, u, RngStream(8, 3))
        b = sample_denoise(model, u, RngStream(8, 3))
        assert a.a.tobytes() == b.a.tobytes()


class TestEmpiricalCov:
    def test_single_row_outer_product(self):
        x = np.array([[1.0, 2.0]])
        np.testing.assert_allclose(empirical_cov(x).a, np.outer(x[0], x[0]))

    def test_basis_rows(self):
        x = np.eye(2)
        np.testing.assert_allclose(empirical_cov(x).a, np.diag([0.5, 0.5]))

    def test_positive_semidefinite(self, rng):
        x = rng.standard_normal((20, 4))
        vals = np.linalg.eigvalsh(empirical_cov(x).a)
        assert vals.min() >= -1e-12


class TestSpectrumShorthand:
    def test_families(self):
        e = exp_spectrum(1.0, 5, 2)
        np.testing.assert_allclose(e.lambdas, np.exp(-np.arange(1, 6)))
        p = poly_spectrum(1.0, 4, 1)
        np.testing.assert_allclose(p.lambdas, [1.0, 0.25, 1 / 9, 1 / 16])
        s = spike_spectrum(2.0, 1.0, 2, 4)
        np.testing.assert_array_equal(s.lambdas, [2.0, 2.0, 1.0, 1.0])
        assert s.d == 2

    def test_parse_shorthands(self):
        spectrum = parse_spectrum("spike:2,1,1,2")
        np.testing.assert_array_equal(spectrum.lambdas, [2.0, 1.0])
        assert spectrum.d == 1
        assert parse_spectrum("exp:1,10", d=3).d == 3
        assert parse_spectrum("poly:1,10", d=2).p == 10

    def test_parse_json(self):
        spectrum = parse_spectrum('{"lambdas": [2.0, 1.0, 0.5], "d": 2}')
        assert spectrum.d == 2 and spectrum.p == 3

    def test_parse_errors(self):
        with pytest.raises(InvalidInput):
            parse_spectrum("geom:1,5")
        with pytest.raises(InvalidInput):
            parse_spectrum("spike:1,2,1,4")  # increasing pair
        with pytest.raises(InvalidInput):
            parse_spectrum("spike:2,1,1,4", d=2)  # conflicting d

    @pytest.mark.parametrize(
        "text",
        [
            "exp:1,nan",
            "exp:1,inf",
            "exp:1,4.7",
            "poly:1,-inf",
            "spike:2,1,1.9,3",
            "spike:2,1,1,-3",
            "{bad",
            '{"lambdas": [2, 1]}',
            '{"lambdas": "ab", "d": 1}',
            '{"lambdas": [2, 1], "d": 1.5}',
            '{"lambdas": [2, 1], "d": "one"}',
        ],
    )
    def test_malformed_input_is_invalid(self, text):
        with pytest.raises(InvalidInput):
            parse_spectrum(text)

    def test_whole_float_counts_are_accepted(self):
        assert parse_spectrum("exp:1,10.0", d=2).p == 10
        assert parse_spectrum("spike:2,1,2.0,4.0").d == 2
        assert parse_spectrum('{"lambdas": [2, 1], "d": 1.0}').d == 1
