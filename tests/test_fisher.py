import json

import numpy as np
import pytest

from subspace_bounds import (
    CovModel,
    DenoiseModel,
    InvalidInput,
    RngStream,
    SkewMatrix,
    Spectrum,
    canonical_bound,
    chi2_gauss_cov,
    chi2_gauss_meanshift,
    exp_spectrum,
    fisher_quad,
    generator,
    hs_bound_d1,
    overlap_clt,
    relrank_bound,
    spike_spectrum,
    verify_fisher_limit,
)
from subspace_bounds import bounds
from subspace_bounds.fisher import T_GRID
from subspace_bounds.linalg import OrthMatrix
from subspace_bounds.verify import fisher_limit_checks

from conftest import random_skew_unit, random_spectrum, rotation


def vech(a) -> np.ndarray:
    """Half-vectorization: the lower triangle column by column,
    (a11, a21, ..., ap1, a22, a32, ..., ap2, ..., app)."""
    m = np.asarray(a, dtype=np.float64)
    return np.concatenate([m[j:, j] for j in range(m.shape[0])])


def vech_diag_mask(p: int) -> np.ndarray:
    """Boolean mask over the vech positions that come from the diagonal."""
    return vech(np.eye(p)) == 1.0


def mc_chi2_cov(model, u, draws, seed):
    """Importance-sampling estimate of the covariance-model divergence.

    Draws from the base law and averages the squared likelihood ratio;
    the log determinants cancel because both covariances share a spectrum.
    """
    lam = model.spectrum.lambdas
    rng = np.random.default_rng(seed)
    sigma1 = (u.a * lam) @ u.a.T
    prec_diff = np.linalg.inv(sigma1) - np.diag(1.0 / lam)
    total = 0.0
    total_sq = 0.0
    left = draws
    while left > 0:
        m = min(200_000, left)
        left -= m
        log_ratio = np.zeros(m)
        for _ in range(model.n):
            x = rng.standard_normal((m, model.p)) * np.sqrt(lam)
            log_ratio += -0.5 * np.einsum("ni,ij,nj->n", x, prec_diff, x)
        r2 = np.exp(2.0 * log_ratio)
        total += r2.sum()
        total_sq += (r2 * r2).sum()
    mean = total / draws - 1.0
    var = max(0.0, (total_sq - total**2 / draws) / (draws - 1))
    return mean, float(np.sqrt(var / draws))


def mc_chi2_meanshift(model, u, draws, seed):
    """Importance-sampling estimate of the mean-shift divergence."""
    lam = model.spectrum.lambdas
    rng = np.random.default_rng(seed)
    delta = vech((u.a * lam) @ u.a.T - np.diag(lam))
    cov_diag = np.where(vech_diag_mask(model.p), 2.0, 1.0) * model.sigma**2
    quad = float(np.sum(delta * delta / cov_diag))
    total = 0.0
    total_sq = 0.0
    left = draws
    while left > 0:
        m = min(200_000, left)
        left -= m
        centered = rng.standard_normal((m, delta.size)) * np.sqrt(cov_diag)
        log_ratio = centered @ (delta / cov_diag) - 0.5 * quad
        r2 = np.exp(2.0 * log_ratio)
        total += r2.sum()
        total_sq += (r2 * r2).sum()
    mean = total / draws - 1.0
    var = max(0.0, (total_sq - total**2 / draws) / (draws - 1))
    return mean, float(np.sqrt(var / draws))


class TestFisherForms:
    def test_cov_two_point(self):
        model = CovModel(spike_spectrum(2, 1, 1, 2), n=1)
        assert fisher_quad(model, generator(2, 0, 1).a[None])[0] == pytest.approx(0.5)

    def test_cov_zero_gap(self):
        model = CovModel(spike_spectrum(2, 2, 1, 2), n=3)
        assert fisher_quad(model, generator(2, 0, 1).a[None])[0] == 0.0

    def test_cov_linear_in_n(self):
        xi = generator(3, 0, 2)
        spectrum = Spectrum([3.0, 2.0, 1.0], 1)
        v1 = fisher_quad(CovModel(spectrum, 1), xi.a[None])[0]
        v10 = fisher_quad(CovModel(spectrum, 10), xi.a[None])[0]
        assert v10 == pytest.approx(10 * v1, rel=1e-14)

    def test_denoise_two_point(self):
        model = DenoiseModel(spike_spectrum(3, 1, 1, 2), sigma=1.0)
        assert fisher_quad(model, generator(2, 0, 1).a[None])[0] == pytest.approx(4.0)

    def test_denoise_zero_gap(self):
        model = DenoiseModel(spike_spectrum(1, 1, 1, 3), sigma=2.0)
        assert fisher_quad(model, generator(3, 0, 2).a[None])[0] == 0.0

    def test_denoise_sigma_scaling(self):
        xi = generator(2, 0, 1)
        spectrum = spike_spectrum(3, 1, 1, 2)
        v1 = fisher_quad(DenoiseModel(spectrum, 1.0), xi.a[None])[0]
        v2 = fisher_quad(DenoiseModel(spectrum, 2.0), xi.a[None])[0]
        assert v2 == pytest.approx(v1 / 4.0, rel=1e-14)

    def test_quadratic_scaling(self, rng):
        p = 4
        xi = SkewMatrix(random_skew_unit(rng, p))
        scaled = SkewMatrix(3.0 * xi.a)
        spectrum = random_spectrum(rng, p, 2, min_gap=0.05)
        for model in (CovModel(spectrum, 2), DenoiseModel(spectrum, 0.7)):
            assert fisher_quad(model, scaled.a[None])[0] == pytest.approx(
                9.0 * fisher_quad(model, xi.a[None])[0], rel=1e-12
            )

    def test_generator_quad_matches_quad(self, rng):
        spectrum = random_spectrum(rng, 5, 2, min_gap=0.05)
        lam = spectrum.lambdas
        for model in (CovModel(spectrum, 4), DenoiseModel(spectrum, 1.3)):
            for i, j in ((0, 3), (1, 4), (0, 1)):
                assert model.generator_fisher(lam[i], lam[j]) == pytest.approx(
                    fisher_quad(model, generator(5, i, j).a[None])[0], rel=1e-12
                )

    def test_direction_stack_is_checked(self):
        model = CovModel(Spectrum([3.0, 2.0, 1.0], 1), 2)
        for bad in (generator(3, 0, 1).a, np.zeros((1, 2, 2)), np.full((1, 3, 3), np.nan)):
            with pytest.raises(InvalidInput):
                fisher_quad(model, bad)

    def test_empty_direction_stack(self):
        spectrum = Spectrum([2.0, 1.0], 1)
        models = [CovModel(spectrum, 5), DenoiseModel(spectrum, 0.5)]
        empty = np.zeros((0, 2, 2))
        assert [model.renyi2(empty).shape for model in models] == [(0,), (0,)]
        assert fisher_quad(models[0], empty).shape == (0,)
        assert verify_fisher_limit(models, empty) == [[], []]


class TestChiSquareCov:
    def test_zero_at_identity(self):
        model = CovModel(Spectrum([2.0, 1.0], 1), n=3)
        assert chi2_gauss_cov(model, OrthMatrix(np.eye(2))) == 0.0

    def test_small_rotation_matches_fisher(self):
        model = CovModel(spike_spectrum(2, 1, 1, 2), n=1)
        t = 1e-3
        u = rotation(generator(2, 0, 1), t)
        ratio = chi2_gauss_cov(model, u) / t**2
        assert ratio == pytest.approx(0.5, rel=1e-2)

    def test_monotone_in_n(self):
        spectrum = spike_spectrum(2, 1, 1, 2)
        u = rotation(generator(2, 0, 1), 0.4)
        v1 = chi2_gauss_cov(CovModel(spectrum, 1), u)
        v2 = chi2_gauss_cov(CovModel(spectrum, 2), u)
        assert 0.0 < v1 <= v2

    def test_divergent_pair_returns_inf(self):
        # a quarter rotation swaps the axes; the eigenvalue ratio 50 breaks
        # the definiteness condition for a finite squared-ratio integral
        model = CovModel(Spectrum([5.0, 0.1], 1), n=1)
        u = rotation(generator(2, 0, 1), np.pi / 2)
        assert chi2_gauss_cov(model, u) == np.inf

    def test_matches_monte_carlo(self):
        model = CovModel(Spectrum([3.0, 1.5, 0.8], 1), n=2)
        u = rotation(generator(3, 0, 1), 0.25)
        closed = chi2_gauss_cov(model, u)
        mc, se = mc_chi2_cov(model, u, 200_000, seed=42)
        assert abs(mc - closed) <= 3 * se

    @pytest.mark.parametrize("p", [2, 6, 10])
    def test_stacked_grid_matches_one_matrix_calls(self, p):
        rng = np.random.default_rng(50 + p)
        model = CovModel(random_spectrum(rng, p, max(1, p // 3), min_gap=0.05), n=40)
        xi = SkewMatrix(random_skew_unit(rng, p))
        rotations = [rotation(xi, t) for t in T_GRID]
        single = np.array([model.renyi2(u.a[None])[0] for u in rotations])
        stacked = model.renyi2(np.stack([u.a for u in rotations]))
        assert stacked.tobytes() == single.tobytes()
        chi2 = np.array([chi2_gauss_cov(model, u) for u in rotations])
        assert chi2.tobytes() == np.expm1(single).tobytes()
        [[report]] = verify_fisher_limit([model], xi.a[None])
        ratios = report.ratios
        assert ratios == tuple(float(c / (t * t)) for c, t in zip(single, T_GRID))

    def test_zero_and_inf_are_decided_per_matrix(self):
        # lam / sqrt(lam)^2 rounds away from 1 for 6 and 0.2, so only the
        # exact-equality test gives 0 at the identity.
        model = CovModel(Spectrum([6.0, 0.2], 1), n=1)
        rotations = [
            OrthMatrix(np.eye(2)),
            rotation(generator(2, 0, 1), np.pi / 2),
            rotation(generator(2, 0, 1), 1e-3),
        ]
        stacked = model.renyi2(np.stack([u.a for u in rotations]))
        assert stacked[0] == 0.0 and stacked[1] == np.inf
        assert np.expm1(stacked[2]) == chi2_gauss_cov(model, rotations[2]) > 0.0


class TestChiSquareMeanshift:
    def test_zero_at_identity(self):
        model = DenoiseModel(Spectrum([3.0, 1.0], 1), sigma=1.0)
        assert chi2_gauss_meanshift(model, OrthMatrix(np.eye(2))) == 0.0

    def test_small_rotation_matches_fisher(self):
        model = DenoiseModel(spike_spectrum(3, 1, 1, 2), sigma=1.0)
        t = 1e-3
        u = rotation(generator(2, 0, 1), t)
        assert chi2_gauss_meanshift(model, u) / t**2 == pytest.approx(4.0, rel=1e-2)

    def test_matches_monte_carlo(self):
        model = DenoiseModel(Spectrum([3.0, 1.0], 1), sigma=1.0)
        u = rotation(generator(2, 0, 1), 0.3)
        closed = chi2_gauss_meanshift(model, u)
        mc, se = mc_chi2_meanshift(model, u, 200_000, seed=43)
        assert abs(mc - closed) <= 3 * se

    @pytest.mark.parametrize("p", [2, 6, 10])
    def test_stack_matches_one_matrix_calls(self, p):
        rng = np.random.default_rng(80 + p)
        model = DenoiseModel(random_spectrum(rng, p, max(1, p // 3), min_gap=0.05), sigma=0.4)
        xi = SkewMatrix(random_skew_unit(rng, p))
        rotations = [rotation(xi, t) for t in (*T_GRID, 0.3)]
        single = np.array([chi2_gauss_meanshift(model, u) for u in rotations])
        stacked = np.expm1(model.renyi2(np.stack([u.a for u in rotations])))
        assert stacked.tobytes() == single.tobytes()

    @pytest.mark.parametrize("p", [2, 5, 9])
    def test_full_matrix_sum_equals_vech_quadratic(self, p):
        # (1/2) sum_kl (Delta_kl / sigma)^2 counts each off-diagonal entry twice,
        # which is the vech quadratic with the GOE covariance's inverse.
        rng = np.random.default_rng(70 + p)
        model = DenoiseModel(random_spectrum(rng, p, 1, min_gap=0.05), sigma=0.7)
        lam = model.spectrum.lambdas
        inv_w = np.where(vech_diag_mask(p), 0.5, 1.0) / model.sigma**2
        for t in (*T_GRID, 0.3, 2.0):
            u = rotation(SkewMatrix(random_skew_unit(rng, p)), t)
            delta = vech((u.a * lam) @ u.a.T - np.diag(lam))
            quad = float(np.sum(inv_w * delta * delta))
            assert model.renyi2(u.a[None])[0] == pytest.approx(quad, rel=1e-13, abs=0.0)

    def test_sigma_is_divided_before_squaring(self):
        # sigma^2 leaves the float range at both scales; D does not depend on the scale.
        u = rotation(generator(2, 0, 1), 0.3).a[None]
        base = DenoiseModel(Spectrum([3.0, 1.0], 1), 1.0).renyi2(u)[0]
        for scale in (1e200, 1e-200):
            model = DenoiseModel(Spectrum([3.0 * scale, scale], 1), scale)
            assert model.renyi2(u)[0] == pytest.approx(base, rel=1e-14)


class TestFisherLimit:
    def test_cov_example(self):
        model = CovModel(spike_spectrum(2, 1, 1, 2), n=3)
        [[report]] = verify_fisher_limit([model], generator(2, 0, 1).a[None])
        assert report.passed
        assert report.extrapolated == pytest.approx(1.5, rel=1e-6)

    def test_equal_eigenvalues_limit_zero(self):
        model = CovModel(spike_spectrum(2, 2, 1, 3), n=2)
        [[report]] = verify_fisher_limit([model], generator(3, 0, 1).a[None])
        assert report.passed
        assert report.closed_form == 0.0

    def test_denoise_example(self):
        model = DenoiseModel(spike_spectrum(3, 1, 1, 2), sigma=2.0)
        [[report]] = verify_fisher_limit([model], generator(2, 0, 1).a[None])
        assert report.passed
        assert report.extrapolated == pytest.approx(1.0, rel=1e-6)

    def test_report_serializes(self):
        model = CovModel(spike_spectrum(2, 1, 1, 2), n=1)
        [[report]] = verify_fisher_limit([model], generator(2, 0, 1).a[None])
        payload = report.to_json_dict()
        assert payload["status"] == "PASS"
        assert len(payload["ratios"]) == 3

    @pytest.mark.parametrize("n", [3, 1000, 10**5, 10**7, 10**12])
    def test_log_domain_limit_holds_at_any_n(self, n):
        # chi2 = expm1(D) is far from its t^2 limit at t = 1e-2 once n t^2 I is
        # not small, and overflows at n = 1e7; D / t^2 stays close at every n.
        model = CovModel(exp_spectrum(0.5, 8, 1), n)
        checks = fisher_limit_checks([model])
        assert len(checks) == 28
        assert max(c["report"]["rel_error"] for c in checks) <= 1e-7

    @pytest.mark.parametrize("sigma", [1.0, 0.1, 1e-3])
    def test_log_domain_limit_holds_at_small_sigma(self, sigma):
        checks = fisher_limit_checks([DenoiseModel(exp_spectrum(1.0, 4, 1), sigma)])
        assert max(c["report"]["rel_error"] for c in checks) <= 1e-10

    def test_non_finite_fisher_value_is_invalid_input(self):
        model = DenoiseModel(spike_spectrum(1e200, 1, 1, 3), 1e-150)
        with pytest.raises(InvalidInput, match="Fisher information overflows"):
            fisher_quad(model, generator(3, 1, 2).a[None])
        with pytest.raises(InvalidInput, match="Fisher information overflows"):
            verify_fisher_limit([model], generator(3, 0, 1).a[None])


class TestFisherLimitChecks:
    @staticmethod
    def full_stack_reports(spectrum) -> list[list[dict]]:
        """Each model's report on each generator of the full stack, checked to
        have the bytes of the report on that generator alone and of the check
        records' reports."""
        p = spectrum.p
        models = [CovModel(spectrum, 20), DenoiseModel(spectrum, 0.6)]
        pairs = [(i, j) for i in range(p - 1) for j in range(i + 1, p)]
        xis = np.stack([generator(p, i, j).a for i, j in pairs])
        full = [[r.to_json_dict() for r in reports] for reports in verify_fisher_limit(models, xis)]
        for k, xi in enumerate(xis):
            alone = verify_fisher_limit(models, xi[None])
            assert json.dumps([r.to_json_dict() for [r] in alone]) == json.dumps([f[k] for f in full])
        checks = fisher_limit_checks(models)
        assert [c["name"] for c in checks] == [f"{m.kind} L({i},{j})" for m in models for i, j in pairs]
        assert json.dumps([c["report"] for c in checks]) == json.dumps(sum(full, []))
        return full

    @pytest.mark.parametrize("p", [2, 6, 10])
    def test_stack_of_one_matches_its_entry_in_the_full_stack(self, p):
        rng = np.random.default_rng(90 + p)
        self.full_stack_reports(random_spectrum(rng, p, max(1, p // 2), min_gap=0.05))

    def test_pairs_whose_target_is_zero_match_alone(self):
        # equal eigenvalues within each block: I_ij = 0, checked to ZERO_ATOL
        full = self.full_stack_reports(spike_spectrum(3.0, 1.0, 4, 10))
        zero = [r for reports in full for r in reports if r["closed_form"] == 0.0]
        assert len(zero) == 2 * (6 + 15)
        assert all(r["status"] == "PASS" for r in zero)

    def test_non_finite_fisher_value_raises_before_any_divergence(self, monkeypatch):
        def no_divergence(self, u):
            raise AssertionError("a divergence was computed")

        monkeypatch.setattr(DenoiseModel, "renyi2", no_divergence)
        monkeypatch.setattr(CovModel, "renyi2", no_divergence)
        spectrum = spike_spectrum(1e200, 1, 1, 3)
        for models in (
            [DenoiseModel(spectrum, 1e-150)],
            [CovModel(spectrum, 5), DenoiseModel(spectrum, 1e-150)],
        ):
            with pytest.raises(InvalidInput, match="denoising Fisher information overflows"):
                fisher_limit_checks(models)
        with pytest.raises(InvalidInput, match="denoising Fisher information overflows"):
            verify_fisher_limit([DenoiseModel(spectrum, 1e-150)], generator(3, 0, 1).a[None])

    def test_needs_two_dimensions_and_one_p(self):
        with pytest.raises(InvalidInput):
            fisher_limit_checks([CovModel(Spectrum([1.0], 1), 3)])
        with pytest.raises(InvalidInput):
            fisher_limit_checks(
                [CovModel(spike_spectrum(2, 1, 1, 3), 3), DenoiseModel(spike_spectrum(2, 1, 1, 2), 1)]
            )


class TestOneSourceOfTruth:
    """Every closed form, plug-in value and check target reads the Fisher
    information from ``generator_fisher``: doubling it halves each value that
    is an inverse of it and doubles each quadratic form, bit for bit, since a
    power-of-two factor rounds exactly."""

    def test_every_consumer_follows_generator_fisher(self, monkeypatch):
        # every edge cap lies below 1/p and delta, so no min() clips a value
        model = CovModel(Spectrum([4.0, 2.0, 1.0], 1), 1000)

        def values():
            inverses = (
                hs_bound_d1(model),
                canonical_bound(model),
                relrank_bound(model),
                overlap_clt(model, 0, 1, 2, RngStream(1, 0)).target,
            )
            checks = fisher_limit_checks([model])
            closed = (c["report"]["closed_form"] for c in checks)
            quads = (fisher_quad(model, generator(3, 0, 2).a[None])[0], *closed)
            return inverses, quads

        inverses, quads = values()
        original = CovModel.generator_fisher
        monkeypatch.setattr(
            CovModel, "generator_fisher", lambda self, li, lj: 2.0 * original(self, li, lj)
        )
        assert values() == (tuple(v / 2.0 for v in inverses), tuple(2.0 * v for v in quads))

    @pytest.mark.parametrize(
        "model",
        [
            CovModel(exp_spectrum(0.3, 9, 4), 1000),
            CovModel(Spectrum(np.ldexp(exp_spectrum(0.3, 9, 4).lambdas, 1000), 4), 10**308),
            CovModel(Spectrum(np.ldexp(exp_spectrum(0.3, 9, 4).lambdas, -1000), 4), 1),
            DenoiseModel(exp_spectrum(0.3, 9, 4), 0.1),
            DenoiseModel(Spectrum(np.ldexp(exp_spectrum(0.3, 9, 4).lambdas, 1000), 4), 2.0**-20),
            DenoiseModel(Spectrum([3.0, 3.0, 1.0, 1.0, 0.0], 2), 0.5),
        ],
        ids=["cov", "cov_overflows", "cov_tiny", "denoise", "denoise_overflows", "denoise_ties"],
    )
    def test_rectangle_has_the_bits_of_scalar_calls(self, model):
        """The edge caps' rectangle is taken in place; each entry keeps the bits of
        the scalar formula, and a scalar call returns a float, not an array."""
        lam, d, p = model.spectrum.lambdas, model.spectrum.d, model.p
        rectangle = bounds._fisher_rectangle(model, range(d), range(d, p))
        assert rectangle.shape == (d, p - d)
        for i in range(d):
            for j in range(d, p):
                for li, lj in ((lam[i], lam[j]), (float(lam[i]), float(lam[j]))):
                    one = model.generator_fisher(li, lj)
                    assert isinstance(one, float) and np.ndim(one) == 0
                    assert np.float64(one).tobytes() == rectangle[i, j - d].tobytes()
