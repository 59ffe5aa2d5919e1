import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_bounds import (
    InvalidInput,
    OrthMatrix,
    Projector,
    RngStream,
    SkewMatrix,
    Spectrum,
    WeightMatrix,
    dP_dir,
    dv_dir,
    excess_risk,
    excess_risk_weights,
    generator,
    haar_from_normals,
    haar_orthogonal,
    projector_leq_d,
    random_projector,
    weighted_loss,
)
from subspace_bounds.verify import derivative_checks, loss_identity_check

from conftest import random_skew_unit, random_spectrum, rotation


class TestGenerator:
    def test_entries(self):
        l02 = generator(3, 0, 2).a
        expected = np.zeros((3, 3))
        expected[0, 2], expected[2, 0] = 1.0, -1.0
        np.testing.assert_array_equal(l02, expected)

    def test_rejects_equal_indices(self):
        with pytest.raises(InvalidInput):
            generator(3, 1, 1)


class TestProjector:
    def test_identity_leading_block(self):
        from subspace_bounds import OrthMatrix

        proj = projector_leq_d(OrthMatrix(np.eye(3)), 2)
        np.testing.assert_allclose(proj.a, np.diag([1.0, 1.0, 0.0]))

    def test_full_rank_is_identity(self):
        u = haar_orthogonal(4, RngStream(1, 0))
        np.testing.assert_allclose(projector_leq_d(u, 4).a, np.eye(4), atol=1e-12)

    def test_idempotent_and_trace(self):
        g = RngStream(1, 1).generator()
        for _ in range(20):
            u = haar_orthogonal(5, g)
            proj = projector_leq_d(u, 2)
            assert np.max(np.abs(proj.a @ proj.a - proj.a)) <= 1e-10
            assert abs(np.trace(proj.a) - 2.0) <= 1e-10

    def test_rejects_non_idempotent(self):
        with pytest.raises(InvalidInput):
            Projector(np.diag([0.5, 0.5]))

    def test_out_of_range_d(self):
        u = haar_orthogonal(3, RngStream(1, 2))
        with pytest.raises(InvalidInput):
            projector_leq_d(u, 0)


class TestProjectorDerivative:
    def test_cross_block_generator(self):
        p, d = 4, 2
        out = dP_dir(p, d, generator(p, 1, 3))
        expected = np.zeros((p, p))
        expected[1, 3] = expected[3, 1] = -1.0
        np.testing.assert_allclose(out.a, expected, atol=1e-15)

    def test_within_block_generator_vanishes(self):
        p, d = 4, 2
        assert np.all(dP_dir(p, d, generator(p, 0, 1)).a == 0.0)
        assert np.all(dP_dir(p, d, generator(p, 2, 3)).a == 0.0)

    def test_matches_finite_difference(self, rng):
        p, d, t = 5, 2, 1e-6
        xi = SkewMatrix(random_skew_unit(rng, p))
        base = np.zeros((p, p))
        base[:d, :d] = np.eye(d)
        fd = (projector_leq_d(rotation(xi, t), d).a - base) / t
        assert np.max(np.abs(fd - dP_dir(p, d, xi).a)) <= 1e-5

    def test_error_decays_linearly(self, rng):
        checks = derivative_checks(SkewMatrix(random_skew_unit(rng, 6)), 3, 0, 1, 0)
        assert all(c["status"] == "PASS" for c in checks), checks


class TestBasisFieldDerivative:
    def test_diagonal_difference_for_own_generator(self):
        out = dv_dir(2, 0, 1, generator(2, 0, 1))
        np.testing.assert_allclose(out, np.diag([1.0, -1.0]), atol=1e-15)

    def test_zero_direction(self):
        out = dv_dir(3, 0, 2, SkewMatrix(np.zeros((3, 3))))
        assert np.all(out == 0.0)

    def test_matches_finite_difference(self, rng):
        p, i, j, t = 5, 1, 3, 1e-6
        xi = SkewMatrix(random_skew_unit(rng, p))
        base = np.zeros((p, p))
        base[i, j] = 1.0
        q = rotation(xi, t).a
        fd = (np.outer(q[:, i], q[:, j]) - base) / t
        assert np.max(np.abs(fd - dv_dir(p, i, j, xi))) <= 1e-5


class TestWeightedLoss:
    def test_zero_at_truth(self):
        u = haar_orthogonal(4, RngStream(2, 0))
        proj = projector_leq_d(u, 2)
        assert weighted_loss(u, proj.a, 2, WeightMatrix.ones(4)) == pytest.approx(0.0, abs=1e-18)

    def test_unit_weights_give_squared_distance_to_zero(self):
        from subspace_bounds import OrthMatrix

        u = OrthMatrix(np.eye(2))
        assert weighted_loss(u, np.zeros((2, 2)), 1, WeightMatrix.ones(2)) == pytest.approx(1.0)

    def test_rotation_invariance(self):
        g = RngStream(2, 1).generator()
        rng = np.random.default_rng(4)
        for _ in range(10):
            p, d = 5, 2
            u = haar_orthogonal(p, g)
            v = haar_orthogonal(p, g).a
            a = rng.standard_normal((p, p))
            w = WeightMatrix(rng.uniform(0.0, 2.0, (p, p)))
            from subspace_bounds import OrthMatrix

            lhs = weighted_loss(OrthMatrix(v @ u.a), v @ a @ v.T, d, w)
            rhs = weighted_loss(u, a, d, w)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_unit_weights_equal_frobenius_distance(self, rng):
        p, d = 4, 2
        u = haar_orthogonal(p, RngStream(2, 2))
        a = rng.standard_normal((p, p))
        direct = float(np.sum((a - projector_leq_d(u, d).a) ** 2))
        assert weighted_loss(u, a, d, WeightMatrix.ones(p)) == pytest.approx(direct, rel=1e-12)


class TestExcessRiskWeights:
    def test_midpoint_rows(self):
        w = excess_risk_weights(Spectrum([2.0, 1.0], 1), 1.5).w
        np.testing.assert_allclose(w[0], 0.5)
        np.testing.assert_allclose(w[1], 0.5)

    def test_boundary_top(self):
        w = excess_risk_weights(Spectrum([2.0, 1.0], 1), 2.0).w
        np.testing.assert_allclose(w[0], 0.0)

    def test_boundary_bottom(self):
        w = excess_risk_weights(Spectrum([2.0, 1.0], 1), 1.0).w
        np.testing.assert_allclose(w[1], 0.0)

    def test_outside_interval_rejected(self):
        with pytest.raises(InvalidInput):
            excess_risk_weights(Spectrum([2.0, 1.0], 1), 2.5)


class TestExcessRisk:
    def test_zero_at_truth(self):
        spectrum = Spectrum([2.0, 1.0, 0.5], 1)
        u = haar_orthogonal(3, RngStream(3, 0))
        assert excess_risk(spectrum, u, projector_leq_d(u, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_swapped_axis(self):
        from subspace_bounds import OrthMatrix

        spectrum = Spectrum([2.0, 1.0], 1)
        p_hat = Projector(np.diag([0.0, 1.0]))
        assert excess_risk(spectrum, OrthMatrix(np.eye(2)), p_hat) == pytest.approx(1.0)

    def test_rank_mismatch_rejected(self):
        spectrum = Spectrum([2.0, 1.0, 0.5], 1)
        u = haar_orthogonal(3, RngStream(3, 1))
        with pytest.raises(InvalidInput):
            excess_risk(spectrum, u, projector_leq_d(u, 2))

    def test_nonnegative_over_random_projectors(self):
        g = RngStream(3, 2).generator()
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = int(rng.integers(2, 9))
            d = int(rng.integers(1, p))
            spectrum = random_spectrum(rng, p, d)
            u = haar_orthogonal(p, g)
            p_hat = random_projector(p, d, g)
            assert excess_risk(spectrum, u, p_hat) >= -1e-10

    def test_matches_weighted_loss_identity(self):
        g = RngStream(3, 3).generator()
        rng = np.random.default_rng(10)

        def instances():
            for _ in range(100):
                p = int(rng.integers(2, 11))
                d = int(rng.integers(1, p))
                spectrum = random_spectrum(rng, p, d, min_gap=1e-3)
                u = haar_orthogonal(p, g)
                p_hat = random_projector(p, d, g)
                mu = rng.uniform(spectrum.lambdas[d], spectrum.lambdas[d - 1])
                yield spectrum, OrthMatrix(u.a[None]), Projector(p_hat.a[None]), np.array([mu])  # a group of one

        check = loss_identity_check("identity", instances())
        assert check["status"] == "PASS", check["detail"]

    def test_a_nan_risk_fails_the_identity(self):
        # lam_1 + lam_2 overflows, so the trace formula gives inf - inf = nan
        g = RngStream(1, 0).generator()
        spectrum = Spectrum([1.7e308, 1.6e308, 1e308], 2)
        u, p_hat = haar_orthogonal(3, g), random_projector(3, 2, g)
        with np.errstate(over="ignore", invalid="ignore"):
            check = loss_identity_check("identity", [(spectrum, u, p_hat, 1.2e308)])
        assert check["status"] == "FAIL" and check["detail"].endswith("= nan")


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


class TestStacks:
    """The Haar step, the projectors, the gap weights, ``weighted_loss`` and
    ``excess_risk`` run the same lines on one matrix as on a stack: each member
    of a stack gets the bits that it gets alone, and a stack with a bad member
    raises the message that the member raises alone."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        st.integers(2, 10).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p - 1))),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_each_member_has_its_bits_alone(self, p_d, count, seed):
        p, d = p_d
        rng = np.random.default_rng(seed)
        spectrum = random_spectrum(rng, p, d, min_gap=1e-3)
        lam = spectrum.lambdas
        mus = rng.uniform(lam[d], lam[d - 1], count)
        # member k: the basis's normals, then the projector's, from its own generator
        normals = np.stack(
            [np.random.default_rng([seed, k]).standard_normal((2, p, p)) for k in range(count)], axis=1
        )
        bases = haar_from_normals(normals)
        u, p_hat = bases[0], projector_leq_d(bases[1], d)
        weights = excess_risk_weights(spectrum, mus)
        risk = excess_risk(spectrum, u, p_hat)
        loss = weighted_loss(u, p_hat.a, d, weights)
        assert risk.shape == loss.shape == (count,)
        for k in range(count):
            u_k = haar_orthogonal(p, np.random.default_rng([seed, k]))
            p_k = projector_leq_d(haar_from_normals(normals[1, k]), d)
            w_k = excess_risk_weights(spectrum, mus[k])
            assert _bits(u_k.a) == _bits(u.a[k])
            assert _bits(p_k.a) == _bits(p_hat.a[k])
            assert _bits(w_k.w) == _bits(weights.w[k])
            assert _bits(excess_risk(spectrum, u_k, p_k)) == _bits(risk[k])
            assert _bits(weighted_loss(u_k, p_k.a, d, w_k)) == _bits(loss[k])

    def test_a_bad_member_raises_its_own_message(self):
        spectrum = Spectrum([3.0, 2.0, 1.0], 1)
        bases = haar_from_normals(np.random.default_rng(5).standard_normal((3, 3, 3)))
        good = projector_leq_d(bases, 1)
        cases = [  # (call, its stack, the call on the bad member alone)
            (lambda mu: excess_risk_weights(spectrum, mu), [2.5, 3.5, 2.2], 3.5),
            (OrthMatrix, [bases.a[0], np.diag([1.0, 1.0, 1.1]), bases.a[2]], None),
            (Projector, [good.a[0], good.a[1] * 0.5, good.a[2]], None),
            (Projector, [np.eye(10), np.diag(np.full(10, 1.0 + 5e-10))], None),
        ]
        for call, members, bad in cases:
            bad = members[1] if bad is None else bad
            with pytest.raises(InvalidInput) as alone:
                call(bad)
            with pytest.raises(InvalidInput, match=re.escape(str(alone.value))):
                call(np.stack(members))
        with pytest.raises(InvalidInput, match="projector rank 3 != d=1") as alone:
            excess_risk(spectrum, bases[1], Projector(np.eye(3)))
        with pytest.raises(InvalidInput, match=re.escape(str(alone.value))):
            excess_risk(spectrum, bases, Projector(np.stack([good.a[0], np.eye(3), good.a[2]])))

    def test_only_a_stack_has_entries(self):
        with pytest.raises(InvalidInput):
            OrthMatrix(np.eye(2))[0]
