import pathlib

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_bounds import (
    InvalidInput,
    NotConverged,
    OrthMatrix,
    SkewMatrix,
    SymMatrix,
    hs_inner,
    skew_exp,
    sym_eig,
    sym_eig_batch,
    unvech,
    vech,
)
from subspace_bounds.linalg import vech_diag_mask

from conftest import random_sym


class TestTypes:
    def test_sym_constructor_symmetrizes(self):
        m = SymMatrix([[1.0, 2.0], [0.0, 3.0]])
        assert np.array_equal(m.a, m.a.T)
        assert m.a[0, 1] == 1.0

    def test_sym_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            SymMatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_skew_exact_antisymmetry_and_zero_diagonal(self):
        m = SkewMatrix([[5.0, 2.0], [1.0, -3.0]])
        assert np.array_equal(m.a, -m.a.T)
        assert np.all(np.diag(m.a) == 0.0)

    def test_orth_rejects_non_orthogonal(self):
        with pytest.raises(InvalidInput):
            OrthMatrix([[1.0, 0.1], [0.0, 1.0]])

    def test_arrays_are_frozen(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.a[0, 0] = 5.0


class TestSymEig:
    def test_already_diagonal(self):
        e = sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(e.values, [3.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(e.vectors.a, np.eye(2), atol=1e-14)

    def test_two_by_two_exchange(self):
        e = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(e.values, [1.0, -1.0], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(e.vectors.a[:, 0], [s, s], atol=1e-14)
        np.testing.assert_allclose(e.vectors.a[:, 1], [s, -s], atol=1e-14)

    def test_reconstruction_seed_42(self):
        rng = np.random.default_rng(42)
        a = random_sym(rng, 5)
        e = sym_eig(a)
        assert np.max(np.abs(e.reconstruct() - a)) <= 1e-9 * np.max(np.abs(a))

    def test_property_orthonormal_and_reconstructs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = int(rng.integers(1, 9))
            a = random_sym(rng, p) * rng.uniform(0.1, 10.0)
            e = sym_eig(a)
            defect = np.max(np.abs(e.vectors.a.T @ e.vectors.a - np.eye(p)))
            assert defect <= 1e-10
            scale = max(np.max(np.abs(a)), 1e-300)
            assert np.max(np.abs(e.reconstruct() - a)) <= 1e-9 * scale
            assert np.all(np.diff(e.values) <= 0)

    def test_sign_convention_first_significant_coordinate_positive(self):
        rng = np.random.default_rng(3)
        e = sym_eig(random_sym(rng, 6))
        for k in range(6):
            col = e.vectors.a[:, k]
            lead = np.flatnonzero(np.abs(col) > 1e-12)[0]
            assert col[lead] > 0

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(11)
        a = random_sym(rng, 7)
        e1, e2 = sym_eig(a), sym_eig(a.copy())
        assert e1.values.tobytes() == e2.values.tobytes()
        assert e1.vectors.a.tobytes() == e2.vectors.a.tobytes()

    def test_sweep_cap_raises_not_converged(self, monkeypatch):
        import subspace_bounds.linalg as linalg

        a = random_sym(np.random.default_rng(13), 5)  # needs several sweeps
        sym_eig(a)
        monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
        with pytest.raises(NotConverged, match="1-sweep cap"):
            sym_eig(a)
        with pytest.raises(NotConverged, match="matrix 1 of 2"):
            sym_eig_batch(np.stack([np.eye(5), a]))
        # An already diagonal matrix converges at sweep 0, under any cap.
        assert sym_eig(np.diag([2.0, 1.0])).values.tolist() == [2.0, 1.0]

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            sym_eig(np.array([[np.inf, 0.0], [0.0, 1.0]]))


# The bits of every matrix of the mixed stacks below, as the one-matrix
# scalar Jacobi kernel gave them before the stacked kernel replaced it.
JACOBI_BITS = pathlib.Path(__file__).parent / "data" / "jacobi_bits.npz"


def _assert_same_bits(got, want):
    assert got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")
class TestSymEigBatch:
    """Each matrix gets saved bits, and the same bits alone as in any stack."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 10])
    def test_mixed_stack_matches_scalar_kernel_bitwise(self, n):
        # Each stack holds 12 random matrices, a zero matrix (no sweep), a
        # diagonal one (converged at sweep 0), for n > 1 one with a 1e-301
        # entry (below SKIP_TOL) and one with a zero pair, and matrices
        # scaled by 1e150, 1e-150 and 10^(+-150) per row and column.
        saved = np.load(JACOBI_BITS)
        stack, values, vectors = (saved[f"{key}_{n}"] for key in ("stack", "values", "vectors"))
        got_values, got_vectors = sym_eig_batch(stack)
        _assert_same_bits(got_values, values)
        _assert_same_bits(got_vectors, vectors)
        for k, member in enumerate(stack):
            e = sym_eig(member)
            _assert_same_bits(e.values, values[k])
            _assert_same_bits(e.vectors.a, vectors[k])

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 8),
        count=st.integers(1, 6),
        position=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
        zero_frac=st.floats(0.0, 1.0),
        tiny_frac=st.floats(0.0, 0.3),
    )
    def test_property_alone_equals_any_stack_position(
        self, n, count, position, seed, zero_frac, tiny_frac
    ):
        # Not symmetric: both paths symmetrize as SymMatrix does.  Members
        # get their own scale, so they converge at different sweeps.
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.integers(-150, 151, (count, 1, 1))
        stack = rng.standard_normal((count, n, n)) * scales
        stack[rng.uniform(size=stack.shape) < zero_frac] = 0.0
        stack[rng.uniform(size=stack.shape) < tiny_frac] = 1e-301
        member = stack[position % count]
        values, vectors = sym_eig_batch(stack)
        alone = sym_eig(member)
        _assert_same_bits(values[position % count], alone.values)
        _assert_same_bits(vectors[position % count], alone.vectors.a)
        alone_values, alone_vectors = sym_eig_batch(member[None])
        _assert_same_bits(alone_values[0], alone.values)
        _assert_same_bits(alone_vectors[0], alone.vectors.a)

    def test_rejects_nonfinite_and_bad_shapes(self):
        with pytest.raises(InvalidInput):
            sym_eig_batch(np.array([[[np.nan, 0.0], [0.0, 1.0]]]))
        with pytest.raises(InvalidInput):
            sym_eig_batch(np.eye(3))
        with pytest.raises(InvalidInput):
            sym_eig_batch(np.zeros((2, 3, 4)))


class TestSkewExp:
    def test_zero_time_is_identity(self, rng):
        xi = SkewMatrix(rng.standard_normal((4, 4)))
        np.testing.assert_allclose(skew_exp(xi, 0.0).a, np.eye(4), atol=1e-15)

    def test_planar_generator_rotation(self):
        # L = e0 e1^T - e1 e0^T acts as d/dt at t=0 with L e0 = -e1,
        # so exp(t L) = [[cos t, sin t], [-sin t, cos t]].
        l01 = SkewMatrix([[0.0, 1.0], [-1.0, 0.0]])
        for theta in (0.3, 1.2, -2.5):
            expected = np.array(
                [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
            )
            np.testing.assert_allclose(skew_exp(l01, theta).a, expected, atol=1e-14)

    def test_group_inverse(self, rng):
        xi = SkewMatrix(rng.standard_normal((5, 5)))
        prod = skew_exp(xi, 0.7).a @ skew_exp(xi, -0.7).a
        assert np.max(np.abs(prod - np.eye(5))) <= 1e-12

    def test_orthogonality_up_to_norm_ten(self, rng):
        xi = SkewMatrix(rng.standard_normal((6, 6)))
        xi_unit = SkewMatrix(xi.a / np.linalg.norm(xi.a))
        for t in (0.1, 1.0, 5.0, 10.0):
            q = skew_exp(xi_unit, t).a
            assert np.max(np.abs(q.T @ q - np.eye(6))) <= 1e-12

    def test_determinant_plus_one(self, rng):
        xi = SkewMatrix(rng.standard_normal((5, 5)))
        assert np.linalg.det(skew_exp(xi, 2.0).a) == pytest.approx(1.0, abs=1e-10)


class TestVech:
    def test_column_major_lower_triangle_order(self):
        np.testing.assert_array_equal(vech([[1.0, 2.0], [2.0, 3.0]]), [1.0, 2.0, 3.0])

    def test_identity_three(self):
        np.testing.assert_array_equal(vech(np.eye(3)), [1, 0, 0, 1, 0, 1])

    def test_roundtrip(self, rng):
        a = random_sym(rng, 5)
        np.testing.assert_array_equal(unvech(vech(a)).a, a)

    def test_bad_length_rejected(self):
        with pytest.raises(InvalidInput):
            unvech(np.arange(4.0))

    def test_diag_mask(self):
        mask = vech_diag_mask(3)
        np.testing.assert_array_equal(mask, [True, False, False, True, False, True])


class TestHsInner:
    def test_identity(self):
        assert hs_inner(np.eye(3), np.eye(3)) == pytest.approx(3.0)

    def test_rank_one(self):
        e01 = np.zeros((2, 2))
        e01[0, 1] = 1.0
        assert hs_inner(e01, e01) == pytest.approx(1.0)

    def test_matches_elementwise_sum(self, rng):
        a, b = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        assert abs(hs_inner(a, b) - float(np.sum(a * b))) <= 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(InvalidInput):
            hs_inner(np.eye(2), np.eye(3))

    def test_vech_consistency_doubles_off_diagonals(self, rng):
        a, b = random_sym(rng, 4), random_sym(rng, 4)
        weights = np.where(vech_diag_mask(4), 1.0, 2.0)
        via_vech = float(np.sum(weights * vech(a) * vech(b)))
        assert abs(hs_inner(a, b) - via_vech) <= 1e-12
