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
    skew_exp,
    sym_eig,
)

from conftest import random_skew_unit, random_sym, rotation


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
        assert np.all(np.diag(m.a) == 0.0) and not np.signbit(np.diag(m.a)).any()

    def test_orth_rejects_non_orthogonal(self):
        with pytest.raises(InvalidInput):
            OrthMatrix([[1.0, 0.1], [0.0, 1.0]])

    def test_arrays_are_frozen(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.a[0, 0] = 5.0


class TestSymEig:
    """sym_eig on a stack of one matrix."""

    def test_already_diagonal(self):
        (values,), (vectors,) = sym_eig(np.diag([3.0, 1.0])[None])
        np.testing.assert_allclose(values, [3.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(vectors, np.eye(2), atol=1e-14)

    def test_two_by_two_exchange(self):
        (values,), (vectors,) = sym_eig(np.array([[[0.0, 1.0], [1.0, 0.0]]]))
        np.testing.assert_allclose(values, [1.0, -1.0], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(vectors[:, 0], [s, s], atol=1e-14)
        np.testing.assert_allclose(vectors[:, 1], [s, -s], atol=1e-14)

    def test_reconstruction_seed_42(self):
        rng = np.random.default_rng(42)
        a = random_sym(rng, 5)
        (values,), (vectors,) = sym_eig(a[None])
        assert np.max(np.abs((vectors * values) @ vectors.T - a)) <= 1e-9 * np.max(np.abs(a))

    def test_property_orthonormal_and_reconstructs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = int(rng.integers(1, 9))
            a = random_sym(rng, p) * rng.uniform(0.1, 10.0)
            (values,), (vectors,) = sym_eig(a[None])
            defect = np.max(np.abs(vectors.T @ vectors - np.eye(p)))
            assert defect <= 1e-10
            scale = max(np.max(np.abs(a)), 1e-300)
            assert np.max(np.abs((vectors * values) @ vectors.T - a)) <= 1e-9 * scale
            assert np.all(np.diff(values) <= 0)

    def test_sign_convention_first_significant_coordinate_positive(self):
        rng = np.random.default_rng(3)
        _, (vectors,) = sym_eig(random_sym(rng, 6)[None])
        for k in range(6):
            col = vectors[:, k]
            lead = np.flatnonzero(np.abs(col) > 1e-12)[0]
            assert col[lead] > 0

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(11)
        a = random_sym(rng, 7)
        (values1, vectors1), (values2, vectors2) = sym_eig(a[None]), sym_eig(a.copy()[None])
        assert values1.tobytes() == values2.tobytes()
        assert vectors1.tobytes() == vectors2.tobytes()

    def test_lapack_failure_raises_not_converged(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NotConverged, match="did not converge"):
            sym_eig(np.eye(3)[None])
        with pytest.raises(NotConverged):
            sym_eig(np.stack([np.eye(2), np.eye(2)]))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            sym_eig(np.array([[[np.inf, 0.0], [0.0, 1.0]]]))


def _assert_same_bits(got, want):
    assert got.tobytes() == want.tobytes()


def _edge_stack(n: int, seed: int) -> np.ndarray:
    """A (B, n, n) stack of unsymmetrized matrices: 12 random ones, a zero
    matrix, a diagonal one, for n > 1 one with a 1e-301 entry and one with a
    zero off-diagonal pair, and random ones scaled by 1e150, by 1e-150 and
    by 10^(+-150) per row and column."""
    rng = np.random.default_rng(seed)
    members = list(rng.standard_normal((12, n, n)))
    members += [np.zeros((n, n)), np.diag(rng.standard_normal(n))]
    if n > 1:
        tiny = rng.standard_normal((n, n))
        tiny[0, 1] = tiny[1, 0] = 1e-301
        pair = rng.standard_normal((n, n))
        pair[0, n - 1] = pair[n - 1, 0] = 0.0
        members += [tiny, pair]
    graded = 10.0 ** rng.choice([-150.0, 150.0], n)
    members += [
        rng.standard_normal((n, n)) * 1e150,
        rng.standard_normal((n, n)) * 1e-150,
        graded[:, None] * rng.standard_normal((n, n)) * graded[None, :],
    ]
    return np.stack(members)


def _norm(a: np.ndarray) -> float:
    """Frobenius norm of a, scaled first so that entries near 1e300 do not overflow."""
    top = np.max(np.abs(a), initial=0.0)
    return float(top * np.sqrt(np.sum((a / top) ** 2))) if top else 0.0


class TestSymEigBatch:
    """sym_eig on stacks: edge stacks decompose accurately, and a matrix gets
    the same bits alone as in any stack."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 10])
    def test_edge_stack_accurate_ordered_signed_and_stack_invariant(self, n):
        stack = _edge_stack(n, seed=500 + n)
        values, vectors = sym_eig(stack)
        for k, member in enumerate(stack):
            a = (member + member.T) / 2.0
            v, lam = vectors[k], values[k]
            assert np.max(np.abs((v * lam) @ v.T - a), initial=0.0) <= 1e-14 * _norm(a)
            assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-14
            assert np.all(np.diff(lam) <= 0)
            for col in v.T:
                assert col[np.flatnonzero(np.abs(col) > 1e-12)[0]] > 0
            (alone_values,), (alone_vectors,) = sym_eig(member[None])
            _assert_same_bits(alone_values, lam)
            _assert_same_bits(alone_vectors, v)

    @settings(max_examples=40)
    @given(
        n=st.integers(1, 40),
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
        # get their own scale, from 1e-150 to 1e150.
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.integers(-150, 151, (count, 1, 1))
        stack = rng.standard_normal((count, n, n)) * scales
        stack[rng.uniform(size=stack.shape) < zero_frac] = 0.0
        stack[rng.uniform(size=stack.shape) < tiny_frac] = 1e-301
        member = stack[position % count]
        values, vectors = sym_eig(stack)
        (alone_values,), (alone_vectors,) = sym_eig(member[None])
        _assert_same_bits(values[position % count], alone_values)
        _assert_same_bits(vectors[position % count], alone_vectors)

    def test_rejects_nonfinite_and_bad_shapes(self):
        with pytest.raises(InvalidInput):
            sym_eig(np.array([[[np.nan, 0.0], [0.0, 1.0]]]))
        with pytest.raises(InvalidInput):
            sym_eig(np.eye(3))
        with pytest.raises(InvalidInput):
            sym_eig(np.zeros((2, 3, 4)))


class TestSkewExp:
    """skew_exp on one generator and one time, through conftest's ``rotation``."""

    def test_zero_time_is_identity(self, rng):
        xi = SkewMatrix(rng.standard_normal((4, 4)))
        np.testing.assert_allclose(rotation(xi, 0.0).a, np.eye(4), atol=1e-15)

    def test_planar_generator_rotation(self):
        # L = e0 e1^T - e1 e0^T acts as d/dt at t=0 with L e0 = -e1,
        # so exp(t L) = [[cos t, sin t], [-sin t, cos t]].
        l01 = SkewMatrix([[0.0, 1.0], [-1.0, 0.0]])
        for theta in (0.3, 1.2, -2.5):
            expected = np.array(
                [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
            )
            np.testing.assert_allclose(rotation(l01, theta).a, expected, atol=1e-14)

    def test_group_inverse(self, rng):
        xi = SkewMatrix(rng.standard_normal((5, 5)))
        prod = rotation(xi, 0.7).a @ rotation(xi, -0.7).a
        assert np.max(np.abs(prod - np.eye(5))) <= 1e-12

    def test_orthogonality_up_to_norm_ten(self, rng):
        xi = SkewMatrix(rng.standard_normal((6, 6)))
        xi_unit = SkewMatrix(xi.a / np.linalg.norm(xi.a))
        for t in (0.1, 1.0, 5.0, 10.0):
            q = rotation(xi_unit, t).a
            assert np.max(np.abs(q.T @ q - np.eye(6))) <= 1e-12

    def test_determinant_plus_one(self, rng):
        xi = SkewMatrix(rng.standard_normal((5, 5)))
        assert np.linalg.det(rotation(xi, 2.0).a) == pytest.approx(1.0, abs=1e-10)


class TestSkewExpBatch:
    """skew_exp on stacks, exp(t xi) from one Hermitian eigensolve per xi:
    accurate, and the same bits alone as at any position of any stack."""

    @pytest.mark.parametrize("p", [2, 5, 10, 20, 40])
    def test_matches_scipy_expm(self, p):
        from scipy.linalg import expm

        rng = np.random.default_rng(600 + p)
        xis = np.stack([random_skew_unit(rng, p) for _ in range(4)])
        ts = (1e-4, 1e-2, 0.5, 1.0, 3.0, 7.0)
        rotations = skew_exp(xis, ts)
        assert rotations.shape == (4, len(ts), p, p)
        for xi, row in zip(xis, rotations):
            for t, q in zip(ts, row):
                assert np.max(np.abs(q - expm(t * xi))) <= 1e-13

    @settings(max_examples=40)
    @given(
        n=st.integers(1, 40),
        count=st.integers(1, 6),
        position=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
        times=st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=4),
    )
    def test_property_alone_equals_any_stack_position(self, n, count, position, seed, times):
        rng = np.random.default_rng(seed)
        stack = rng.standard_normal((count, n, n))  # antisymmetrized as SkewMatrix does
        rotations = skew_exp(stack, times)
        k = position % count
        alone = skew_exp(stack[k][None], times)[0]
        _assert_same_bits(rotations[k], alone)
        for t, q in zip(times, alone):
            _assert_same_bits(skew_exp(stack[k][None], [t])[0, 0], q)

    def test_lapack_failure_raises_not_converged(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NotConverged, match="did not converge"):
            skew_exp(np.zeros((1, 3, 3)), [1.0])

    def test_rejects_nonfinite_and_bad_shapes(self):
        with pytest.raises(InvalidInput):
            skew_exp(np.array([[[0.0, np.inf], [0.0, 0.0]]]), [1.0])
        with pytest.raises(InvalidInput):
            skew_exp(np.zeros((3, 3)), [1.0])
        with pytest.raises(InvalidInput):
            skew_exp(np.zeros((2, 3, 4)), [1.0])
        with pytest.raises(InvalidInput, match="not orthogonal"):
            skew_exp(np.array([[[0.0, 1.0], [-1.0, 0.0]]]), [np.nan])


def test_empty_stacks_give_empty_results():
    vals, vecs = sym_eig(np.zeros((0, 3, 3)))
    assert vals.shape == (0, 3) and vecs.shape == (0, 3, 3)
    assert skew_exp(np.zeros((0, 3, 3)), [1.0]).shape == (0, 1, 3, 3)
    assert skew_exp(np.zeros((1, 3, 3)), []).shape == (1, 0, 3, 3)
