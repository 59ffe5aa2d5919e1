"""Dense real matrix kernel.

Symmetric eigendecomposition (LAPACK's ``eigh``, for one matrix or a
stack, under a fixed order and sign convention), skew-symmetric matrix
exponential (one Hermitian ``eigh`` per generator, for a stack of
generators and a grid of times), half-vectorization and the trace inner
product.  Everything here is deterministic: with one numpy and LAPACK
build, identical inputs produce bit-identical outputs, and a matrix gets
the same eigendecomposition and exponential alone as in any stack, which
downstream Monte Carlo code and the Fisher-limit checks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NotConverged

# No compiled kernel of the package's own: the eigensolver is numpy's LAPACK.
# perfbench/run.py reads this flag for its machine record.
_HAVE_NUMBA = False


def _as_array(m) -> np.ndarray:
    a = np.asarray(getattr(m, "a", m), dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def symmetrized(a: np.ndarray) -> np.ndarray:
    """(A + A^T)/2 of each matrix in a (..., n, n) array; entries must be finite."""
    if not np.isfinite(a).all():
        raise InvalidInput("matrix entries must be finite")
    return (a + a.swapaxes(-1, -2)) / 2.0


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Symmetric matrix; the constructor symmetrizes via (A + A^T)/2."""

    a: np.ndarray

    def __init__(self, entries):
        object.__setattr__(self, "a", _frozen(symmetrized(_as_array(entries))))

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True, eq=False)
class SkewMatrix:
    """Skew-symmetric matrix; antisymmetrized exactly, zero diagonal."""

    a: np.ndarray

    def __init__(self, entries):
        a = _as_array(entries)
        if not np.all(np.isfinite(a)):
            raise InvalidInput("matrix entries must be finite")
        s = (a - a.T) / 2.0
        np.fill_diagonal(s, 0.0)
        object.__setattr__(self, "a", _frozen(s))

    @property
    def dim(self) -> int:
        return self.a.shape[0]


ORTH_TOL = 1e-10


def require_orthogonal(a: np.ndarray) -> None:
    """Raise unless every matrix in a (..., n, n) array has max |U^T U - I| <= 1e-10."""
    defect = np.abs(a.swapaxes(-1, -2) @ a - np.eye(a.shape[-1])).max()
    if not defect <= ORTH_TOL:
        raise InvalidInput(f"matrix is not orthogonal (defect {defect:.3e})")


@dataclass(frozen=True, eq=False)
class OrthMatrix:
    """Orthogonal matrix, checked at construction: max |U^T U - I| <= 1e-10."""

    a: np.ndarray

    def __init__(self, entries):
        a = _as_array(entries)
        require_orthogonal(a)
        object.__setattr__(self, "a", _frozen(a))

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def _require_sorted(values: np.ndarray) -> None:
    if np.any(values[..., 1:] > values[..., :-1]):
        raise InvalidInput("eigenvalues must be sorted non-increasing")


@dataclass(frozen=True, eq=False)
class EigDecomp:
    """Eigenvalues in non-increasing order with orthonormal eigenvectors."""

    values: np.ndarray
    vectors: OrthMatrix

    def __init__(self, values, vectors):
        values = _frozen(np.asarray(values, dtype=np.float64))
        _require_sorted(values)
        if not isinstance(vectors, OrthMatrix):
            vectors = OrthMatrix(vectors)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", vectors)

    def reconstruct(self) -> np.ndarray:
        v = self.vectors.a
        return (v * self.values) @ v.T


def _sort_and_sign(vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order (B, n) eigenvalues non-increasing (stable) with their (B, n, n)
    vector columns, and make each vector's first coordinate with magnitude
    above 1e-12 positive."""
    count, n = vals.shape
    batch, index = np.arange(count)[:, None], np.arange(n)
    order = np.argsort(-vals, axis=-1, kind="stable")
    vals = vals[batch, order]
    vecs = vecs[batch[:, :, None], index[:, None], order[:, None, :]]
    lead = np.argmax(np.abs(vecs) > 1e-12, axis=1)  # 0 when no entry qualifies
    lead_entry = vecs[batch, lead, index]
    return vals, np.where(lead_entry[:, None, :] < 0, -vecs, vecs)


def sym_eig_batch(stack) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of every matrix of a (B, n, n) stack by LAPACK (``np.linalg.eigh``).

    Each matrix is symmetrized as SymMatrix does and gets the same bits
    alone as in any stack.  Returns (values, vectors): values (B, n), sorted
    non-increasing (stable sort), and vectors (B, n, n), eigenvectors in
    columns, each with its first coordinate of magnitude above 1e-12
    positive.  Raises NotConverged if LAPACK reports no convergence.
    """
    a = np.asarray(stack, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise InvalidInput(f"expected a stack of square matrices, got shape {a.shape}")
    sym = symmetrized(a)
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NotConverged(f"LAPACK eigensolver failed: {exc}") from exc
    vals, vecs = _sort_and_sign(vals, vecs)
    _require_sorted(vals)
    require_orthogonal(vecs)
    return vals, vecs


def sym_eig(a) -> EigDecomp:
    """Eigendecomposition of a symmetric matrix: sym_eig_batch on a stack of one."""
    if not isinstance(a, SymMatrix):
        a = SymMatrix(a)
    vals, vecs = sym_eig_batch(a.a[None])
    return EigDecomp(vals[0], OrthMatrix(vecs[0]))


def skew_exp_batch(xis, ts) -> np.ndarray:
    """exp(t xi) for each xi of a (B, n, n) stack, antisymmetrized as SkewMatrix
    does, and each t of ts: a (B, T, n, n) array of orthogonal matrices.

    1j * xi = V diag(w) V^H is Hermitian (one ``np.linalg.eigh`` per xi), and
    exp(t xi) = Re(V diag(exp(-1j t w)) V^H) in any eigenbasis.  A rotation
    gets the same bits alone as in any stack.  NotConverged if LAPACK fails.
    """
    a = np.asarray(xis, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise InvalidInput(f"expected a stack of square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInput("matrix entries must be finite")
    try:
        w, v = np.linalg.eigh(1j * ((a - a.swapaxes(-1, -2)) / 2.0))
    except np.linalg.LinAlgError as exc:
        raise NotConverged(f"LAPACK eigensolver failed: {exc}") from exc
    phases = np.exp(-1j * np.asarray(ts, dtype=np.float64)[:, None] * w[:, None, :])
    v = v[:, None]
    result = ((v * phases[:, :, None, :]) @ v.conj().swapaxes(-1, -2)).real
    require_orthogonal(result)
    return result


def skew_exp(xi, t: float = 1.0) -> OrthMatrix:
    """exp(t*xi) for skew-symmetric xi: skew_exp_batch on a stack of one."""
    if not isinstance(xi, SkewMatrix):
        xi = SkewMatrix(xi)
    return OrthMatrix(skew_exp_batch(xi.a[None], (t,))[0, 0])


def vech(a) -> np.ndarray:
    """Half-vectorization: stacks the lower triangle column by column.

    Ordering: (a11, a21, ..., ap1, a22, a32, ..., ap2, ..., app).
    """
    m = _as_array(a)
    p = m.shape[0]
    return np.concatenate([m[j:, j] for j in range(p)])


def unvech(v) -> SymMatrix:
    v = np.asarray(v, dtype=np.float64)
    # p(p+1)/2 = len(v)
    p = int(round((np.sqrt(8 * v.size + 1) - 1) / 2))
    if p * (p + 1) // 2 != v.size:
        raise InvalidInput(f"length {v.size} is not a triangular number")
    out = np.zeros((p, p))
    pos = 0
    for j in range(p):
        out[j:, j] = v[pos : pos + p - j]
        out[j, j:] = v[pos : pos + p - j]
        pos += p - j
    return SymMatrix(out)


def vech_diag_mask(p: int) -> np.ndarray:
    """Boolean mask over vech positions that come from the matrix diagonal."""
    mask = np.zeros(p * (p + 1) // 2, dtype=bool)
    pos = 0
    for j in range(p):
        mask[pos] = True
        pos += p - j
    return mask


def hs_inner(a, b) -> float:
    """Trace inner product <a, b> = tr(a^T b)."""
    ma = _as_array(a)
    mb = _as_array(b)
    if ma.shape != mb.shape:
        raise InvalidInput(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return float(np.trace(ma.T @ mb))
