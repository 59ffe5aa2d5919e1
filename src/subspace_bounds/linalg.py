"""Dense real matrix kernel.

Two kernels, each on a stack: ``sym_eig``, the symmetric eigendecomposition
of every matrix of a (B, n, n) stack (LAPACK's ``eigh``, under a fixed
order and sign convention), and ``skew_exp``, exp(t xi) for each generator
xi of a stack and each t of a grid (one Hermitian ``eigh`` per generator);
one matrix is a stack of one.  Beside them: the checked matrix types and
half-vectorization.  Everything here is deterministic: with one numpy and
LAPACK build, identical inputs produce bit-identical outputs, and a matrix
gets the same eigendecomposition and exponential alone as in any stack,
which downstream Monte Carlo code and the Fisher-limit checks rely on.
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
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
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


def antisymmetrized(a: np.ndarray) -> np.ndarray:
    """(A - A^T)/2 of each matrix in a (..., n, n) array; entries must be finite,
    so every diagonal entry is x - x = +0 exactly."""
    if not np.isfinite(a).all():
        raise InvalidInput("matrix entries must be finite")
    return (a - a.swapaxes(-1, -2)) / 2.0


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Symmetric matrix, or a (..., n, n) stack of them; the constructor
    symmetrizes via (A + A^T)/2."""

    a: np.ndarray

    def __init__(self, entries):
        object.__setattr__(self, "a", _frozen(symmetrized(_as_array(entries))))


@dataclass(frozen=True, eq=False)
class SkewMatrix:
    """Skew-symmetric matrix, or a (..., n, n) stack of them; the constructor
    antisymmetrizes via (A - A^T)/2, which leaves an exact zero diagonal."""

    a: np.ndarray

    def __init__(self, entries):
        object.__setattr__(self, "a", _frozen(antisymmetrized(_as_array(entries))))

    @property
    def dim(self) -> int:
        return self.a.shape[-1]


ORTH_TOL = 1e-10


def require_orthogonal(a: np.ndarray) -> None:
    """Raise unless every matrix in a (..., n, n) array has max |U^T U - I| <= 1e-10."""
    defect = np.abs(a.swapaxes(-1, -2) @ a - np.eye(a.shape[-1])).max(initial=0.0)
    if not defect <= ORTH_TOL:
        raise InvalidInput(f"matrix is not orthogonal (defect {defect:.3e})")


@dataclass(frozen=True, eq=False)
class OrthMatrix:
    """Orthogonal matrix, or a (..., n, n) stack of them, checked at
    construction: max |U^T U - I| <= 1e-10 for every matrix."""

    a: np.ndarray

    def __init__(self, entries):
        a = _as_array(entries)
        require_orthogonal(a)
        object.__setattr__(self, "a", _frozen(a))

    @property
    def dim(self) -> int:
        return self.a.shape[-1]

    def __getitem__(self, k: int) -> "OrthMatrix":
        """Entry k of a stack's first axis, a view checked as part of the stack."""
        if self.a.ndim < 3:
            raise InvalidInput("only a stack of orthogonal matrices has entries")
        entry = object.__new__(OrthMatrix)
        object.__setattr__(entry, "a", self.a[int(k)])
        return entry


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


def _eigh(stack, hermitian) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(hermitian(a))`` of a (B, n, n) stack ``a``: InvalidInput
    unless the stack's matrices are square, NotConverged if LAPACK fails."""
    a = np.asarray(stack, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise InvalidInput(f"expected a stack of square matrices, got shape {a.shape}")
    try:
        return np.linalg.eigh(hermitian(a))
    except np.linalg.LinAlgError as exc:
        raise NotConverged(f"LAPACK eigensolver failed: {exc}") from exc


def sym_eig(stack) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of every matrix of a (B, n, n) stack by LAPACK (``np.linalg.eigh``).

    Each matrix is symmetrized as SymMatrix does and gets the same bits
    alone as in any stack.  Returns (values, vectors): values (B, n), sorted
    non-increasing (stable sort), and vectors (B, n, n), eigenvectors in
    columns, each with its first coordinate of magnitude above 1e-12
    positive.  Raises NotConverged if LAPACK reports no convergence.
    """
    vals, vecs = _sort_and_sign(*_eigh(stack, symmetrized))
    require_orthogonal(vecs)
    return vals, vecs


def skew_exp(xis, ts) -> np.ndarray:
    """exp(t xi) for each xi of a (B, n, n) stack, antisymmetrized as SkewMatrix
    does, and each t of ts: a (B, T, n, n) array of orthogonal matrices.

    1j * xi = V diag(w) V^H is Hermitian (one ``np.linalg.eigh`` per xi), and
    exp(t xi) = Re(V diag(exp(-1j t w)) V^H) in any eigenbasis.  A rotation
    gets the same bits alone as in any stack.  NotConverged if LAPACK fails.
    """
    w, v = _eigh(xis, lambda a: 1j * antisymmetrized(a))
    phases = np.exp(-1j * np.asarray(ts, dtype=np.float64)[:, None] * w[:, None, :])
    v = v[:, None]
    result = ((v * phases[:, :, None, :]) @ v.conj().swapaxes(-1, -2)).real
    require_orthogonal(result)
    return result
