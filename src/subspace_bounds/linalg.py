"""Dense real matrix kernel.

Symmetric eigendecomposition (cyclic Jacobi, for one matrix or a stack),
skew-symmetric matrix exponential (scaling and squaring), half-vectorization
and the trace inner product.  Everything here is deterministic: identical
inputs produce bit-identical outputs, which downstream Monte Carlo code
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NotConverged

# No compiled kernel: the eigensolver is plain numpy.  perfbench/run.py
# reads this flag for its machine record.
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
    if np.any(np.diff(values, axis=-1) > 0):
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


MAX_SWEEPS = 60  # Jacobi sweep cap; reaching it raises NotConverged
SKIP_TOL = 1e-300  # off-diagonal entries this small are not rotated away


def _sequential_sum(x: np.ndarray) -> np.ndarray:
    """Sum along the last axis, adding left to right: ((x_0 + x_1) + x_2) + ..."""
    if x.shape[-1] == 0:
        return np.zeros(x.shape[:-1])
    return np.cumsum(x, axis=-1)[..., -1]


def _rotate_batch(w: np.ndarray, n: int, p: int, q: int) -> None:
    """The Jacobi rotation that zeroes entry (p, q), on every matrix of the stack w.

    w holds each matrix in rows 0..n-1 and its rotation accumulator in rows
    n..2n-1.  With tau = (a_qq - a_pp) / (2 a_pq), t = sign(tau) / (|tau| +
    sqrt(1 + tau^2)) (sign +1 at tau = 0), c = 1 / sqrt(1 + t^2) and s = t c,
    column p becomes col_p c - col_q s and column q col_q c + col_p s, both
    from the old columns; then a_pp -= t a_pq, a_qq += t a_pq, a_pq = a_qp = 0,
    and rows p and q copy the new columns.  Matrices whose |a_pq| is at
    most SKIP_TOL keep their old values.
    """
    apq, app, aqq = w[:, p, q], w[:, p, p], w[:, q, q]
    skip = np.abs(apq) <= SKIP_TOL
    masked = bool(skip.any())
    if masked:
        if skip.all():
            return
        apq = np.where(skip, 1.0, apq)
    tau = (aqq - app) / (2.0 * apq)
    # 1/(tau + r) for tau >= 0 and -1/(-tau + r) below, in one expression.
    t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    c, s = c[:, None], s[:, None]
    col_p, col_q = w[:, :, p], w[:, :, q]
    new_p = col_p * c - col_q * s
    new_q = col_q * c + col_p * s
    shift = t * apq
    new_p[:, p] = app - shift
    new_p[:, q] = 0.0
    new_q[:, q] = aqq + shift
    new_q[:, p] = 0.0
    if masked:
        new_p = np.where(skip[:, None], col_p, new_p)
        new_q = np.where(skip[:, None], col_q, new_q)
    w[:, :, p] = new_p
    w[:, :, q] = new_q
    w[:, p, :] = new_p[:, :n]
    w[:, q, :] = new_q[:, :n]


def _jacobi_batch(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cyclic Jacobi sweeps on each matrix of a (B, n, n) stack, in place,
    accumulating the rotations into the stack v.

    A matrix of Frobenius norm 0 does no sweep.  Each sweep stops a matrix
    once sqrt(2 off) <= 1e-15 norm, and rotates the others at every (p, q),
    p < q, in row-major order; the squares in norm (all entries) and off
    (the upper triangle) are summed left to right in row-major order.
    Every numpy operation is elementwise across the unconverged matrices,
    so a matrix gets the same bits alone as in any stack.  Returns the
    sweep at which each matrix stopped, or MAX_SWEEPS if it never did.
    """
    count, n = a.shape[0], a.shape[1]
    sweeps = np.zeros(count, dtype=np.int64)
    fro = np.sqrt(_sequential_sum((a * a).reshape(count, n * n)))
    live = np.flatnonzero(fro != 0.0)
    work, tol = np.concatenate([a[live], v[live]], axis=1), 1e-15 * fro[live]
    upper = np.triu_indices(n, 1)  # row-major
    for sweep in range(MAX_SWEEPS):
        off_diag = work[:, upper[0], upper[1]]
        done = np.sqrt(2.0 * _sequential_sum(off_diag * off_diag)) <= tol
        if done.any():
            out = live[done]
            a[out], v[out], sweeps[out] = work[done, :n], work[done, n:], sweep
            rest = ~done
            live, work, tol = live[rest], work[rest], tol[rest]
        if not live.size:
            return sweeps
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate_batch(work, n, p, q)
    a[live], v[live], sweeps[live] = work[:, :n], work[:, n:], MAX_SWEEPS
    return sweeps


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
    """Eigendecomposition of every matrix of a (B, n, n) stack by cyclic Jacobi rotations.

    Each matrix is symmetrized as SymMatrix does and gets the same bits
    alone as in any stack.  Returns (values, vectors): values (B, n), sorted
    non-increasing (stable sort), and vectors (B, n, n), eigenvectors in
    columns, each with its first coordinate of magnitude above 1e-12
    positive.  Raises NotConverged if any matrix reaches the sweep cap.
    """
    a = np.asarray(stack, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise InvalidInput(f"expected a stack of square matrices, got shape {a.shape}")
    work = symmetrized(a)
    vecs = np.broadcast_to(np.eye(a.shape[1]), a.shape).copy()
    capped = np.flatnonzero(_jacobi_batch(work, vecs) >= MAX_SWEEPS)
    if capped.size:
        where = f"on matrix {capped[0]} of {a.shape[0]}"
        raise NotConverged(f"Jacobi eigensolver reached the {MAX_SWEEPS}-sweep cap {where}")
    vals, vecs = _sort_and_sign(np.diagonal(work, axis1=1, axis2=2), vecs)
    _require_sorted(vals)
    require_orthogonal(vecs)
    return vals, vecs


def sym_eig(a) -> EigDecomp:
    """Eigendecomposition of a symmetric matrix: sym_eig_batch on a stack of one."""
    if not isinstance(a, SymMatrix):
        a = SymMatrix(a)
    vals, vecs = sym_eig_batch(a.a[None])
    return EigDecomp(vals[0], OrthMatrix(vecs[0]))


SQUARING_THRESHOLD = 0.5
EXP_TOL = 1e-14


def skew_exp(xi, t: float = 1.0) -> OrthMatrix:
    """exp(t*xi) for skew-symmetric xi, by scaling-and-squaring Taylor.

    Scaling halves the argument until its 1-norm is at most 0.5; the Taylor
    series is summed until the next term falls below 1e-14 relative to the
    partial sum.  The result is orthogonal with determinant +1.
    """
    if not isinstance(xi, SkewMatrix):
        xi = SkewMatrix(xi)
    a = t * xi.a
    n = a.shape[0]
    norm1 = float(np.max(np.abs(a).sum(axis=0))) if n else 0.0
    squarings = 0
    while norm1 > SQUARING_THRESHOLD:
        a = a / 2.0
        norm1 /= 2.0
        squarings += 1
    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, 60):
        term = term @ a / k
        result = result + term
        if np.max(np.abs(term)) <= EXP_TOL * max(1.0, np.max(np.abs(result))):
            break
    for _ in range(squarings):
        result = result @ result
    return OrthMatrix(result)


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
