"""Tangent directions, closed-form derivatives and weighted losses.

The parameter of interest is the rank-d spectral projector P(U) = sum of
u_i u_i^T over the leading d columns of an orthogonal U.  Tangent motion is
expressed in the elementary skew-symmetric generators

    L(i, j) = e_i e_j^T - e_j e_i^T,

which mix eigenvector positions i and j.  This module provides those
generators, the directional derivatives at the identity of both the
projector map and the rank-one basis fields v_ij(U) = u_i u_j^T, the family
of weighted squared losses, and the spectral-gap weights under which the
PCA excess risk becomes such a loss.

Index convention: eigenvector positions are 0-based; the leading block is
positions 0..d-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import OrthMatrix, SkewMatrix, SymMatrix, symmetrized
from .models import Spectrum, haar_orthogonal

PROJECTOR_TOL = 1e-9


def generator(p: int, i: int, j: int) -> SkewMatrix:
    """Elementary generator L(i, j) = e_i e_j^T - e_j e_i^T (0-based)."""
    if i == j:
        raise InvalidInput("generator needs two distinct indices")
    if not (0 <= i < p and 0 <= j < p):
        raise InvalidInput(f"indices ({i}, {j}) out of range for p={p}")
    m = np.zeros((p, p))
    m[i, j] = 1.0
    m[j, i] = -1.0
    return SkewMatrix(m)


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Nonnegative loss weights w_kl; zero entries are allowed."""

    w: np.ndarray

    def __init__(self, w):
        w = np.array(w, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidInput("weights must be a square matrix")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise InvalidInput("weights must be finite and nonnegative")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    @property
    def all_positive(self) -> bool:
        return bool(np.min(self.w) > 0)

    @classmethod
    def ones(cls, p: int) -> "WeightMatrix":
        return cls(np.ones((p, p)))


def _trace(m: np.ndarray) -> np.ndarray:
    return m.trace(axis1=-2, axis2=-1)


def _require_projector(m: np.ndarray) -> None:
    """Raise unless each matrix in a (..., p, p) array is idempotent to 1e-9
    with an integer trace."""
    if np.abs(m @ m - m).max() > PROJECTOR_TOL:
        raise InvalidInput("matrix is not idempotent")
    tr = _trace(m)
    off = np.abs(tr - np.rint(tr)) > PROJECTOR_TOL
    if off.any():
        raise InvalidInput(f"trace {float(tr[off][0])} is not an integer rank")


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projection matrix of integer rank (idempotent to 1e-9)."""

    matrix: SymMatrix

    def __init__(self, matrix):
        if not isinstance(matrix, SymMatrix):
            matrix = SymMatrix(matrix)
        _require_projector(matrix.a)
        object.__setattr__(self, "matrix", matrix)

    @property
    def a(self) -> np.ndarray:
        return self.matrix.a

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def rank(self) -> int:
        return int(round(float(_trace(self.matrix.a))))


def _check_d(d: int, p: int) -> None:
    if not 1 <= d <= p:
        raise InvalidInput(f"d={d} out of range 1..{p}")


def _lead_outer(u: np.ndarray, d: int) -> np.ndarray:
    lead = u[..., :d]
    return lead @ lead.swapaxes(-1, -2)


def projector_leq_d(u: OrthMatrix, d: int) -> Projector:
    """Orthogonal projection onto the span of the first d columns of U."""
    _check_d(d, u.dim)
    return Projector(SymMatrix(_lead_outer(u.a, d)))


def projector_leq_d_batch(u: np.ndarray, d: int) -> np.ndarray:
    """projector_leq_d of each basis in a (B, p, p) stack, checked as Projector does."""
    _check_d(d, u.shape[-1])
    m = symmetrized(_lead_outer(u, d))
    _require_projector(m)
    return m


def random_projector(p: int, d: int, rng) -> Projector:
    """Random rank-d projector: the leading-block projector of a Haar draw."""
    return projector_leq_d(haar_orthogonal(p, rng), d)


def _leading_mask(p: int, d: int) -> np.ndarray:
    pi = np.zeros(p)
    pi[:d] = 1.0
    return pi


def dP_dir(p: int, d: int, xi: SkewMatrix) -> SymMatrix:
    """Directional derivative at the identity of the rank-d projector map.

    Equals xi @ Pi_d - Pi_d @ xi where Pi_d projects onto the first d
    coordinates; for a generator L(i, j) with i < d <= j this is
    -e_i e_j^T - e_j e_i^T, and it vanishes when i, j are on the same side
    of the split.
    """
    if xi.dim != p:
        raise InvalidInput(f"direction has dim {xi.dim}, expected {p}")
    if not 1 <= d <= p:
        raise InvalidInput(f"d={d} out of range 1..{p}")
    pi = _leading_mask(p, d)
    # xi * pi[None, :] multiplies columns; pi[:, None] * xi multiplies rows.
    return SymMatrix(xi.a * pi[None, :] - pi[:, None] * xi.a)


def dv_dir(p: int, i: int, j: int, xi: SkewMatrix) -> np.ndarray:
    """Directional derivative at the identity of v_ij(U) = u_i u_j^T.

    Closed form xi e_i e_j^T - e_i e_j^T xi; for xi = L(i, j) it equals
    e_i e_i^T - e_j e_j^T.
    """
    if xi.dim != p:
        raise InvalidInput(f"direction has dim {xi.dim}, expected {p}")
    if not (0 <= i < p and 0 <= j < p):
        raise InvalidInput(f"indices ({i}, {j}) out of range for p={p}")
    out = np.zeros((p, p))
    out[:, j] += xi.a[:, i]
    out[i, :] -= xi.a[j, :]
    return out


def _weighted_loss(u: np.ndarray, diff: np.ndarray, w: np.ndarray) -> np.ndarray:
    coords = u.swapaxes(-1, -2) @ diff @ u
    return (w * coords * coords).sum(axis=(-2, -1))


def weighted_loss(u: OrthMatrix, a, d: int, w: WeightMatrix) -> float:
    """Weighted squared loss sum_kl w_kl <u_k u_l^T, a - P(U)>^2.

    With unit weights this is the squared Hilbert-Schmidt distance between
    a and the rank-d projector of U.  Uses <u_k u_l^T, M> = (U^T M U)_kl.
    """
    a = np.asarray(getattr(a, "a", a), dtype=np.float64)
    if a.shape != (u.dim, u.dim) or w.dim != u.dim:
        raise InvalidInput("dimension mismatch between U, a and weights")
    _check_d(d, u.dim)
    return float(_weighted_loss(u.a, a - projector_leq_d(u, d).a, w.w))


def weighted_loss_batch(u: np.ndarray, a: np.ndarray, d: int, w: WeightMatrix) -> np.ndarray:
    """weighted_loss of each (U, a) pair of two (B, p, p) stacks, with U checked orthogonal."""
    if a.shape != u.shape or u.ndim != 3 or w.dim != u.shape[-1]:
        raise InvalidInput("dimension mismatch between U, a and weights")
    return _weighted_loss(u, a - projector_leq_d_batch(u, d), w.w)


def excess_risk_weights(spectrum: Spectrum, mu: float) -> WeightMatrix:
    """Spectral-gap weights: row k is lam_k - mu for k < d and mu - lam_k after.

    Requires mu between the eigenvalues adjacent to the split,
    lam_{d+1} <= mu <= lam_d (1-based), so all weights are nonnegative.
    """
    lam = spectrum.lambdas
    d = spectrum.d
    if d >= spectrum.p:
        raise InvalidInput("excess-risk weights need d < p")
    if not lam[d] <= mu <= lam[d - 1]:
        raise InvalidInput(f"mu={mu} outside [{lam[d]}, {lam[d - 1]}]")
    rows = np.where(np.arange(spectrum.p) < d, lam - mu, mu - lam)
    return WeightMatrix(np.repeat(rows[:, None], spectrum.p, axis=1))


def _excess_risk(spectrum: Spectrum, u: np.ndarray, p_hat: np.ndarray) -> np.ndarray:
    sigma = (u * spectrum.lambdas) @ u.swapaxes(-1, -2)
    inner = _trace(p_hat.swapaxes(-1, -2) @ sigma)
    return np.sum(spectrum.lambdas[: spectrum.d]) - inner


def _check_rank_is_d(rank, d: int) -> None:
    if np.any(rank != d):
        raise InvalidInput(f"projector rank {np.max(rank)} != d={d}")


def excess_risk(spectrum: Spectrum, u: OrthMatrix, p_hat: Projector) -> float:
    """Reconstruction-error regret of p_hat against the optimal projector.

    Computed exactly via traces: sum of the leading d eigenvalues minus
    <p_hat, Sigma> with Sigma = U diag(lam) U^T.  Nonnegative for every
    rank-d projector.
    """
    if p_hat.dim != u.dim or u.dim != spectrum.p:
        raise InvalidInput("dimension mismatch")
    _check_rank_is_d(p_hat.rank, spectrum.d)
    return float(_excess_risk(spectrum, u.a, p_hat.a))


def excess_risk_batch(spectrum: Spectrum, u: np.ndarray, p_hat: np.ndarray) -> np.ndarray:
    """excess_risk of each (U, projector) pair of two (B, p, p) stacks."""
    if p_hat.shape != u.shape or u.ndim != 3 or u.shape[-1] != spectrum.p:
        raise InvalidInput("dimension mismatch")
    _check_rank_is_d(np.rint(_trace(p_hat)), spectrum.d)
    return _excess_risk(spectrum, u, p_hat)
