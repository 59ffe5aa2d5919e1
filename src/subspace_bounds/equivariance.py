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

The projectors, the gap weights, ``weighted_loss`` and ``excess_risk`` work
over the trailing axes: one matrix or a (..., p, p) stack of them (with a
(...) stack of levels mu) runs the same lines, and each member of a stack
gets the bits it gets alone.

Index convention: eigenvector positions are 0-based; the leading block is
positions 0..d-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import OrthMatrix, SkewMatrix, SymMatrix
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
    """Nonnegative loss weights w_kl, or a (..., p, p) stack of them; zero
    entries are allowed."""

    w: np.ndarray

    def __init__(self, w):
        w = np.array(w, dtype=np.float64)
        if w.ndim < 2 or w.shape[-1] != w.shape[-2]:
            raise InvalidInput("weights must be a square matrix")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise InvalidInput("weights must be finite and nonnegative")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def dim(self) -> int:
        return self.w.shape[-1]

    @classmethod
    def ones(cls, p: int) -> "WeightMatrix":
        return cls(np.ones((p, p)))


def _first(values, bad) -> float:
    """The first entry of values (an array or a scalar) where bad holds."""
    return float(np.asarray(values)[bad].flat[0])


def _require_projector(m: np.ndarray) -> None:
    """Raise unless each matrix of a (..., n, n) array is idempotent to 1e-9
    with an integer trace."""
    if np.abs(m @ m - m).max() > PROJECTOR_TOL:
        raise InvalidInput("matrix is not idempotent")
    tr = np.trace(m, axis1=-2, axis2=-1)
    off = np.abs(tr - np.round(tr)) > PROJECTOR_TOL
    if off.any():
        raise InvalidInput(f"trace {_first(tr, off)} is not an integer rank")


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projection matrix of integer rank (idempotent to 1e-9), or a
    (..., p, p) stack of them."""

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
    def rank(self) -> int | np.ndarray:
        """The rank, an integer per matrix of a stack."""
        return np.rint(np.trace(self.matrix.a, axis1=-2, axis2=-1)).astype(np.int64)


def _check_d(d: int, p: int) -> None:
    if not 1 <= d <= p:
        raise InvalidInput(f"d={d} out of range 1..{p}")


def projector_leq_d(u: OrthMatrix, d: int) -> Projector:
    """Orthogonal projection onto the span of the first d columns of U, for
    each U of a stack."""
    _check_d(d, u.dim)
    lead = u.a[..., :d]
    return Projector(SymMatrix(lead @ lead.swapaxes(-1, -2)))


def random_projector(p: int, d: int, rng) -> Projector:
    """Random rank-d projector: the leading-block projector of a Haar draw."""
    return projector_leq_d(haar_orthogonal(p, rng), d)


def dP_dir(p: int, d: int, xi: SkewMatrix) -> SymMatrix:
    """Directional derivative at the identity of the rank-d projector map.

    Equals xi @ Pi_d - Pi_d @ xi where Pi_d projects onto the first d
    coordinates; for a generator L(i, j) with i < d <= j this is
    -e_i e_j^T - e_j e_i^T, and it vanishes when i, j are on the same side
    of the split.
    """
    if xi.dim != p:
        raise InvalidInput(f"direction has dim {xi.dim}, expected {p}")
    _check_d(d, p)
    pi = (np.arange(p) < d).astype(np.float64)
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


def weighted_loss(u: OrthMatrix, a, d: int, w: WeightMatrix) -> float | np.ndarray:
    """Weighted squared loss sum_kl w_kl <u_k u_l^T, a - P(U)>^2.

    With unit weights this is the squared Hilbert-Schmidt distance between
    a and the rank-d projector of U.  Uses <u_k u_l^T, M> = (U^T M U)_kl.
    For a stack of U, a and w, an array of the stack's shape; a float for
    one matrix.
    """
    a = np.asarray(getattr(a, "a", a), dtype=np.float64)
    if a.shape != u.a.shape or w.w.shape != u.a.shape:
        raise InvalidInput("dimension mismatch between U, a and weights")
    coords = u.a.swapaxes(-1, -2) @ (a - projector_leq_d(u, d).a) @ u.a
    return (w.w * coords * coords).sum(axis=(-2, -1))[()]


def gap_weights(spectrum: Spectrum, mu) -> np.ndarray:
    """The spectral gaps lam_k - mu for k < d and mu - lam_k after, a length-p
    vector for each level of a (...) stack mu.

    Requires mu between the eigenvalues adjacent to the split,
    lam_{d+1} <= mu <= lam_d (1-based), so every gap is an exact difference
    >= +0.0.
    """
    lam = spectrum.lambdas
    d = spectrum.d
    if d >= spectrum.p:
        raise InvalidInput("excess-risk weights need d < p")
    mu = np.asarray(mu, dtype=np.float64)[..., None]
    inside = (lam[d] <= mu) & (mu <= lam[d - 1])
    if np.count_nonzero(inside) != inside.size:
        raise InvalidInput(f"mu={_first(mu, ~inside)} outside [{lam[d]}, {lam[d - 1]}]")
    return np.where(np.arange(spectrum.p) < d, lam - mu, mu - lam)


def excess_risk_weights(spectrum: Spectrum, mu) -> WeightMatrix:
    """Spectral-gap weights: row k repeats ``gap_weights(spectrum, mu)[..., k]``."""
    return WeightMatrix(np.repeat(gap_weights(spectrum, mu)[..., None], spectrum.p, axis=-1))


def excess_risk(spectrum: Spectrum, u: OrthMatrix, p_hat: Projector) -> float | np.ndarray:
    """Reconstruction-error regret of p_hat against the optimal projector.

    Computed exactly via traces: sum of the leading d eigenvalues minus
    <p_hat, Sigma> with Sigma = U diag(lam) U^T.  Nonnegative for every
    rank-d projector.  For a stack of U and p_hat, an array of the stack's
    shape; a float for one matrix.
    """
    if p_hat.a.shape != u.a.shape or u.dim != spectrum.p:
        raise InvalidInput("dimension mismatch")
    d, rank = spectrum.d, p_hat.rank
    if (rank != d).any():
        raise InvalidInput(f"projector rank {_first(rank, rank != d):.0f} != d={d}")
    sigma = (u.a * spectrum.lambdas) @ u.a.swapaxes(-1, -2)
    trace = np.trace(p_hat.a.swapaxes(-1, -2) @ sigma, axis1=-2, axis2=-1)
    return (np.sum(spectrum.lambdas[:d]) - trace)[()]
