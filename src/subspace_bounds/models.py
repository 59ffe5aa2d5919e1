"""Problem instances and samplers.

A :class:`Spectrum` is an ordered eigenvalue vector together with the rank
``d`` of the subspace to estimate.  Two observation models are built on it:
``CovModel`` (n i.i.d. centered Gaussian vectors with covariance U diag(lam)
U^T) and ``DenoiseModel`` (a single symmetric matrix U diag(lam) U^T + sigma
times GOE noise); each gives its Fisher information along the generator
L(i, j), the chi-square divergence of its law at a stack of bases from the
law at the identity, and draws the matrix a plug-in estimator diagonalizes.
All randomness flows through :class:`RngStream`, a counter-based generator
keyed by (seed, stream), so distinct streams are independent and every
draw is reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import OrthMatrix, SymMatrix, require_orthogonal, sym_eig_batch, vech, vech_diag_mask


def _whole(value, name: str) -> int:
    """value as an int; InvalidInput unless it is a finite whole number."""
    number = float(value) if isinstance(value, (int, float)) else math.nan
    if not (math.isfinite(number) and number.is_integer()):
        raise InvalidInput(f"{name} must be a whole number, got {value!r}")
    return int(number)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted non-increasing plus the target subspace rank d."""

    lambdas: np.ndarray
    d: int

    def __init__(self, lambdas, d: int):
        lam = np.array(lambdas, dtype=np.float64)
        lam.setflags(write=False)
        if lam.ndim != 1 or lam.size == 0:
            raise InvalidInput("lambdas must be a non-empty vector")
        if not np.all(np.isfinite(lam)):
            raise InvalidInput("lambdas must be finite")
        if np.any(np.diff(lam) > 0):
            raise InvalidInput("lambdas must be sorted non-increasing")
        if not 1 <= d <= lam.size:
            raise InvalidInput(f"d={d} out of range 1..{lam.size}")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "d", int(d))

    @property
    def p(self) -> int:
        return self.lambdas.size

    @property
    def strict_positive(self) -> bool:
        return bool(self.lambdas[-1] > 0)

    def to_json_dict(self) -> dict:
        return {"lambdas": [float(x) for x in self.lambdas], "d": self.d}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Spectrum":
        return cls(obj["lambdas"], _whole(obj["d"], "d"))


@dataclass(frozen=True)
class CovModel:
    """n i.i.d. N(0, U diag(lam) U^T) observations; requires lam_p > 0."""

    spectrum: Spectrum
    n: int
    kind = "covariance"

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInput("n must be >= 1")
        if not self.spectrum.strict_positive:
            raise InvalidInput("covariance model requires strictly positive eigenvalues")

    @property
    def p(self) -> int:
        return self.spectrum.p

    def generator_fisher(self, li, lj):
        """Fisher information n (lam_i - lam_j)^2 / (lam_i lam_j) along L(i, j); broadcasts."""
        gap = li - lj
        return self.n * gap * gap / (li * lj)

    def chi2(self, u: np.ndarray) -> np.ndarray:
        """chi-square divergence of the n-sample law at each basis of a (B, p, p)
        stack from the law at I, with one stacked eigensolve.

        Single-sample value for centered Gaussians N(0, S1) vs N(0, S0):
        with m the eigenvalues of S0^{-1/2} S1 S0^{-1/2},

            1 + chi2_1 = prod_k (m_k (2 - m_k))^{-1/2},

        finite iff every m_k < 2; the n-fold product law gives
        chi2_n = (1 + chi2_1)^n - 1, computed as expm1(n * log1p(chi2_1)).
        Each entry is 0 when S1 equals S0 exactly and +inf when the
        definiteness condition fails.
        """
        lam = self.spectrum.lambdas
        scale = 1.0 / np.sqrt(lam)
        sigma1 = (u * lam) @ u.swapaxes(-1, -2)
        same = np.all(sigma1 == np.diag(lam), axis=(-2, -1))
        m = scale[:, None] * sigma1 * scale[None, :]
        args = (1.0 - sym_eig_batch(m)[0]) ** 2
        blocked = np.any(args >= 1.0, axis=-1)
        log_one_plus_chi1 = -0.5 * np.sum(np.log1p(-np.where(blocked[:, None], 0.0, args)), axis=-1)
        chi2 = np.where(blocked, np.inf, np.expm1(self.n * log_one_plus_chi1))
        return np.where(same, 0.0, chi2)

    def observe(self, u: np.ndarray, g: np.random.Generator) -> np.ndarray:
        """Empirical covariance of ``sample_cov``'s n-by-p sample at basis array u."""
        return _gram(_cov_rows(self, u, g))


@dataclass(frozen=True)
class DenoiseModel:
    """Single observation U diag(lam) U^T + sigma * W with W from the GOE."""

    spectrum: Spectrum
    sigma: float
    kind = "denoising"

    def __post_init__(self):
        if not (self.sigma > 0 and 0 < self.sigma * self.sigma < np.inf):
            raise InvalidInput(f"sigma must be > 0 with sigma^2 > 0 and finite, got {self.sigma:g}")
        if self.spectrum.lambdas[-1] < 0:
            raise InvalidInput("denoising model requires nonnegative eigenvalues")

    @property
    def p(self) -> int:
        return self.spectrum.p

    def generator_fisher(self, li, lj):
        """Fisher information (lam_i - lam_j)^2 / sigma^2 along L(i, j); broadcasts."""
        gap = li - lj
        return gap * gap / self.sigma**2

    def chi2(self, u: np.ndarray) -> np.ndarray:
        """chi-square divergence of the law at each basis of a (B, p, p) stack from
        the law at I: expm1 of Delta^T (sigma^2 Sigma_W)^{-1} Delta, with
        Delta = vech(U diag(lam) U^T - diag(lam)) and Sigma_W the GOE's vech
        covariance (2 on the diagonal, 1 elsewhere).  The products stay 2-d
        matmuls, one per basis: a stacked matmul changes the last bits."""
        lam = self.spectrum.lambdas
        inv_w = np.where(vech_diag_mask(self.p), 0.5, 1.0) / self.sigma**2
        deltas = [vech((x * lam) @ x.T - np.diag(lam)) for x in u]
        return np.expm1(np.array([np.sum(inv_w * delta * delta) for delta in deltas]))

    def observe(self, u: np.ndarray, g: np.random.Generator) -> np.ndarray:
        """Observation of ``sample_denoise`` at basis array u, before SymMatrix symmetrizes it."""
        signal = (u * self.spectrum.lambdas) @ u.T
        return signal + self.sigma * _goe(self.p, g)


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by (seed, stream).

    Backed by the counter-based Philox generator; distinct (seed, stream)
    pairs give statistically independent streams without coordination, so
    parallel Monte Carlo workers can derive per-replicate streams locally.
    ``stream`` may be an int or a tuple of ints (a hierarchical key).
    """

    seed: int
    stream: int | tuple = 0

    def generator(self) -> np.random.Generator:
        key = self.stream if isinstance(self.stream, tuple) else (self.stream,)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(int(k) for k in key))
        return np.random.Generator(np.random.Philox(ss))

    def child(self, *key) -> "RngStream":
        base = self.stream if isinstance(self.stream, tuple) else (self.stream,)
        return RngStream(self.seed, base + tuple(int(k) for k in key))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise InvalidInput(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def _haar_fold(z: np.ndarray) -> np.ndarray:
    """Q of z = QR with the signs of R's diagonal folded in, for each (p, p) matrix of z."""
    q, r = np.linalg.qr(z)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs = np.where(signs == 0, 1.0, signs)
    return q * signs[..., None, :]


def haar_orthogonal(p: int, rng) -> OrthMatrix:
    """Draw from the Haar measure on the full orthogonal group O(p).

    QR factorization of an i.i.d. standard Gaussian matrix, with the signs
    of R's diagonal folded into Q.  The determinant is not constrained
    (both components of O(p) carry mass 1/2).
    """
    if p < 1:
        raise InvalidInput("p must be >= 1")
    g = _as_generator(rng)
    return OrthMatrix(_haar_fold(g.standard_normal((p, p))))


def haar_orthogonal_batch(p: int, generators) -> np.ndarray:
    """One Haar draw from each generator, stacked into a (B, p, p) array.

    Draws the same numbers from each generator as ``haar_orthogonal`` and
    gives the same bits; the QR factorizations run as one stacked call.
    Every matrix is checked orthogonal, as OrthMatrix does.
    """
    if p < 1:
        raise InvalidInput("p must be >= 1")
    u = _haar_fold(np.stack([g.standard_normal((p, p)) for g in generators]))
    require_orthogonal(u)
    return u


def _cov_rows(model: CovModel, u: np.ndarray, g: np.random.Generator) -> np.ndarray:
    z = g.standard_normal((model.n, model.p))
    return (z * np.sqrt(model.spectrum.lambdas)) @ u.T


def _goe(p: int, g: np.random.Generator) -> np.ndarray:
    z = g.standard_normal((p, p))
    return (z + z.T) / np.sqrt(2.0)


def _gram(x: np.ndarray) -> np.ndarray:
    return x.T @ x / x.shape[0]


def _check_basis(model, u: OrthMatrix) -> None:
    if u.dim != model.p:
        raise InvalidInput(f"dimension mismatch: U is {u.dim}x{u.dim}, model has p={model.p}")


def sample_cov(model: CovModel, u: OrthMatrix, rng) -> np.ndarray:
    """n rows, each i.i.d. N(0, U diag(lam) U^T); generated as (z*sqrt(lam)) U^T."""
    _check_basis(model, u)
    return _cov_rows(model, u.a, _as_generator(rng))


def sample_goe(p: int, rng) -> SymMatrix:
    """GOE draw: Var W_ij = 1 off the diagonal, Var W_ii = 2, symmetric."""
    if p < 1:
        raise InvalidInput("p must be >= 1")
    return SymMatrix(_goe(p, _as_generator(rng)))


def sample_denoise(model: DenoiseModel, u: OrthMatrix, rng) -> SymMatrix:
    """One observation U diag(lam) U^T + sigma * GOE."""
    _check_basis(model, u)
    return SymMatrix(model.observe(u.a, _as_generator(rng)))


def empirical_cov(data) -> SymMatrix:
    """(1/n) X^T X for an n-by-p data array."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise InvalidInput("data must be an n-by-p array with n >= 1")
    return SymMatrix(_gram(x))


# --- spectrum families and the CLI shorthand ---------------------------------


def exp_spectrum(alpha: float, p: int, d: int = 1) -> Spectrum:
    """lambda_j = exp(-alpha * j), j = 1..p."""
    j = np.arange(1, p + 1, dtype=np.float64)
    return Spectrum(np.exp(-alpha * j), d)


def poly_spectrum(alpha: float, p: int, d: int = 1) -> Spectrum:
    """lambda_j = j^(-alpha-1), j = 1..p."""
    j = np.arange(1, p + 1, dtype=np.float64)
    return Spectrum(j ** (-alpha - 1.0), d)


def spike_spectrum(lam1: float, lam2: float, d: int, p: int) -> Spectrum:
    """Two-group spectrum: d leading eigenvalues lam1, the rest lam2."""
    if p < 1:
        raise InvalidInput("p must be >= 1")
    if not lam1 >= lam2:
        raise InvalidInput("spike spectrum needs lam1 >= lam2")
    lam = np.full(p, lam2, dtype=np.float64)
    lam[:d] = lam1
    return Spectrum(lam, d)


def parse_spectrum(text: str, d: int | None = None) -> Spectrum:
    """Parse a spectrum from shorthand or JSON.

    Shorthands: ``exp:alpha,p``, ``poly:alpha,p`` (both need d supplied
    separately), ``spike:lam1,lam2,d,p``.  Anything starting with ``{`` is
    parsed as the JSON object {"lambdas": [...], "d": k}.  Every p and d
    must be a finite whole number.
    """
    text = text.strip()
    if text.startswith("{"):
        try:
            spectrum = Spectrum.from_json_dict(json.loads(text))
        except InvalidInput:
            raise
        except (KeyError, TypeError, ValueError) as exc:  # bad JSON, a missing key, bad lambdas
            raise InvalidInput(f"cannot parse spectrum {text!r}: {exc!r}") from exc
        return spectrum if d is None else Spectrum(spectrum.lambdas, d)
    kind, _, rest = text.partition(":")
    try:
        args = [float(x) for x in rest.split(",")] if rest else []
    except ValueError as exc:
        raise InvalidInput(f"cannot parse spectrum {text!r}: {exc}") from exc
    if kind == "exp" and len(args) == 2:
        return exp_spectrum(args[0], _whole(args[1], "p"), d if d is not None else 1)
    if kind == "poly" and len(args) == 2:
        return poly_spectrum(args[0], _whole(args[1], "p"), d if d is not None else 1)
    if kind == "spike" and len(args) == 4:
        spectrum = spike_spectrum(args[0], args[1], _whole(args[2], "d"), _whole(args[3], "p"))
        if d is not None and d != spectrum.d:
            raise InvalidInput(f"d={d} conflicts with spike d={spectrum.d}")
        return spectrum
    raise InvalidInput(f"unknown spectrum shorthand {text!r}")
