"""Problem instances and samplers.

A :class:`Spectrum` is an ordered eigenvalue vector together with the rank
``d`` of the subspace to estimate.  Two observation models are built on it:
``CovModel`` (n i.i.d. centered Gaussian vectors with covariance U diag(lam)
U^T) and ``DenoiseModel`` (a single symmetric matrix U diag(lam) U^T + sigma
times GOE noise); each gives its Fisher information along the generator
L(i, j), the divergence log(1 + chi-square) of its law at a stack of bases
from the law at the identity, and draws a stack of the matrices an estimator
diagonalizes at U = I.  The identity is the only basis a simulation needs:
the law of the data at U is the law at I conjugated by U (Gaussian rows and
GOE noise are orthogonally invariant), both plug-in estimators are
equivariant, P(U X U^T) = U P(X) U^T, and both losses are unchanged by that
conjugation, so the loss at a Haar-distributed U has the law of the loss at
I.  All randomness flows through :class:`RngStream`, a counter-based
generator keyed by (seed, stream), so distinct streams are independent and
every draw is reproducible.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import OrthMatrix, SymMatrix, sym_eig


def _whole(value, name: str) -> int:
    """value as an int; InvalidInput unless it is a finite whole number."""
    if isinstance(value, numbers.Integral):
        return int(value)
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and float(value).is_integer()):
        raise InvalidInput(f"{name} must be a whole number, got {value!r}")
    return int(value)


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
        if np.any(lam[1:] > lam[:-1]):
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
        return {"lambdas": self.lambdas.tolist(), "d": self.d}

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
        object.__setattr__(self, "n", _whole(self.n, "n"))
        if self.n < 1:
            raise InvalidInput("n must be >= 1")
        if self.n > sys.float_info.max:  # every formula multiplies a float by n
            raise InvalidInput(f"n must be at most {sys.float_info.max:.4g}")
        if not self.spectrum.strict_positive:
            raise InvalidInput("covariance model requires strictly positive eigenvalues")

    @property
    def p(self) -> int:
        return self.spectrum.p

    def generator_fisher(self, li, lj):
        """Fisher information n (lam_i - lam_j)^2 / (lam_i lam_j) along L(i, j); broadcasts.

        Computed as n (gap / lam_i) (gap / lam_j), from eigenvalue ratios, so
        it neither overflows nor underflows when the spectrum is rescaled.  A true
        value beyond the float range is inf: ``fisher.fisher_matrix`` and the
        excess caps reject it, and an edge cap 2/I_ij is 0.  The products and
        quotients are taken in two arrays of the broadcast shape, in that
        order; scalar arguments give a numpy float."""
        gap = np.subtract(li, lj, out=np.empty(np.broadcast(li, lj).shape))
        with np.errstate(over="ignore"):
            info = np.divide(gap, li, out=np.empty_like(gap))
            np.multiply(self.n, info, out=info)
            return np.multiply(info, np.divide(gap, lj, out=gap), out=info)[()]

    def renyi2(self, u: np.ndarray) -> np.ndarray:
        """Renyi divergence of order 2, D = log(1 + chi2), of the n-sample law at
        each basis of a (B, p, p) stack from the law at I, in one eigensolve.

        Single-sample value for centered Gaussians N(0, S1) vs N(0, S0):
        with m the eigenvalues of S0^{-1/2} S1 S0^{-1/2},

            1 + chi2_1 = prod_k (m_k (2 - m_k))^{-1/2},

        finite iff every m_k < 2; the n-fold product law gives
        D = n * log1p(chi2_1).  Each entry is 0 when S1 equals S0 exactly
        and +inf when the definiteness condition fails.
        """
        lam = self.spectrum.lambdas
        scale = 1.0 / np.sqrt(lam)
        sigma1 = (u * lam) @ u.swapaxes(-1, -2)
        same = np.all(sigma1 == np.diag(lam), axis=(-2, -1))
        m = scale[:, None] * sigma1 * scale[None, :]
        args = (1.0 - sym_eig(m)[0]) ** 2
        blocked = np.any(args >= 1.0, axis=-1)
        log_one_plus_chi1 = -0.5 * np.sum(np.log1p(-np.where(blocked[:, None], 0.0, args)), axis=-1)
        return np.where(same, 0.0, np.where(blocked, np.inf, self.n * log_one_plus_chi1))

    def observe(self, count: int, g: np.random.Generator) -> np.ndarray:
        """A (count, p, p) stack of empirical covariances of n rows at U = I.

        Each is Lam^{1/2} R^T R Lam^{1/2} / n with R the Bartlett factor of a
        Wishart(n, I) matrix (Bartlett 1933): min(n, p) rows, R_ii the root of a
        chi-square with n - i degrees of freedom (0-based i), N(0, 1) entries
        right of the diagonal and zeros left of it.  O(p^2) draws whatever n is;
        n < p gives the rank-n scatter.
        """
        k = min(self.n, self.p)
        r = np.triu(g.standard_normal((count, k, self.p)), 1)
        diag = np.arange(k)
        r[:, diag, diag] = np.sqrt(g.chisquare(self.n - diag.astype(np.float64), size=(count, k)))
        y = r / math.sqrt(self.n) * np.sqrt(self.spectrum.lambdas)
        return y.swapaxes(-1, -2) @ y


@dataclass(frozen=True)
class DenoiseModel:
    """Single observation U diag(lam) U^T + sigma * W with W from the GOE."""

    spectrum: Spectrum
    sigma: float
    kind = "denoising"

    def __post_init__(self):
        if not 0 < self.sigma < np.inf:
            raise InvalidInput(f"sigma must be > 0 and finite, got {self.sigma:g}")
        if self.spectrum.lambdas[-1] < 0:
            raise InvalidInput("denoising model requires nonnegative eigenvalues")

    @property
    def p(self) -> int:
        return self.spectrum.p

    def generator_fisher(self, li, lj):
        """Fisher information ((lam_i - lam_j) / sigma)^2 along L(i, j); broadcasts.

        The gap is divided by sigma before squaring, so the value does not
        depend on the scale of lam and sigma together.  A true value beyond the
        float range is inf: ``fisher.fisher_matrix`` rejects it, and an edge cap
        2/I_ij is 0.  It is taken in one array of the broadcast shape; scalar
        arguments give a numpy float."""
        info = np.subtract(li, lj, out=np.empty(np.broadcast(li, lj).shape))
        with np.errstate(over="ignore"):
            return np.square(np.divide(info, self.sigma, out=info), out=info)[()]

    def renyi2(self, u: np.ndarray) -> np.ndarray:
        """Renyi divergence of order 2, D = log(1 + chi2), of the law at each basis
        of a (B, p, p) stack from the law at I.  For the mean shift M = U diag(lam)
        U^T - diag(lam), D = vech(M)^T (sigma^2 Sigma_W)^{-1} vech(M) with Sigma_W the
        GOE's vech covariance (2 on the diagonal, 1 elsewhere); each off-diagonal
        entry appears twice in M, so D = (1/2) sum_kl (M_kl / sigma)^2."""
        lam = self.spectrum.lambdas
        shift = ((u * lam) @ u.swapaxes(-1, -2) - np.diag(lam)) / self.sigma
        return 0.5 * np.sum(shift * shift, axis=(-2, -1))

    def observe(self, count: int, g: np.random.Generator) -> np.ndarray:
        """A (count, p, p) stack of observations diag(lam) + sigma * GOE at U = I."""
        noise = _goe(g.standard_normal((count, self.p, self.p)))
        return np.diag(self.spectrum.lambdas) + self.sigma * noise


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by (seed, stream), both ints.

    Backed by the counter-based Philox generator; distinct (seed, stream)
    pairs give statistically independent streams without coordination, so
    parallel Monte Carlo workers can derive per-chunk streams locally.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(int(self.stream),))
        return np.random.Generator(np.random.Philox(ss))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise InvalidInput(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def haar_orthogonal(p: int, rng) -> OrthMatrix:
    """Draw from the Haar measure on the full orthogonal group O(p):
    ``haar_from_normals`` of one p x p matrix of standard normals from rng."""
    if p < 1:
        raise InvalidInput("p must be >= 1")
    return haar_from_normals(_as_generator(rng).standard_normal((p, p)))


def haar_from_normals(z) -> OrthMatrix:
    """The Haar-distributed orthogonal matrix of each matrix of a (..., p, p)
    stack z of i.i.d. standard normals, as one checked ``OrthMatrix``.

    QR factorization, with the signs of R's diagonal folded into Q.  The
    determinant is not constrained (both components of O(p) carry mass 1/2).
    LAPACK factors each matrix on its own, so a matrix gets the same bits
    alone as in any stack.
    """
    q, r = np.linalg.qr(z)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    return OrthMatrix(q * np.where(signs == 0, 1.0, signs)[..., None, :])


def _goe(z: np.ndarray) -> np.ndarray:
    """GOE matrices from standard normal (..., p, p) draws z."""
    return (z + z.swapaxes(-1, -2)) / np.sqrt(2.0)


def _check_basis(model, u: OrthMatrix) -> None:
    if u.dim != model.p:
        raise InvalidInput(f"dimension mismatch: U is {u.dim}x{u.dim}, model has p={model.p}")


def sample_cov(model: CovModel, u: OrthMatrix, rng) -> np.ndarray:
    """n rows, each i.i.d. N(0, U diag(lam) U^T); generated as (z*sqrt(lam)) U^T."""
    _check_basis(model, u)
    z = _as_generator(rng).standard_normal((model.n, model.p))
    return (z * np.sqrt(model.spectrum.lambdas)) @ u.a.T


def sample_goe(p: int, rng) -> SymMatrix:
    """GOE draw: Var W_ij = 1 off the diagonal, Var W_ii = 2, symmetric."""
    if p < 1:
        raise InvalidInput("p must be >= 1")
    return SymMatrix(_goe(_as_generator(rng).standard_normal((p, p))))


def sample_denoise(model: DenoiseModel, u: OrthMatrix, rng) -> SymMatrix:
    """One observation U diag(lam) U^T + sigma * GOE."""
    _check_basis(model, u)
    signal = (u.a * model.spectrum.lambdas) @ u.a.T
    return SymMatrix(signal + model.sigma * sample_goe(model.p, rng).a)


def empirical_cov(data) -> SymMatrix:
    """(1/n) X^T X for an n-by-p data array."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise InvalidInput("data must be an n-by-p array with n >= 1")
    return SymMatrix(x.T @ x / x.shape[0])


# --- spectrum families and the CLI shorthand ---------------------------------


def exp_spectrum(alpha: float, p: int, d: int = 1) -> Spectrum:
    """lambda_j = exp(-alpha * j), j = 1..p."""
    j = np.arange(1, p + 1, dtype=np.float64)
    with np.errstate(over="ignore"):  # Spectrum rejects an eigenvalue that overflowed
        return Spectrum(np.exp(-alpha * j), d)


def poly_spectrum(alpha: float, p: int, d: int = 1) -> Spectrum:
    """lambda_j = j^(-alpha-1), j = 1..p."""
    j = np.arange(1, p + 1, dtype=np.float64)
    with np.errstate(over="ignore"):  # Spectrum rejects an eigenvalue that overflowed
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
