"""Problem instances and samplers.

A :class:`Spectrum` is an ordered eigenvalue vector together with the rank
``d`` of the subspace to estimate.  Two observation models are built on it:
``CovModel`` (n i.i.d. centered Gaussian vectors with covariance U diag(lam)
U^T) and ``DenoiseModel`` (a single symmetric matrix U diag(lam) U^T + sigma
times GOE noise).  All randomness flows through :class:`RngStream`, a
counter-based generator keyed by (seed, stream), so distinct streams are
independent and every draw is reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import OrthMatrix, SymMatrix, require_orthogonal


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
        return cls(obj["lambdas"], int(obj["d"]))


@dataclass(frozen=True)
class CovModel:
    """n i.i.d. N(0, U diag(lam) U^T) observations; requires lam_p > 0."""

    spectrum: Spectrum
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInput("n must be >= 1")
        if not self.spectrum.strict_positive:
            raise InvalidInput("covariance model requires strictly positive eigenvalues")

    @property
    def p(self) -> int:
        return self.spectrum.p


@dataclass(frozen=True)
class DenoiseModel:
    """Single observation U diag(lam) U^T + sigma * W with W from the GOE."""

    spectrum: Spectrum
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise InvalidInput("sigma must be > 0")
        if self.spectrum.lambdas[-1] < 0:
            raise InvalidInput("denoising model requires nonnegative eigenvalues")

    @property
    def p(self) -> int:
        return self.spectrum.p


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


def _denoise_obs(model: DenoiseModel, u: np.ndarray, g: np.random.Generator) -> np.ndarray:
    signal = (u * model.spectrum.lambdas) @ u.T
    return signal + model.sigma * _goe(model.p, g)


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
    return SymMatrix(_denoise_obs(model, u.a, _as_generator(rng)))


def empirical_cov(data) -> SymMatrix:
    """(1/n) X^T X for an n-by-p data array."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise InvalidInput("data must be an n-by-p array with n >= 1")
    return SymMatrix(_gram(x))


def observed_matrix(model: CovModel | DenoiseModel, u: np.ndarray, rng) -> np.ndarray:
    """The matrix a plug-in estimator diagonalizes, drawn at basis array u.

    The empirical covariance of ``sample_cov`` for CovModel, the
    observation of ``sample_denoise`` for DenoiseModel: the same draws and
    bits, before the symmetrization that SymMatrix applies.  Only the
    (p, p) result is kept, not the n-by-p sample.
    """
    g = _as_generator(rng)
    if isinstance(model, CovModel):
        return _gram(_cov_rows(model, u, g))
    return _denoise_obs(model, u, g)


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
    if not lam1 >= lam2:
        raise InvalidInput("spike spectrum needs lam1 >= lam2")
    lam = np.full(p, lam2, dtype=np.float64)
    lam[:d] = lam1
    return Spectrum(lam, d)


def parse_spectrum(text: str, d: int | None = None) -> Spectrum:
    """Parse a spectrum from shorthand or JSON.

    Shorthands: ``exp:alpha,p``, ``poly:alpha,p`` (both need d supplied
    separately), ``spike:lam1,lam2,d,p``.  Anything starting with ``{`` is
    parsed as the JSON object {"lambdas": [...], "d": k}.
    """
    text = text.strip()
    if text.startswith("{"):
        spectrum = Spectrum.from_json_dict(json.loads(text))
        return spectrum if d is None else Spectrum(spectrum.lambdas, d)
    kind, _, rest = text.partition(":")
    try:
        args = [float(x) for x in rest.split(",")] if rest else []
    except ValueError as exc:
        raise InvalidInput(f"cannot parse spectrum {text!r}: {exc}") from exc
    if kind == "exp" and len(args) == 2:
        return exp_spectrum(args[0], int(args[1]), d if d is not None else 1)
    if kind == "poly" and len(args) == 2:
        return poly_spectrum(args[0], int(args[1]), d if d is not None else 1)
    if kind == "spike" and len(args) == 4:
        spectrum = spike_spectrum(args[0], args[1], int(args[2]), int(args[3]))
        if d is not None and d != spectrum.d:
            raise InvalidInput(f"d={d} conflicts with spike d={spectrum.d}")
        return spectrum
    raise InvalidInput(f"unknown spectrum shorthand {text!r}")
