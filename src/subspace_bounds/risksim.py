"""Monte Carlo estimation of uniform-prior Bayes risks.

Each replicate draws a basis U from the Haar measure, samples data from
the model at U, applies the plug-in spectral estimator, and evaluates the
loss through the equivariance module (the same formulas the identity
tests cross-validate).  Replicates use per-index derived random streams,
so the estimate is a pure function of (config, seed) no matter how work
is scheduled across processes.  A chunk of replicates is drawn, solved by
one stacked eigendecomposition and scored as a stack; every replicate
gets the bits the one-matrix functions would give it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGap, InvalidInput
from .equivariance import (
    Projector,
    WeightMatrix,
    excess_risk_batch,
    projector_leq_d,
    projector_leq_d_batch,
    weighted_loss_batch,
)
from .linalg import SymMatrix, sym_eig, sym_eig_batch
from .models import (
    CovModel,
    DenoiseModel,
    RngStream,
    _as_generator,
    empirical_cov,
    haar_orthogonal_batch,
)

GAP_TOL = 1e-12
CHUNK = 512  # fixed so merge order never depends on the worker count
MAX_RESAMPLE = 100

LOSS_TAGS = ("hs_squared", "excess")


@dataclass(frozen=True)
class SimConfig:
    """One Bayes-risk simulation: model, loss tag, replicate count, seed."""

    model: CovModel | DenoiseModel
    loss: str
    replicates: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.loss not in LOSS_TAGS:
            raise InvalidInput(f"loss must be one of {LOSS_TAGS}")
        if self.loss == "excess" and not isinstance(self.model, CovModel):
            raise InvalidInput("excess loss is defined for the covariance model only")
        if self.seed < 0:
            raise InvalidInput("seed must be >= 0")
        if self.replicates < 1:
            raise InvalidInput("replicates must be >= 1")
        if self.workers < 1:
            raise InvalidInput("workers must be >= 1")


@dataclass(frozen=True)
class RiskEstimate:
    mean: float
    std_error: float
    replicates: int
    seed: int
    loss: str
    resampled: int = 0

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "mean": self.mean,
            "std_error": self.std_error,
            "replicates": self.replicates,
            "seed": self.seed,
            "loss": self.loss,
            "resampled": self.resampled,
        }


def _degenerate(values: np.ndarray, d: int) -> np.ndarray:
    """Whether the gap below the d-th of each row of sorted eigenvalues is under GAP_TOL."""
    if d == values.shape[-1]:
        return np.zeros(values.shape[:-1], dtype=bool)
    return values[..., d - 1] - values[..., d] < GAP_TOL


def _top_d_projector(sym: SymMatrix, d: int) -> Projector:
    eig = sym_eig(sym)
    p = sym.dim
    if not 1 <= d <= p:
        raise InvalidInput(f"d={d} out of range 1..{p}")
    if _degenerate(eig.values, d):
        raise DegenerateGap(
            f"gap {eig.values[d - 1] - eig.values[d]:.3e} below {GAP_TOL:.0e}"
        )
    return projector_leq_d(eig.vectors, d)


def pca_estimator(data, d: int) -> Projector:
    """Spectral projector of the empirical covariance onto its top d eigenvalues."""
    return _top_d_projector(empirical_cov(data), d)


def denoise_estimator(x, d: int) -> Projector:
    """Spectral projector of an observed symmetric matrix onto its top d eigenvalues."""
    if not isinstance(x, SymMatrix):
        x = SymMatrix(x)
    return _top_d_projector(x, d)


def _draw(config: SimConfig, reps: np.ndarray, attempts: np.ndarray):
    """Haar bases and observed matrices of the given (replicate, attempt) draws, stacked."""
    p = config.model.p
    gens = [RngStream(config.seed, (int(r), int(a))).generator() for r, a in zip(reps, attempts)]
    u = haar_orthogonal_batch(p, gens)
    x = np.stack([config.model.observe(u[k], g) for k, g in enumerate(gens)])
    return u, x


def _losses(config: SimConfig, u: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Loss of each plug-in estimate (leading eigenvectors) against its basis."""
    spectrum = config.model.spectrum
    p_hat = projector_leq_d_batch(vectors, spectrum.d)
    if config.loss == "hs_squared":
        return weighted_loss_batch(u, p_hat, spectrum.d, WeightMatrix.ones(spectrum.p))
    return excess_risk_batch(spectrum, u, p_hat)


def _chunk_sums(config: SimConfig, start: int, stop: int) -> tuple[float, float, int]:
    """Sum, sum of squares and resample count of the losses of replicates start..stop-1.

    Replicate rep is drawn from RngStream(seed, (rep, attempt)); the draws
    whose gap is degenerate are redrawn at the next attempt, up to
    MAX_RESAMPLE attempts.  Losses are added in replicate order.
    """
    reps = np.arange(start, stop)
    attempts = np.zeros(reps.size, dtype=np.int64)
    losses = np.empty(reps.size)
    todo = np.arange(reps.size)
    while todo.size:
        u, x = _draw(config, reps[todo], attempts[todo])
        values, vectors = sym_eig_batch(x)
        bad = _degenerate(values, config.model.spectrum.d)
        good = ~bad
        if good.any():
            losses[todo[good]] = _losses(config, u[good], vectors[good])
        todo = todo[bad]
        attempts[todo] += 1
        exhausted = todo[attempts[todo] == MAX_RESAMPLE]
        if exhausted.size:
            raise DegenerateGap(
                f"replicate {reps[exhausted[0]]} degenerate after {MAX_RESAMPLE} resamples"
            )
    total = 0.0
    total_sq = 0.0
    for loss in losses.tolist():
        total += loss
        total_sq += loss * loss
    return total, total_sq, int(attempts.sum())


def _chunk_worker(args) -> tuple[float, float, int]:
    return _chunk_sums(*args)


def bayes_risk(config: SimConfig) -> RiskEstimate:
    """Monte Carlo mean and standard error of the configured Bayes risk.

    Work is split into fixed-size replicate chunks; partial sums are merged
    in chunk order, so the result is byte-identical at any worker count.
    """
    reps = config.replicates
    chunks = [(config, lo, min(lo + CHUNK, reps)) for lo in range(0, reps, CHUNK)]
    if config.workers > 1 and len(chunks) > 1:
        # Under fork the pool starts all max_workers processes at its first submit.
        with ProcessPoolExecutor(max_workers=min(config.workers, len(chunks))) as pool:
            parts = list(pool.map(_chunk_worker, chunks))
    else:
        parts = [_chunk_sums(*chunk) for chunk in chunks]
    total = 0.0
    total_sq = 0.0
    resampled = 0
    for t, tsq, rs in parts:
        total += t
        total_sq += tsq
        resampled += rs
    mean = total / reps
    if reps > 1:
        var = max(0.0, (total_sq - total * total / reps) / (reps - 1))
        se = float(np.sqrt(var / reps))
    else:
        se = 0.0
    return RiskEstimate(
        mean=float(mean),
        std_error=se,
        replicates=reps,
        seed=config.seed,
        loss=config.loss,
        resampled=resampled,
    )


@dataclass(frozen=True)
class OverlapReport:
    """First-moment check of the scaled eigenvector overlap n <u_i, uhat_j>^2."""

    i: int
    j: int
    n: int
    replicates: int
    sample_mean: float
    std_error: float
    target: float
    z_score: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "i": self.i,
            "j": self.j,
            "n": self.n,
            "replicates": self.replicates,
            "sample_mean": self.sample_mean,
            "std_error": self.std_error,
            "target": self.target,
            "z_score": self.z_score,
            "status": "PASS" if self.passed else "FAIL",
        }


def overlap_clt(model: CovModel, i: int, j: int, replicates: int, rng) -> OverlapReport:
    """Sample mean of n <e_i, uhat_j>^2 at U = I against its limit scale.

    The scaled squared overlap between population eigenvector i (leading
    block) and empirical eigenvector j (trailing block) has limiting scale
    lam_i lam_j / (lam_i - lam_j)^2; PASS when the sample mean is within
    5 standard errors.  Indices are 0-based: requires i < d <= j.
    """
    lam = model.spectrum.lambdas
    d, p = model.spectrum.d, model.p
    if i == j:
        raise InvalidInput("indices must differ")
    if not (0 <= i < d <= j < p):
        raise InvalidInput(f"need i < d <= j (0-based); got i={i}, j={j}, d={d}")
    if lam[i] == lam[j]:
        raise InvalidInput("overlap scale is undefined for equal eigenvalues")
    if replicates < 2:
        raise InvalidInput("need at least 2 replicates")
    g = _as_generator(rng)
    ident = np.eye(p)
    values = np.empty(replicates)
    for lo in range(0, replicates, CHUNK):
        hi = min(lo + CHUNK, replicates)
        covs = np.stack([model.observe(ident, g) for _ in range(lo, hi)])
        _, vectors = sym_eig_batch(covs)
        values[lo:hi] = model.n * vectors[:, i, j] ** 2
    target = float(model.n / model.generator_fisher(lam[i], lam[j]))
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(replicates))
    z = (mean - target) / se if se > 0 else float("inf")
    return OverlapReport(
        i=i,
        j=j,
        n=model.n,
        replicates=replicates,
        sample_mean=mean,
        std_error=se,
        target=target,
        z_score=float(z),
        passed=bool(abs(z) <= 5.0),
    )
