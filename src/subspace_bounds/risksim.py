"""Monte Carlo estimation of uniform-prior Bayes risks.

The Bayes risk under the Haar prior on U equals the risk at U = I.  This is
the group-equivariance argument the lower bounds rest on: the law of the
data at U is the law at I conjugated by U, both plug-in estimators are
equivariant, P(U X U^T) = U P(X) U^T, and both losses are unchanged when the
truth and the estimate are conjugated together, so the loss at a Haar draw
of U has the law of the loss at I.  Each replicate therefore draws the
observed matrix at U = I and scores the plug-in estimate, the top-d
eigenvectors V of that matrix, against I from two blocks of V (see
_losses).  Replicates come in fixed-size chunks, each drawn from its own
stream RngStream(seed, chunk), so the estimate is a pure function of
(config, seed) no matter how chunks are scheduled across processes.  A
chunk is drawn in one call, solved by one stacked eigendecomposition and
scored as a stack.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateGap, InvalidInput
from .equivariance import Projector, projector_leq_d
from .linalg import OrthMatrix, SymMatrix, sym_eig
from .models import CovModel, DenoiseModel, RngStream, _as_generator, _whole, empirical_cov

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
        for name in ("replicates", "seed", "workers"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
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


@dataclass(frozen=True, slots=True)  # slots: a caller may keep one per run
class RiskEstimate:
    mean: float
    std_error: float
    replicates: int
    seed: int
    loss: str
    resampled: int = 0

    def to_json_dict(self) -> dict:
        return {"schema": 1, **asdict(self)}


def _degenerate(values: np.ndarray, d: int) -> np.ndarray:
    """Whether the gap below the d-th of each row of sorted eigenvalues is at most
    GAP_TOL times the row's largest |eigenvalue| (so a zero row is degenerate)."""
    if d == values.shape[-1]:
        return np.zeros(values.shape[:-1], dtype=bool)
    return values[..., d - 1] - values[..., d] <= GAP_TOL * np.abs(values).max(axis=-1)


def _top_d_projector(sym: SymMatrix, d: int) -> Projector:
    """Projector onto the top-d eigenvectors of sym, from ``sym_eig`` on a stack
    of one, with the chunk path's gap test."""
    (values,), (vectors,) = sym_eig(sym.a[None])
    projector = projector_leq_d(OrthMatrix(vectors), d)  # InvalidInput unless 1 <= d <= p
    if _degenerate(values, d):
        raise DegenerateGap(
            f"gap {values[d - 1] - values[d]:.3e} below {GAP_TOL:.0e} of max |eigenvalue|"
        )
    return projector


def pca_estimator(data, d: int) -> Projector:
    """Spectral projector of the empirical covariance onto its top d eigenvalues."""
    return _top_d_projector(empirical_cov(data), d)


def denoise_estimator(x, d: int) -> Projector:
    """Spectral projector of an observed symmetric matrix onto its top d eigenvalues."""
    if not isinstance(x, SymMatrix):
        x = SymMatrix(x)
    return _top_d_projector(x, d)


def _losses(config: SimConfig, vectors: np.ndarray) -> np.ndarray:
    """Loss against U = I of the projector onto the first d columns of each
    orthogonal V in a (B, p, p) stack of eigenvectors, from two blocks of V.

    With P = diag(1_{i<d}) and P^ = V[:, :d] V[:, :d]^T, the unit norms of V's
    rows and columns give hs = ||P - P^||_F^2 = 2 ||V[d:, :d]||_F^2 and
    excess = tr(diag(lam)(P - P^)) = sum_{i<d} lam_i ||V[i, d:]||^2
    - sum_{j>=d} lam_j ||V[j, :d]||^2 (0-based).  The two blocks have equal
    norms, so excess >= (lam_{d-1} - lam_d) ||V[d:, :d]||_F^2 >= 0, and no
    terms of the size of lam cancel, at any n.
    """
    spectrum = config.model.spectrum
    d = spectrum.d
    tail = np.square(vectors[:, d:, :d]).sum(axis=-1)  # ||V[j, :d]||^2, j >= d
    if config.loss == "hs_squared":
        return 2.0 * tail.sum(axis=-1)
    lead = np.square(vectors[:, :d, d:]).sum(axis=-1)  # ||V[i, d:]||^2, i < d
    return lead @ spectrum.lambdas[:d] - tail @ spectrum.lambdas[d:]


def _loss_scale(config: SimConfig) -> float:
    """The power of two the losses are divided by before their squares are summed,
    exactly: 1 for hs (at most 2d), and for excess (at most d lam_1) the one in (lam_1/2, lam_1]."""
    if config.loss == "hs_squared":
        return 1.0
    return math.ldexp(1.0, math.frexp(config.model.spectrum.lambdas[0])[1] - 1)


def _chunk_sums(config: SimConfig, start: int, stop: int) -> tuple[float, float, int]:
    """Sum, sum of squares and resample count of the losses of replicates
    start..stop-1 (one chunk), each divided by ``_loss_scale(config)``.

    The chunk's stack is drawn at U = I from one generator,
    RngStream(seed, start // CHUNK); the draws whose gap is degenerate are
    redrawn from it, in order, up to MAX_RESAMPLE draws in all.  Losses are
    added in replicate order.
    """
    g = RngStream(config.seed, start // CHUNK).generator()
    d = config.model.spectrum.d
    losses = np.empty(stop - start)
    todo = np.arange(stop - start)
    resampled = 0
    for _ in range(MAX_RESAMPLE):
        values, vectors = sym_eig(config.model.observe(todo.size, g))
        bad = _degenerate(values, d)
        if not bad.all():
            losses[todo[~bad]] = _losses(config, vectors[~bad])
        todo = todo[bad]
        if not todo.size:
            break
        resampled += todo.size
    else:
        raise DegenerateGap(
            f"replicate {start + todo[0]} degenerate after {MAX_RESAMPLE} resamples"
        )
    total = 0.0
    total_sq = 0.0
    for loss in (losses / _loss_scale(config)).tolist():
        total += loss
        total_sq += loss * loss
    return total, total_sq, resampled


def ProcessPoolExecutor(max_workers: int):  # named after the class it returns
    """concurrent.futures' process pool, imported only when a run uses one:
    the import (multiprocessing, subprocess) costs about 2 MB of memory."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


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
    scale = _loss_scale(config)
    mean = total / reps * scale
    if reps > 1:
        var = max(0.0, (total_sq - total * total / reps) / (reps - 1))
        se = float(np.sqrt(var / reps)) * scale
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
        record = {"schema": 1, **asdict(self)}
        record["status"] = "PASS" if record.pop("passed") else "FAIL"
        return record


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
    replicates = _whole(replicates, "replicates")
    if replicates < 2:
        raise InvalidInput("need at least 2 replicates")
    g = _as_generator(rng)
    values = np.empty(replicates)
    for lo in range(0, replicates, CHUNK):
        hi = min(lo + CHUNK, replicates)
        _, vectors = sym_eig(model.observe(hi - lo, g))
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
