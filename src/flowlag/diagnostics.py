"""Velocity-norm profiling and Gaussian Fréchet distance tracking.

The Fréchet distance here is the standard two-moment functional

    ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a^1/2 S_b S_a^1/2)^1/2)

applied to particle batches in model space.  Distance-to-target per
checkpoint ("how far upstream are the particles?") is always measured
against the terminal data distribution, so a converging flow shows a
monotone decreasing series and a stalled flow shows residual distance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .datasets import GaussianData
from .errors import CheckFailedError, ConfigError
from .rng import rng_for
from .solver import Trajectory, _check_node_times


@dataclass(frozen=True)
class MomentStats:
    """Sample (or analytic) mean and covariance of a point cloud."""

    mean: np.ndarray
    cov: np.ndarray
    n_samples: int  # 0 marks analytic moments

    def __post_init__(self):
        if self.mean.ndim != 1 or self.cov.shape != (self.mean.size, self.mean.size):
            raise ValueError("moments must be a (D,) mean and (D, D) covariance")

    @property
    def dim(self) -> int:
        return self.mean.size

    @classmethod
    def from_samples(cls, x: np.ndarray) -> "MomentStats":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 2:
            raise ValueError("need a (n >= 2, D) sample array")
        with np.errstate(invalid="ignore"):   # ±inf gives NaN moments, refused by node_fld
            mean = x.mean(axis=0)
            xc = x - mean
            cov = (xc.T @ xc) / (x.shape[0] - 1)
        return cls(mean=mean, cov=cov, n_samples=x.shape[0])


def gaussian_reference(dim: int, std: float = 1.0) -> MomentStats:
    """Analytic moments of an isotropic Gaussian target."""
    return reference_from_dataset(GaussianData(dim, std))


REFERENCE_SAMPLES = 8192  # the draws an empirical reference is fit on


def reference_from_dataset(dataset, seed: int = 0) -> MomentStats:
    """Analytic moments when the dataset has them, else a fit on exactly
    REFERENCE_SAMPLES draws at ``seed``, stable at the dimensions used here."""
    moments = dataset.moments()
    if moments is not None:
        mean, cov = moments
        return MomentStats(mean=np.asarray(mean, dtype=np.float64),
                           cov=np.asarray(cov, dtype=np.float64), n_samples=0)
    return MomentStats.from_samples(
        dataset.sample(REFERENCE_SAMPLES, rng_for(seed, "fld:reference")))


def sqrtm_psd(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-1e-8, 0) are treated as rounding noise and clipped;
    anything more negative (or an asymmetric or non-finite input) is an error.
    The reconstruction S @ S = m is checked to 1e-8 ||m||: CheckFailedError if not.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix square root needs a square matrix")
    if not np.all(np.isfinite(m)):   # NaN would pass every bound check below
        raise ValueError("matrix square root needs finite entries")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.T)) > 1e-8 * scale:
        raise ValueError("matrix is not symmetric")
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    if w.min() < -1e-8 * scale:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w.min():g}")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    root = 0.5 * (root + root.T)
    err = np.linalg.norm(root @ root - m)
    bound = 1e-8 * max(np.linalg.norm(m), 1e-300)
    if err > bound:
        raise CheckFailedError(f"sqrtm reconstruction error {err:g} exceeds {bound:g}")
    return root


def frechet_gaussian(a: MomentStats, b: MomentStats) -> float:
    """Fréchet distance between two Gaussian moment fits (symmetric, >= 0)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    diff = a.mean - b.mean
    root_a = sqrtm_psd(a.cov)
    inner = root_a @ b.cov @ root_a
    cross = sqrtm_psd(0.5 * (inner + inner.T))
    val = float(diff @ diff + np.trace(a.cov) + np.trace(b.cov) - 2.0 * np.trace(cross))
    # exact value is nonnegative; rounding can leave a tiny negative residue
    return max(val, 0.0)


@dataclass(frozen=True)
class NormProfile:
    """Velocity-magnitude statistics over the forward marginal."""

    times: np.ndarray
    mean: np.ndarray        # mean ||v(x_t, t)|| per time
    std: np.ndarray
    target_rms: np.ndarray  # sqrt(E ||v_target||^2) per time
    n_samples: int

    def __post_init__(self):
        if not (np.all(np.diff(self.times) > 0) and np.all(np.isfinite(self.mean))
                and np.all(self.mean >= 0)):
            raise ValueError("profile grid must be sorted and values finite/nonnegative")

    def table(self):
        """(header, rows) of the one CSV layout: mean norm, its stderr and target RMS per time."""
        stderr = self.std / np.sqrt(self.n_samples)
        return (("t", "value", "stderr", "target_rms"),
                list(zip(self.times, self.mean, stderr, self.target_rms)))


def norm_profile(field, interp, dataset, times, n_samples: int = 4096,
                 seed: int = 0) -> NormProfile:
    """Mean and spread of ||field(x_t, t)|| with x_t from the forward marginal.

    Also records the batch target magnitude sqrt(mean ||v_target||^2),
    the constant transport norm in the straight-path case.
    """
    if n_samples < 1000:
        raise ConfigError("need n_samples >= 1000 for a stable profile")
    times = np.asarray(times, dtype=np.float64)
    if not (times.size and np.all(np.diff(times) > 0) and 0.0 <= times[0] <= times[-1] <= 1.0):
        raise ConfigError(f"profile times must increase within [0, 1], got {times}")
    rng = rng_for(seed, "norm-profile")
    x1 = dataset.sample(n_samples, rng)
    x0 = rng.standard_normal((n_samples, dataset.dim))
    means, stds, targets = [], [], []
    for t in times:
        tt = np.full(n_samples, float(t))
        xt = interp.sample_xt(x0, x1, tt)
        norms = np.linalg.norm(np.asarray(field(xt, float(t))), axis=1)
        means.append(norms.mean())
        stds.append(norms.std(ddof=1))
        v = interp.target_velocity(x0, x1, tt)
        targets.append(np.sqrt(np.einsum("ij,ij->", v, v) / n_samples))
    return NormProfile(times=times, mean=np.array(means), std=np.array(stds),
                       target_rms=np.array(targets), n_samples=n_samples)


@dataclass(frozen=True)
class FldReport:
    """Distance to the target distribution at each of one or more node times."""

    times: tuple
    values: np.ndarray
    reference_id: str

    def __post_init__(self):
        if not 0 < len(self.times) == self.values.size == sum(0 <= v < np.inf for v in self.values):
            raise ValueError("need one or more checkpoints, one finite nonnegative distance each")
        _check_node_times("FLD report", self.times)

    @property
    def terminal(self) -> float:
        return float(self.values[-1])


_RIDGE_SCALE = 1e-6  # relative ridge on checkpoint covariances, scaled by tr(S)/D


def node_fld(stats: MomentStats, reference: MomentStats, t: float) -> float:
    """Fréchet distance to the target of the finite moments recorded at node time t.

    The covariance gets a relative ridge _RIDGE_SCALE * tr(S)/D before the matrix
    square root; fewer than D+1 samples are rank-deficient and raise a warning.
    """
    if not (np.all(np.isfinite(stats.mean)) and np.all(np.isfinite(stats.cov))):
        raise ValueError(f"non-finite moments at node t={t}")
    if stats.n_samples < stats.dim + 1:
        warnings.warn(f"checkpoint batch of {stats.n_samples} samples is below "
                      f"D+1={stats.dim + 1}; covariance is rank-deficient", stacklevel=2)
    eps = _RIDGE_SCALE * float(np.trace(stats.cov)) / stats.dim
    return frechet_gaussian(replace(stats, cov=stats.cov + eps * np.eye(stats.dim)), reference)


def track_fld(traj: Trajectory, reference: MomentStats, reference_id: str = "target") -> FldReport:
    """node_fld at every node of ``traj``, as integrated or loaded from a file: of a node
    recorded as MomentStats as it is, of a batch by its MomentStats.from_samples."""
    values = [node_fld(s if isinstance(s, MomentStats) else MomentStats.from_samples(s),
                       reference, t) for t, s in zip(*traj)]
    return FldReport(times=tuple(traj[0]), values=np.array(values), reference_id=reference_id)


def lag_improvement(baseline: FldReport, corrected: FldReport) -> np.ndarray:
    """Per-checkpoint relative reduction (baseline - corrected) / baseline of matching reports."""
    if baseline.times != corrected.times:
        raise ValueError(f"checkpoint times differ: {baseline.times}, {corrected.times}")
    if baseline.reference_id != corrected.reference_id:
        raise ValueError(f"references differ: {baseline.reference_id}, {corrected.reference_id}")
    b, c = baseline.values, corrected.values
    return np.where(b != 0.0, (b - c) / np.where(b != 0.0, b, 1.0), 0.0)


def split_half_fld(samples: np.ndarray) -> float:
    """Noise floor: Fréchet distance between two halves of one iid batch."""
    samples = np.asarray(samples, dtype=np.float64)
    half = samples.shape[0] // 2
    if half < samples.shape[1] + 1:
        warnings.warn("halves are smaller than D+1; floor estimate is rank-deficient",
                      stacklevel=2)
    a = MomentStats.from_samples(samples[:half])
    b = MomentStats.from_samples(samples[half:2 * half])
    return frechet_gaussian(a, b)
