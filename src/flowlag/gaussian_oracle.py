"""Closed-form MSE-optimal velocity field for isotropic Gaussian data.

With x1 ~ N(0, data_std^2 I_D) and x0 ~ N(0, I_D) independently coupled,
(x0, x1, x_t) is jointly Gaussian.  Every closed form here reads one law,
``_law``: x_t ~ N(0, s_t^2 I_D), and given x_t = x the target velocity
v = d_alpha x1 + d_sigma x0 is Gaussian with

    s_t^2 = alpha^2 data_std^2 + sigma^2,
    E[v | x] = v*(x, t) = c(t) x,  c(t) = (d_alpha alpha data_std^2 + d_sigma sigma) / s_t^2,
    E||v - v*||^2 = D data_std^2 (alpha d_sigma - d_alpha sigma)^2 / s_t^2.

v* is the exact minimizer of the velocity-regression objective; the last
line, alike for every x, is the kinetic energy it misses.  Every sampler
here takes an explicit generator so Monte Carlo shards are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import GaussianData
from .errors import ConfigError
from .interpolant import Interpolant, _bcast


def GaussianFlowSpec(dim: int, data_std: float = 1.0) -> GaussianData:
    """``GaussianData(dim, data_std)`` under the oracle's old type name, for perfbench/."""
    return GaussianData(dim, data_std)


def _law(data: GaussianData, interp: Interpolant, t):
    """(alpha, sigma, d_alpha, d_sigma, s_t^2) at a scalar or array t."""
    a, s, da, ds = interp.coefficients(t)
    return a, s, da, ds, a * a * data.std**2 + s * s


def marginal_variance(data: GaussianData, interp: Interpolant, t):
    """Per-coordinate variance s_t^2 of the forward marginal at time t."""
    return _law(data, interp, t)[4]


def velocity_coefficient(data: GaussianData, interp: Interpolant, t):
    """Scalar c(t) with v*(x, t) = c(t) x.

    At the boundaries c(0) = d_sigma(0) and c(1) = d_alpha(1) on every path.
    On vp, c(1) = d_alpha(1) ~ 0.0503 is the convention d_sigma(1) = 0, not the
    limit: sigma * d_sigma -> -d_alpha(1) as t -> 1, so c(t) -> d_alpha(1) (1 -
    1/data_std^2), which is 0 at data_std 1, 0.0378 at 2 and -503 at 0.01.
    """
    a, s, da, ds, s2 = _law(data, interp, t)
    return (da * a * data.std**2 + ds * s) / s2


def velocity_variance(data: GaussianData, interp: Interpolant, t):
    """The exact Jensen gap E[||v_target||^2 | x_t] - ||v*(x_t, t)||^2, alike for every x_t.

    D data_std^2 at linear t=0 and D at linear t=1.  On the vp path it
    grows without bound as t -> 1 (d_sigma ~ 1/sqrt(1-t)), yet is exactly
    0 at t=1, where d_sigma(1) = 0 makes the target velocity deterministic.
    """
    a, s, da, ds, s2 = _law(data, interp, t)
    return data.dim * (data.std**2 / s2) * (a * ds - da * s) ** 2


def oracle_velocity(data: GaussianData, interp: Interpolant, x, t):
    """Exact conditional-mean velocity E[v_target | x_t = x] = c(t) x."""
    x = _asarray_dim(x, data.dim)
    return _bcast(velocity_coefficient(data, interp, t)) * x


def conditional_means(data: GaussianData, interp: Interpolant, x, t):
    """(E[x1 | x_t = x], E[x0 | x_t = x]); both are scalar multiples of x."""
    x = _asarray_dim(x, data.dim)
    a, s, _, _, s2 = _law(data, interp, t)
    e1 = _bcast(a * data.std**2 / s2) * x
    e0 = _bcast(s / s2) * x
    return e1, e0


class OracleField:
    """Callable (x, t) -> velocity wrapper around the closed-form field."""

    def __init__(self, data: GaussianData, interp: Interpolant):
        self.data = data
        self.interp = interp

    def __call__(self, x, t):
        return oracle_velocity(self.data, self.interp, x, t)


def _asarray_dim(x, dim: int):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != dim:
        raise ValueError(f"state has trailing dimension {x.shape[-1]}, data has dim {dim}")
    return x


def conditional_pair_sample(data, interp, x, t, n: int, rng: np.random.Generator):
    """Draw n exact samples of (x0, x1) given x_t = x.

    Given x_t the pair is a rank-one Gaussian supported on the line
    alpha x1 + sigma x0 = x_t; with w ~ N(0, I_D) and sd = data_std:

        x0 = (sigma / s^2) x + (alpha sd / s) w
        x1 = (alpha sd^2 / s^2) x - (sigma sd / s) w

    which reproduces the conditional means, variances, and covariance
    exactly (no rejection, no estimator bias).
    """
    x = _asarray_dim(x, data.dim)
    if x.ndim != 1:
        raise ValueError("conditioning state must be a single vector")
    a, s, _, _, s2 = (float(v) for v in _law(data, interp, t))
    sd = data.std
    sroot = math.sqrt(s2)
    w = rng.standard_normal((n, data.dim))
    x0 = (s / s2) * x + (a * sd / sroot) * w
    x1 = (a * sd * sd / s2) * x - (s * sd / sroot) * w
    return x0, x1


def conditional_target_energy(data, interp, x, t) -> float:
    """Closed-form E[||v_target||^2 | x_t = x] = ||v*(x, t)||^2 + velocity_variance."""
    v = oracle_velocity(data, interp, x, t)
    return float(v @ v + velocity_variance(data, interp, t))


def cross_term_expectation(data: GaussianData, interp: Interpolant, x_t, t) -> float:
    """E[<x0, x1> | x_t] on every path.

    Equals sigma alpha (sd^2 / s_t^2) (||x_t||^2 / s_t^2 - D) and vanishes
    identically at t in {0, 1} and on the typical shell ||x_t||^2 = D s_t^2.
    """
    x_t = _asarray_dim(x_t, data.dim)
    a, s, _, _, s2 = _law(data, interp, t)
    return float(s * a * (data.std**2 / s2) * (float(x_t @ x_t) / s2 - data.dim))


@dataclass(frozen=True)
class JensenGapResult:
    """Learned vs target kinetic energy at one (x, t), with MC error."""

    t: float
    learned_energy: float
    target_energy: float
    mc_stderr: float
    n_mc: int

    @property
    def gap(self) -> float:
        return self.target_energy - self.learned_energy

    @property
    def is_conclusive(self) -> bool:
        """Whether the MC budget resolves the gap beyond 3 standard errors."""
        return abs(self.gap) > 3.0 * self.mc_stderr

    @property
    def deficit_confirmed(self) -> bool:
        """Strict learned < target, resolved beyond 3 standard errors."""
        return self.gap > 3.0 * self.mc_stderr


def require_n_mc(n_mc: int) -> None:
    """The Monte Carlo floor of the oracle estimates: n_mc >= 1000."""
    if n_mc < 1000:
        raise ConfigError(f"n_mc must be >= 1000 to resolve the gap, got {n_mc}")


def jensen_gap(data, interp, x, t, n_mc: int, rng: np.random.Generator) -> JensenGapResult:
    """Compare ||E[v|x_t]||^2 against a Monte Carlo E[||v||^2 | x_t].

    The target energy is estimated from exact conditional samples of
    (x0, x1); the result records the MC standard error and flags whether
    the comparison is conclusive rather than silently passing.
    """
    require_n_mc(n_mc)
    x, t = _asarray_dim(x, data.dim), float(t)
    v_star = oracle_velocity(data, interp, x, t)   # interp.coefficients checks t
    learned = float(v_star @ v_star)
    x0, x1 = conditional_pair_sample(data, interp, x, t, n_mc, rng)
    v = interp.target_velocity(x0, x1, np.full(n_mc, t))
    energies = np.einsum("ij,ij->i", v, v)
    target = float(energies.mean())
    stderr = float(energies.std(ddof=1) / math.sqrt(n_mc))
    return JensenGapResult(t=t, learned_energy=learned, target_energy=target,
                           mc_stderr=stderr, n_mc=n_mc)


def typical_shell_point(data: GaussianData, interp: Interpolant, t) -> np.ndarray:
    """A state on the typical shell ||x||^2 = D s_t^2 (all-equal coordinates)."""
    s2 = float(marginal_variance(data, interp, t))
    return np.full(data.dim, math.sqrt(s2))


@dataclass(frozen=True)
class RhoStats:
    """Summary of the relative cross-term rho over independent pairs."""

    dim: int
    n_pairs: int
    data_std: float
    mean: float
    p99: float
    max: float


_RHO_CHUNK = 4096  # pairs drawn at once


def rho_statistics(dim: int, n_pairs: int, data_std: float = 1.0, seed: int = 0) -> RhoStats:
    """Concentration statistics of rho = 2|<x0,x1>| / (||x0||^2 + ||x1||^2).

    Pairs are drawn independently (x0 standard normal, x1 scaled by
    data_std) in chunks to bound memory at large D.  In high dimension
    rho concentrates like Theta(1/sqrt(D)).

    For data_std=1 the law is exact: with u = (x0 + x1)/sqrt(2) and
    w = (x0 - x1)/sqrt(2), independent standard normals, rho = |2B - 1|
    where B = ||u||^2 / (||u||^2 + ||w||^2) ~ Beta(D/2, D/2).  Its mean is
    Gamma((D+1)/2) / (sqrt(pi) (D/2) Gamma(D/2)), approximately
    sqrt(2 / (pi D)) at large D.
    """
    data = GaussianData(dim, data_std)  # refuses a dim below 1 and a bad data_std
    if n_pairs < 10_000:
        raise ConfigError(f"n_pairs must be >= 10000, got {n_pairs}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), dim]))
    vals = np.empty(n_pairs)
    done = 0
    while done < n_pairs:
        m = min(_RHO_CHUNK, n_pairs - done)
        x0 = rng.standard_normal((m, dim))
        x1 = data.sample(m, rng)
        num = 2.0 * np.abs(np.einsum("ij,ij->i", x0, x1))
        den = np.einsum("ij,ij->i", x0, x0) + np.einsum("ij,ij->i", x1, x1)
        vals[done:done + m] = num / den
        done += m
    return RhoStats(dim=dim, n_pairs=n_pairs, data_std=data_std,
                    mean=float(vals.mean()), p99=float(np.percentile(vals, 99.0)),
                    max=float(vals.max()))
