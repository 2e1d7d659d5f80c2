"""Probability paths between noise and data.

A path provides the scalar coefficients alpha(t), sigma(t) and their
time derivatives on t in [0, 1] through ``coefficients(t)``, with the
convention that t=0 is pure noise and t=1 is data:

    x_t = alpha(t) * x1 + sigma(t) * x0
    v_target(t) = d_alpha(t) * x1 + d_sigma(t) * x0

All paths satisfy alpha(0)=0, sigma(0)=1, alpha(1)=1, sigma(1)=0 exactly,
with alpha nondecreasing and sigma nonincreasing.  Coefficients are
evaluated in double precision; ``t`` may be a scalar or an ndarray.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# variance-preserving exponential profile, beta_max - beta_min and beta_min
VP_A = 19.9
VP_B = 0.1
_VP_E0 = float(np.exp(-0.25 * VP_A - 0.5 * VP_B))  # the raw profile at t=0


def _check_time(t):
    t = np.asarray(t, dtype=np.float64)
    inside = (t >= 0.0) & (t <= 1.0)   # NaN is outside
    if not inside.all():
        raise ConfigError(f"t must lie in [0, 1], got {t[~inside].tolist()}")
    return t


def _check_pair(x0, x1):
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ValueError(f"endpoint shape mismatch: {x0.shape} vs {x1.shape}")
    return x0, x1


def _bcast(coeff):
    """Align a scalar-or-(B,) coefficient with a (..., D) state array."""
    c = np.asarray(coeff)
    if c.ndim == 0:
        return c
    return c[..., None]


class Interpolant:
    """Base class; a path is its one coefficient function.

    Subclasses define ``_coefficients(t)``: the unchecked (alpha, sigma,
    d_alpha, d_sigma) of a float64 t in [0, 1].  The public methods check
    t once and then call it.
    """

    kind: str

    def _coefficients(self, t):
        raise NotImplementedError

    def coefficients(self, t):
        """(alpha, sigma, d_alpha, d_sigma) at time t."""
        return self._coefficients(_check_time(t))

    def sigma(self, t):   # outside tests only perfbench/checks.py reads it
        return self.coefficients(t)[1]

    def d_alpha(self, t):   # outside tests only perfbench/checks.py reads it
        return self.coefficients(t)[2]

    def d_sigma(self, t):   # outside tests only perfbench/checks.py reads it
        return self.coefficients(t)[3]

    def sample_xt(self, x0, x1, t):
        """State on the path: alpha(t) * x1 + sigma(t) * x0."""
        x0, x1 = _check_pair(x0, x1)
        a, s, _, _ = self._coefficients(_check_time(t))
        return _bcast(a) * x1 + _bcast(s) * x0

    def target_velocity(self, x0, x1, t):
        """Conditional target velocity: d_alpha(t) * x1 + d_sigma(t) * x0."""
        x0, x1 = _check_pair(x0, x1)
        _, _, da, ds = self._coefficients(_check_time(t))
        return _bcast(da) * x1 + _bcast(ds) * x0


class LinearPath(Interpolant):
    """Straight-line path: alpha = t, sigma = 1 - t."""

    kind = "linear"

    def _coefficients(self, t):
        return t, 1.0 - t, np.ones_like(t), -np.ones_like(t)


class GvpPath(Interpolant):
    """Trigonometric variance-preserving path: alpha = sin(pi t / 2).

    cos(pi/2) rounds to 6.1e-17 rather than 0.0 in double precision, so on
    t > 1/2 sin and cos are taken in the mirrored forms cos(pi (1-t) / 2)
    and sin(pi (1-t) / 2) (1 - t is exact there): the boundary identities
    then hold bitwise.
    """

    kind = "gvp"

    def _coefficients(self, t):
        sin = np.where(t <= 0.5, np.sin(0.5 * np.pi * t), np.cos(0.5 * np.pi * (1.0 - t)))
        cos = np.where(t <= 0.5, np.cos(0.5 * np.pi * t), np.sin(0.5 * np.pi * (1.0 - t)))
        return sin, cos, 0.5 * np.pi * cos, -0.5 * np.pi * sin


class VpPath(Interpolant):
    """Exponential variance-preserving path with exact endpoints.

    The raw profile e(t) = exp(-a (1-t)^2 / 4 - b (1-t) / 2), with a = VP_A
    and b = VP_B, reaches e(0) ~ 6.6e-3 rather than zero, so alpha is
    shifted and rescaled to (e(t) - e(0)) / (1 - e(0)); sigma =
    sqrt(1 - alpha^2) then hits both endpoints exactly.  d_sigma has an
    integrable singularity at t=1 (sigma ~ sqrt(1-t) there); at exactly
    t=1 we return 0.0, a convention and not the limit: sigma * d_sigma =
    -alpha * d_alpha tends to -d_alpha(1) (see ``velocity_coefficient``).
    Finite-difference consistency is only claimed on the open interior.
    """

    kind = "vp"

    def _coefficients(self, t):
        u = 1.0 - t
        raw = np.exp(-0.25 * VP_A * u * u - 0.5 * VP_B * u)
        a = (raw - _VP_E0) / (1.0 - _VP_E0)
        da = raw * (0.5 * VP_A * u + 0.5 * VP_B) / (1.0 - _VP_E0)
        del u, raw   # freed before s and ds are formed, which lowers the call's peak memory
        s = np.sqrt(np.maximum(1.0 - a * a, 0.0))
        ds = np.where(s > 0.0, -a * da / np.where(s > 0.0, s, 1.0), 0.0)
        return a, s, da, ds


_PATHS = {cls.kind: cls for cls in (LinearPath, VpPath, GvpPath)}
PATH_KINDS = tuple(_PATHS)


def make_interpolant(kind: str) -> Interpolant:
    """Look up a path by its config name, one of PATH_KINDS."""
    if kind not in _PATHS:
        raise ValueError(f"unknown path kind {kind!r}; expected one of {PATH_KINDS}")
    return _PATHS[kind]()
