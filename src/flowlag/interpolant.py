"""Probability paths between noise and data.

A path provides the scalar coefficient functions ``alpha(t)``/``sigma(t)``
and their time derivatives on t in [0, 1], with the convention that t=0
is pure noise and t=1 is data:

    x_t = alpha(t) * x1 + sigma(t) * x0
    v_target(t) = d_alpha(t) * x1 + d_sigma(t) * x0

All paths satisfy alpha(0)=0, sigma(0)=1, alpha(1)=1, sigma(1)=0 exactly,
with alpha nondecreasing and sigma nonincreasing.  Coefficients are
evaluated in double precision; ``t`` may be a scalar or an ndarray.
"""

from __future__ import annotations

import numpy as np

PATH_KINDS = ("linear", "vp", "gvp")

# variance-preserving exponential profile, beta_max - beta_min and beta_min
VP_A = 19.9
VP_B = 0.1


def _check_time(t):
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t)) or np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError(f"time must lie in [0, 1], got {t!r}")
    return t


def _check_pair(x0, x1):
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ValueError(f"endpoint shape mismatch: {x0.shape} vs {x1.shape}")
    return x0, x1


def _bcast(coeff, x):
    """Align a scalar-or-(B,) coefficient with a (..., D) state array."""
    c = np.asarray(coeff)
    if c.ndim == 0:
        return c
    return c[..., None]


class Interpolant:
    """Base class; subclasses define the four coefficient functions.

    Subclasses override the unchecked private forms ``_alpha``, ``_sigma``,
    ``_d_alpha`` and ``_d_sigma`` of a float64 t in [0, 1], not the public
    methods: those check t once and then call the private forms, and so do
    ``coefficients``, ``sample_xt`` and ``target_velocity``.
    """

    kind: str

    def _alpha(self, t):
        raise NotImplementedError

    def _sigma(self, t):
        raise NotImplementedError

    def _d_alpha(self, t):
        raise NotImplementedError

    def _d_sigma(self, t):
        raise NotImplementedError

    def alpha(self, t):
        return self._alpha(_check_time(t))

    def sigma(self, t):
        return self._sigma(_check_time(t))

    def d_alpha(self, t):
        return self._d_alpha(_check_time(t))

    def d_sigma(self, t):
        return self._d_sigma(_check_time(t))

    def coefficients(self, t):
        """(alpha, sigma, d_alpha, d_sigma) at time t."""
        t = _check_time(t)
        return self._alpha(t), self._sigma(t), self._d_alpha(t), self._d_sigma(t)

    def sample_xt(self, x0, x1, t):
        """State on the path: alpha(t) * x1 + sigma(t) * x0."""
        x0, x1 = _check_pair(x0, x1)
        t = _check_time(t)
        return _bcast(self._alpha(t), x1) * x1 + _bcast(self._sigma(t), x0) * x0

    def target_velocity(self, x0, x1, t):
        """Conditional target velocity: d_alpha(t) * x1 + d_sigma(t) * x0."""
        x0, x1 = _check_pair(x0, x1)
        t = _check_time(t)
        return _bcast(self._d_alpha(t), x1) * x1 + _bcast(self._d_sigma(t), x0) * x0

    def __repr__(self):
        return f"{type(self).__name__}()"


class LinearPath(Interpolant):
    """Straight-line path: alpha = t, sigma = 1 - t."""

    kind = "linear"

    def _alpha(self, t):
        return t

    def _sigma(self, t):
        return 1.0 - t

    def _d_alpha(self, t):
        return np.ones_like(t)

    def _d_sigma(self, t):
        return -np.ones_like(t)


def _sin_half(t):
    """sin(pi t / 2) with exact values at both endpoints.

    cos(pi/2) rounds to 6.1e-17 rather than 0.0 in double precision; the
    mirrored form sin(pi (1-t) / 2) on t > 1/2 avoids that (1 - t is
    exact there), so boundary identities hold bitwise.
    """
    return np.where(t <= 0.5, np.sin(0.5 * np.pi * t), np.cos(0.5 * np.pi * (1.0 - t)))


def _cos_half(t):
    """cos(pi t / 2) with exact values at both endpoints."""
    return np.where(t <= 0.5, np.cos(0.5 * np.pi * t), np.sin(0.5 * np.pi * (1.0 - t)))


class GvpPath(Interpolant):
    """Trigonometric variance-preserving path: alpha = sin(pi t / 2)."""

    kind = "gvp"

    def _alpha(self, t):
        return _sin_half(t)

    def _sigma(self, t):
        return _cos_half(t)

    def _d_alpha(self, t):
        return 0.5 * np.pi * _cos_half(t)

    def _d_sigma(self, t):
        return -0.5 * np.pi * _sin_half(t)


class VpPath(Interpolant):
    """Exponential variance-preserving path with exact endpoints.

    The raw profile e(t) = exp(-a (1-t)^2 / 4 - b (1-t) / 2) reaches
    e(0) ~ 6.6e-3 rather than zero, so alpha is shifted and rescaled to
    (e(t) - e(0)) / (1 - e(0)); sigma = sqrt(1 - alpha^2) then hits both
    endpoints exactly.  d_sigma has an integrable singularity at t=1
    (sigma ~ sqrt(1-t) there); at exactly t=1 we return 0.0, which is the
    only value consistent with the products sigma * d_sigma -> finite
    that downstream formulas use.  Finite-difference consistency is only
    claimed on the open interior.
    """

    kind = "vp"

    def __init__(self, a: float = VP_A, b: float = VP_B):
        self.a = float(a)
        self.b = float(b)
        self._e0 = float(np.exp(-0.25 * self.a - 0.5 * self.b))

    def _raw(self, t):
        u = 1.0 - t
        return np.exp(-0.25 * self.a * u * u - 0.5 * self.b * u)

    def _alpha(self, t):
        return (self._raw(t) - self._e0) / (1.0 - self._e0)

    def _sigma(self, t):
        a = self._alpha(t)
        return np.sqrt(np.maximum(1.0 - a * a, 0.0))

    def _d_alpha(self, t):
        u = 1.0 - t
        return self._raw(t) * (0.5 * self.a * u + 0.5 * self.b) / (1.0 - self._e0)

    def _d_sigma(self, t):
        a = self._alpha(t)
        da = self._d_alpha(t)
        s = np.sqrt(np.maximum(1.0 - a * a, 0.0))
        return np.where(s > 0.0, -a * da / np.where(s > 0.0, s, 1.0), 0.0)

    def __repr__(self):
        return f"VpPath(a={self.a}, b={self.b})"


def make_interpolant(kind: str) -> Interpolant:
    """Look up a path by its config name ("linear" | "vp" | "gvp")."""
    kind = kind.lower()
    if kind == "linear":
        return LinearPath()
    if kind == "vp":
        return VpPath()
    if kind == "gvp":
        return GvpPath()
    raise ValueError(f"unknown path kind {kind!r}; expected one of {PATH_KINDS}")
