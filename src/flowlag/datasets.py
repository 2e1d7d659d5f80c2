"""Target distributions for training runs.

Every dataset is mean-centered (the boundary-limit analysis assumes
E[x1] = 0) and exposes analytic first/second moments when they exist so
distance diagnostics can use an exact reference.  The 2-D toys exist to
probe low-dimensional behavior, where energy injection is expected to
overshoot rather than help.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .schema import params_of, validated


class GaussianData:
    """Isotropic zero-mean Gaussian with per-coordinate std."""

    kind = "gaussian"

    def __init__(self, dim: int, std: float = 1.0):
        if dim < 1:
            raise ConfigError(f"gaussian dim must be >= 1, got {dim}")
        if not 0 < std < np.inf:
            raise ConfigError(f"gaussian std must be positive and finite, got {std}")
        self.dim = int(dim)
        self.std = float(std)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.std * rng.standard_normal((n, self.dim))

    def moments(self):
        return np.zeros(self.dim), self.std**2 * np.eye(self.dim)


class GaussianMixtureData:
    """Equal-weight isotropic mixture; component means are drawn from layout seed 0
    and centered exactly."""

    kind = "gaussian-mixture"

    def __init__(self, dim: int, components: int = 4, spread: float = 2.0,
                 component_std: float = 0.5):
        if dim < 1:
            raise ConfigError(f"mixture dim must be >= 1, got {dim}")
        if components < 2:
            raise ConfigError("mixture needs at least 2 components")
        self.dim = int(dim)
        self.components = int(components)
        self.component_std = float(component_std)
        means = spread * np.random.default_rng(0).standard_normal((components, dim))
        self.means = means - means.mean(axis=0)  # exact zero mixture mean

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        labels = rng.integers(0, self.components, size=n)
        return self.means[labels] + self.component_std * rng.standard_normal((n, self.dim))

    def moments(self):
        cov = self.component_std**2 * np.eye(self.dim)
        cov += (self.means.T @ self.means) / self.components
        return np.zeros(self.dim), cov


class CheckerboardData:
    """Alternating 2-D cells scaled to the unit box, zero mean by symmetry."""

    kind = "checkerboard"
    dim = 2

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        x = rng.uniform(-2.0, 2.0, size=n)
        y = rng.uniform(0.0, 1.0, size=n) - rng.integers(0, 2, size=n) * 2.0
        y = y + np.floor(x) % 2.0
        return np.stack([x, y], axis=1) / 2.0

    def moments(self):
        return None


class TwoMoonsData:
    """Two interleaved half circles, mean-centered and box-scaled."""

    kind = "two-moons"
    dim = 2
    # analytic mean of the noiseless construction, removed before scaling
    _center = np.array([0.5, 0.25])
    _scale = 1.5

    def __init__(self, noise: float = 0.05):
        self.noise = float(noise)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lower = rng.integers(0, 2, size=n).astype(bool)
        theta = rng.uniform(0.0, np.pi, size=n)
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        pts[lower] = np.array([1.0, 0.5]) - pts[lower]
        pts += self.noise * rng.standard_normal((n, 2))
        return (pts - self._center) / self._scale

    def moments(self):
        return None


DATASETS = {cls.kind: cls for cls in (GaussianData, GaussianMixtureData, CheckerboardData,
                                      TwoMoonsData)}


def make_dataset(spec: dict):
    """Build a dataset from a config block, checked against its kind's constructor."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("dataset block must be a mapping with a 'kind' field")
    spec = dict(spec)
    kind = spec.pop("kind")
    cls = DATASETS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown dataset kind {kind!r}; expected one of {tuple(DATASETS)}")
    return cls(**validated(f"{kind} dataset", params_of(cls), spec))
