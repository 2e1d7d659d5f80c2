"""Dataset generators: normalization, moments, config parsing."""

import numpy as np
import pytest

from flowlag.datasets import (
    CheckerboardData,
    GaussianData,
    GaussianMixtureData,
    TwoMoonsData,
    make_dataset,
)
from flowlag.errors import ConfigError

ALL = [
    GaussianData(dim=64),
    GaussianMixtureData(dim=16, components=5),
    CheckerboardData(),
    TwoMoonsData(),
]


@pytest.mark.parametrize("dataset", ALL, ids=lambda d: d.kind)
def test_zero_mean_normalization(dataset):
    """Sample mean over 1e5 draws stays within 0.01 sqrt(D)."""
    rng = np.random.default_rng(0)
    x = dataset.sample(100_000, rng)
    assert x.shape == (100_000, dataset.dim)
    assert np.linalg.norm(x.mean(axis=0)) < 0.01 * np.sqrt(dataset.dim)


def test_gaussian_moments():
    d = GaussianData(dim=3, std=2.0)
    mean, cov = d.moments()
    np.testing.assert_array_equal(mean, np.zeros(3))
    np.testing.assert_array_equal(cov, 4.0 * np.eye(3))


def test_mixture_moments_match_samples():
    d = GaussianMixtureData(dim=4, components=3, spread=1.5, component_std=0.4)
    mean, cov = d.moments()
    np.testing.assert_allclose(mean, np.zeros(4), atol=1e-12)
    x = d.sample(400_000, np.random.default_rng(1))
    np.testing.assert_allclose(x.mean(axis=0), mean, atol=0.02)
    emp_cov = np.cov(x, rowvar=False)
    np.testing.assert_allclose(emp_cov, cov, atol=0.03)


def test_checkerboard_occupies_alternating_cells():
    x = CheckerboardData().sample(50_000, np.random.default_rng(2))
    assert np.all(np.abs(x) <= 1.0)
    # cells on a 4x4 grid over [-1,1]^2 are either full or empty
    ix = np.floor((x[:, 0] + 1.0) * 2).astype(int).clip(0, 3)
    iy = np.floor((x[:, 1] + 1.0) * 2).astype(int).clip(0, 3)
    counts = np.zeros((4, 4))
    np.add.at(counts, (ix, iy), 1)
    occupied = counts > 0
    assert occupied.sum() == 8
    assert np.all(occupied == (np.add.outer(np.arange(4), np.arange(4)) % 2 == 0))


def test_two_moons_shape():
    x = TwoMoonsData(noise=0.0).sample(20_000, np.random.default_rng(3))
    # all points sit near one of the two unit half-circles
    upper = x * TwoMoonsData._scale + TwoMoonsData._center
    r_up = np.linalg.norm(upper, axis=1)
    r_lo = np.linalg.norm(upper - np.array([1.0, 0.5]), axis=1)
    assert np.all((np.abs(r_up - 1.0) < 1e-9) | (np.abs(r_lo - 1.0) < 1e-9))


class TestMakeDataset:
    def test_parses_each_kind(self):
        assert make_dataset({"kind": "gaussian", "dim": 8}).dim == 8
        assert make_dataset({"kind": "gaussian-mixture", "dim": 4}).components == 4
        assert make_dataset({"kind": "checkerboard"}).dim == 2
        assert make_dataset({"kind": "two-moons", "noise": 0.1}).noise == 0.1

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_dataset({"kind": "spiral"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            make_dataset({"kind": "gaussian", "dim": 4, "scale": 2.0})

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigError):
            make_dataset({"kind": "gaussian"})

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_dataset({"kind": "gaussian", "dim": 0})
        with pytest.raises(ConfigError):
            make_dataset({"kind": "gaussian", "dim": 2, "std": -1.0})

    @pytest.mark.parametrize("block", [{"kind": "gaussian", "dim": 4.7},
                                       {"kind": "gaussian", "dim": True},
                                       {"kind": "gaussian", "dim": 4, "std": "2"},
                                       {"kind": "two-moons", "noise": "0.1"},
                                       {"kind": "gaussian-mixture", "dim": 0},
                                       {"kind": "gaussian-mixture", "dim": 4, "layout_seed": 1},
                                       {"kind": "checkerboard", "dim": 2},
                                       {"kind": ["gaussian"], "dim": 4}])
    def test_ill_typed_or_out_of_range_field_rejected(self, block):
        """Each field must have its constructor argument's JSON type and range."""
        with pytest.raises(ConfigError):
            make_dataset(block)

    def test_integer_serves_as_float(self):
        assert make_dataset({"kind": "gaussian", "dim": 3, "std": 2}).std == 2.0
