"""Objectives, weight schedules, and the training loop contract."""

import json

import numpy as np
import pytest

from flowlag.errors import ConfigError, TrainingDivergedError
from flowlag.interpolant import LinearPath, make_interpolant
from flowlag.nn import Mlp
from flowlag.training import (
    TrainConfig,
    mafm_loss,
    mafm_weight,
    sample_batch,
    train,
)
from flowlag.datasets import GaussianData

LINEAR = LinearPath()


def tiny_net(dim=3, seed=0):
    return Mlp.create(dim=dim, hidden=(6, 5), rng=np.random.default_rng(seed), n_time_pairs=2)


def tiny_batch(dim=3, b=8, seed=1):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((b, dim)), rng.standard_normal((b, dim)),
            rng.uniform(0, 1, b))


class TestMafmWeight:
    def test_linear_at_zero(self):
        assert mafm_weight(0.0, "linear", 0.2) == 0.2

    @pytest.mark.parametrize("shape", ["linear", "cosine", "quad-in", "quad-out"])
    def test_vanishes_at_one(self, shape):
        np.testing.assert_allclose(mafm_weight(1.0, shape, 0.2), 0.0, atol=1e-16)

    def test_quad_in_calibrated_amplitude(self):
        # integral of (1 - t^2) is 2/3, so the amplitude is (lam0/2) / (2/3)
        np.testing.assert_allclose(mafm_weight(0.0, "quad-in", 0.2), 0.15, rtol=1e-15)

    @pytest.mark.parametrize("shape", ["linear", "cosine", "quad-in", "quad-out"])
    def test_shared_integral(self, shape):
        t = np.linspace(0.0, 1.0, 200_001)
        area = np.trapezoid(mafm_weight(t, shape, 0.2), t)
        np.testing.assert_allclose(area, 0.1, atol=1e-6)

    def test_nonnegative_everywhere(self):
        t = np.linspace(0, 1, 101)
        for shape in ("linear", "cosine", "quad-in", "quad-out"):
            assert np.all(mafm_weight(t, shape, 0.2) >= 0.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            mafm_weight(0.5, "step", 0.2)
        with pytest.raises(ValueError):
            mafm_weight(0.5, "linear", -0.1)
        with pytest.raises(ValueError):
            mafm_weight(1.5, "linear", 0.2)
        with pytest.raises(ValueError):
            mafm_weight([0.5, np.nan], "linear", 0.2)

    @pytest.mark.parametrize("shape", ["linear", "cosine", "quad-in", "quad-out"])
    def test_is_the_scaled_schedule_bump(self, shape):
        """Each weight is lam0/2 over the bump's area times the solver's bump, bit for bit."""
        t = np.linspace(0.0, 1.0, 1001)
        expected = {"linear": 0.2 * (1.0 - t), "cosine": 0.2 * 0.5 * (1.0 + np.cos(np.pi * t)),
                    "quad-in": 0.75 * 0.2 * (1.0 - t * t),
                    "quad-out": 1.5 * 0.2 * (1.0 - t) ** 2}[shape]
        np.testing.assert_array_equal(mafm_weight(t, shape, 0.2), expected)


class TestFmLoss:
    def test_zero_net_loss_is_mean_displacement_energy(self):
        net = tiny_net()
        net.weights[-1][:] = 0.0
        net.biases[-1][:] = 0.0
        x0, x1, t = tiny_batch()
        loss, _, parts = mafm_loss(net, LINEAR, x0, x1, t, lam0=0.0)
        expected = float(np.mean(np.sum((x1 - x0) ** 2, axis=1)))
        np.testing.assert_allclose(loss, expected, rtol=1e-12)
        assert parts.magnitude_term == 0.0

    def test_matches_explicit_loop(self):
        net = tiny_net(seed=4)
        x0, x1, t = tiny_batch(seed=5)
        loss, _, _ = mafm_loss(net, LINEAR, x0, x1, t, lam0=0.0)
        acc = 0.0
        for i in range(len(t)):
            xt = LINEAR.sample_xt(x0[i], x1[i], t[i])
            v = net.forward(xt, t[i])
            resid = v - (x1[i] - x0[i])
            acc += float(resid @ resid)
        np.testing.assert_allclose(loss, acc / len(t), rtol=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            mafm_loss(tiny_net(), LINEAR, np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0),
                      lam0=0.0)

    def test_gradients_match_finite_differences(self):
        net = tiny_net(seed=6)
        x0, x1, t = tiny_batch(seed=7)
        _, grads, _ = mafm_loss(net, LINEAR, x0, x1, t, lam0=0.0)
        rng = np.random.default_rng(8)
        for key in sorted(grads):
            p = net.parameters()[key]
            idx = int(rng.integers(p.size))
            eps = 1e-6
            orig = p.flat[idx]
            p.flat[idx] = orig + eps
            up, _, _ = mafm_loss(net, LINEAR, x0, x1, t, lam0=0.0)
            p.flat[idx] = orig - eps
            down, _, _ = mafm_loss(net, LINEAR, x0, x1, t, lam0=0.0)
            p.flat[idx] = orig
            fd = (up - down) / (2 * eps)
            assert abs(grads[key].flat[idx] - fd) <= 1e-4 * max(1.0, abs(fd))


class TestMafmLoss:
    def test_reduces_to_fm_at_t_one(self):
        net = tiny_net(seed=9)
        rng = np.random.default_rng(10)
        x0 = rng.standard_normal((6, 3))
        x1 = rng.standard_normal((6, 3))
        t = np.ones(6)
        total, _, parts = mafm_loss(net, LINEAR, x0, x1, t, lam0=0.2)
        fm_only, _, _ = mafm_loss(net, LINEAR, x0, x1, t, lam0=0.0)
        np.testing.assert_allclose(total, fm_only, rtol=1e-15)
        assert parts.magnitude_term == 0.0

    def test_zero_norm_prediction_uses_zero_subgradient(self):
        """Zero net on coincident endpoints: loss and gradients are exactly zero."""
        net = tiny_net(seed=11)
        net.weights[-1][:] = 0.0
        net.biases[-1][:] = 0.0
        x = np.random.default_rng(12).standard_normal((4, 3))
        t = np.full(4, 0.25)
        total, grads, parts = mafm_loss(net, LINEAR, x, x, t, lam0=0.2)
        assert total == 0.0 and parts.magnitude_term == 0.0
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_matches_explicit_loop(self):
        net = tiny_net(seed=13)
        x0, x1, t = tiny_batch(seed=14)
        total, _, parts = mafm_loss(net, LINEAR, x0, x1, t, lam0=0.2, shape="linear")
        acc_fm, acc_mag = 0.0, 0.0
        for i in range(len(t)):
            xt = LINEAR.sample_xt(x0[i], x1[i], t[i])
            v = net.forward(xt, t[i])
            resid = v - (x1[i] - x0[i])
            acc_fm += float(resid @ resid)
            lam = 0.2 * (1.0 - t[i])
            gap = np.linalg.norm(v) - np.linalg.norm(x1[i] - x0[i])
            acc_mag += float(lam * gap * gap)
        np.testing.assert_allclose(parts.fm_term, acc_fm / len(t), rtol=1e-12)
        np.testing.assert_allclose(parts.magnitude_term, acc_mag / len(t), rtol=1e-12)
        np.testing.assert_allclose(total, (acc_fm + acc_mag) / len(t), rtol=1e-12)

    @pytest.mark.parametrize("shape", ["linear", "cosine", "quad-in", "quad-out"])
    def test_gradients_through_norm_term(self, shape):
        """Finite differences across all parameter blocks, incl. the speed penalty."""
        net = tiny_net(seed=15)
        x0, x1, t = tiny_batch(seed=16)
        _, grads, _ = mafm_loss(net, LINEAR, x0, x1, t, lam0=0.2, shape=shape)
        rng = np.random.default_rng(17)
        for key in sorted(grads):
            p = net.parameters()[key]
            idx = int(rng.integers(p.size))
            eps = 1e-6
            orig = p.flat[idx]
            p.flat[idx] = orig + eps
            up, _, _ = mafm_loss(net, LINEAR, x0, x1, t, lam0=0.2, shape=shape)
            p.flat[idx] = orig - eps
            down, _, _ = mafm_loss(net, LINEAR, x0, x1, t, lam0=0.2, shape=shape)
            p.flat[idx] = orig
            fd = (up - down) / (2 * eps)
            assert abs(grads[key].flat[idx] - fd) <= 1e-4 * max(1.0, abs(fd))

    def test_path_magnitude_target_flag(self):
        net = tiny_net(seed=18)
        x0, x1, t = tiny_batch(seed=19)
        gvp = make_interpolant("gvp")
        lit, _, _ = mafm_loss(net, gvp, x0, x1, t, magnitude_target="displacement")
        alt, _, _ = mafm_loss(net, gvp, x0, x1, t, magnitude_target="path")
        assert lit != alt  # the flag changes the speed target on curved paths
        with pytest.raises(ValueError):
            mafm_loss(net, gvp, x0, x1, t, magnitude_target="norm")


class TestSampleBatch:
    def test_positional_independent_coupling(self):
        """x1 comes from the data stream alone; no pairing rule sees x0."""
        ds = GaussianData(dim=4)
        rng1 = np.random.default_rng(21)
        x0, x1, t = sample_batch(ds, LINEAR, 64, rng1)
        rng2 = np.random.default_rng(21)
        x1_alone = ds.sample(64, rng2)
        np.testing.assert_array_equal(x1, x1_alone)
        assert x0.shape == (64, 4) and t.shape == (64,)
        assert np.all((t >= 0) & (t < 1))

    def test_vp_time_clip(self):
        ds = GaussianData(dim=2)
        vp = make_interpolant("vp")
        _, _, t = sample_batch(ds, vp, 20_000, np.random.default_rng(22))
        assert t.max() <= 1.0 - 1e-3


class TestTrainConfig:
    def test_round_trip(self):
        """A JSON list for hidden is kept as a tuple and written back as a list."""
        cfg = TrainConfig(dataset={"kind": "gaussian", "dim": 4}, steps=10, hidden=[8, 8])
        assert cfg.hidden == (8, 8)
        assert cfg.to_dict()["hidden"] == [8, 8]
        assert TrainConfig(**cfg.to_dict()) == cfg

    def test_field_validation(self):
        base = {"kind": "gaussian", "dim": 4}
        with pytest.raises(ConfigError):
            TrainConfig(dataset=base, loss="mse")
        with pytest.raises(ConfigError):
            TrainConfig(dataset=base, lr_schedule="step")
        with pytest.raises(ConfigError):
            TrainConfig(dataset=base, steps=0)
        with pytest.raises(ConfigError):
            TrainConfig(dataset=base, path="spline")
        with pytest.raises(ConfigError):
            TrainConfig(dataset=base, precision="float16")
        with pytest.raises(ConfigError):  # refused up front, even for fm, which never uses it
            TrainConfig(dataset=base, magnitude_target="norm")


class TestTrainLoop:
    def _config(self, **kw):
        base = dict(dataset={"kind": "gaussian", "dim": 4}, steps=60, batch_size=32,
                    hidden=(16, 16), log_every=20, seed=5)
        base.update(kw)
        return TrainConfig(**base)

    def test_deterministic_given_seed(self):
        a = train(self._config())
        b = train(self._config())
        assert a.history == b.history
        for k, p in a.net.parameters().items():
            np.testing.assert_array_equal(p, b.net.parameters()[k])

    def test_loss_approaches_floor(self):
        """Excess over the irreducible floor (D pi/2 here) at least halves."""
        cfg = self._config(steps=800, log_every=50)
        res = train(cfg)
        first, last = res.history[0][3], res.history[-1][3]
        floor = 4 * np.pi / 2
        assert last - floor < 0.5 * (first - floor)

    def test_artifacts_written(self, tmp_path):
        cfg = self._config(steps=40, log_every=10, profile_every=20)
        res = train(cfg, out_dir=tmp_path)
        assert (tmp_path / "loss.csv").exists()
        assert (tmp_path / "checkpoint.npz").exists()
        assert (tmp_path / "norm_profile_20.csv").exists()
        assert (tmp_path / "norm_profile_40.csv").exists()
        header = (tmp_path / "loss.csv").read_text().splitlines()[0]
        assert header == "step,fm_term,magnitude_term,total"
        assert res.checkpoint_path == tmp_path / "checkpoint.npz"

    def test_mafm_history_has_magnitude_term(self):
        res = train(self._config(loss="mafm", steps=30, log_every=10))
        assert any(row[2] > 0.0 for row in res.history)

    def test_cosine_lr_schedule_anneals(self):
        res = train(self._config(steps=50, lr_schedule="cosine"))
        assert res.optimizer.lr == pytest.approx(0.01 * res.config.learning_rate)

    def test_divergence_aborts_with_snapshot(self, tmp_path):
        cfg = self._config(steps=50, learning_rate=1e30, precision="float32")
        with pytest.raises(TrainingDivergedError) as exc:
            train(cfg, out_dir=tmp_path)
        assert exc.value.step <= 50
        assert (tmp_path / "divergence.json").exists()

    def test_fm_divergence_has_no_magnitude_term(self, tmp_path):
        """An fm run carries no speed penalty, so an overflowing output cannot make it NaN."""
        cfg = self._config(steps=50, learning_rate=1e30, precision="float32")
        with pytest.raises(TrainingDivergedError):
            train(cfg, out_dir=tmp_path)
        snapshot = json.loads((tmp_path / "divergence.json").read_text())
        assert snapshot["magnitude_term"] == 0.0

    def test_terminal_loss_near_irreducible_floor(self):
        """The regression floor is the integrated conditional variance.

        For the straight path with unit-variance data the floor is
        D * pi / 2; a converged net should sit within 20% of it.
        """
        cfg = TrainConfig(dataset={"kind": "gaussian", "dim": 16}, steps=5000,
                          batch_size=128, hidden=(64, 64), log_every=100, seed=3)
        res = train(cfg)
        tail = [row[3] for row in res.history[-10:]]
        floor = 16 * np.pi / 2
        assert abs(np.mean(tail) - floor) < 0.2 * floor
