"""Moment fitting, matrix square roots, Fréchet distances, lag tracking."""

import numpy as np
import pytest

from flowlag.datasets import GaussianData
from flowlag.diagnostics import (
    FldReport,
    MomentStats,
    frechet_gaussian,
    gaussian_reference,
    lag_improvement,
    norm_profile,
    reference_from_dataset,
    split_half_fld,
    sqrtm_psd,
    track_fld,
)
from flowlag.errors import CheckFailedError
from flowlag.gaussian_oracle import OracleField
from flowlag.interpolant import LinearPath
from flowlag.nn import Mlp
from flowlag.solver import SolverSpec, integrate

LINEAR = LinearPath()


class TestSqrtm:
    def test_identity(self):
        np.testing.assert_array_equal(sqrtm_psd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(sqrtm_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                                   rtol=1e-15)

    def test_random_psd_reconstruction(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((32, 32))
        m = a.T @ a
        s = sqrtm_psd(m)
        assert np.linalg.norm(s @ s - m) <= 1e-8 * np.linalg.norm(m)
        np.testing.assert_allclose(s, s.T, atol=1e-12)

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            sqrtm_psd(m)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            sqrtm_psd(np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        """NaN passes every `x > bound` check, so one non-finite entry is refused before
        the eigendecomposition rather than giving an all-NaN root."""
        m = np.diag([4.0, 9.0, 1.0])
        m[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            sqrtm_psd(m)

    def test_reconstruction_is_always_checked(self, monkeypatch):
        """A slightly scaled eigenbasis gives a root whose square misses m by 4e-6 ||m||."""
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (eigh(m)[0], eigh(m)[1] * (1 + 1e-6)))
        with pytest.raises(CheckFailedError, match="reconstruction"):
            sqrtm_psd(np.diag([4.0, 9.0]))

    def test_tiny_negative_clipped(self):
        m = np.diag([1.0, -1e-12])
        s = sqrtm_psd(m)
        assert s[1, 1] == 0.0

    def test_verify_flag_checks_every_report_matrix(self):
        rng = np.random.default_rng(7)
        batch = rng.standard_normal((256, 6))
        report = track_fld(((1.0,), [batch]), gaussian_reference(6), "analytic")
        assert report.values[0] >= 0.0


class TestFrechet:
    def test_identical_stats_give_zero(self):
        rng = np.random.default_rng(1)
        a = MomentStats.from_samples(rng.standard_normal((500, 4)))
        assert frechet_gaussian(a, a) == 0.0

    def test_one_dim_mean_shift(self):
        a = MomentStats(np.array([0.0]), np.array([[1.0]]), 0)
        b = MomentStats(np.array([1.0]), np.array([[1.0]]), 0)
        np.testing.assert_allclose(frechet_gaussian(a, b), 1.0, atol=1e-9)

    def test_one_dim_variance_gap(self):
        a = MomentStats(np.array([0.0]), np.array([[1.0]]), 0)
        b = MomentStats(np.array([0.0]), np.array([[4.0]]), 0)
        np.testing.assert_allclose(frechet_gaussian(a, b), 1.0, atol=1e-9)

    def test_diagonal_closed_form(self):
        rng = np.random.default_rng(2)
        la, lb = rng.uniform(0.5, 3.0, 6), rng.uniform(0.5, 3.0, 6)
        mu_a, mu_b = rng.standard_normal(6), rng.standard_normal(6)
        a = MomentStats(mu_a, np.diag(la), 0)
        b = MomentStats(mu_b, np.diag(lb), 0)
        expected = float(((mu_a - mu_b) ** 2).sum() + ((np.sqrt(la) - np.sqrt(lb)) ** 2).sum())
        np.testing.assert_allclose(frechet_gaussian(a, b), expected, atol=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        xa = rng.standard_normal((300, 5))
        xb = 1.5 * rng.standard_normal((300, 5)) + 0.3
        a, b = MomentStats.from_samples(xa), MomentStats.from_samples(xb)
        ab, ba = frechet_gaussian(a, b), frechet_gaussian(b, a)
        assert abs(ab - ba) < 1e-6
        assert ab >= 0.0

    def test_dim_mismatch(self):
        a = gaussian_reference(3)
        b = gaussian_reference(4)
        with pytest.raises(ValueError):
            frechet_gaussian(a, b)


class TestNormProfile:
    def test_constant_field_profile(self):
        ds = GaussianData(dim=8)
        k = 2.0
        field = lambda x, t: np.tile(np.array([k] + [0.0] * 7), (len(x), 1))
        prof = norm_profile(field, LINEAR, ds, np.linspace(0.1, 0.9, 5), n_samples=1000, seed=0)
        np.testing.assert_allclose(prof.mean, k, rtol=1e-12)
        np.testing.assert_allclose(prof.std, 0.0, atol=1e-12)

    def test_oracle_profile_shape(self):
        """Midpoint collapses to zero and endpoints sit near sqrt(D)."""
        D = 64
        spec = GaussianData(dim=D)
        ds = GaussianData(dim=D)
        field = OracleField(spec, LINEAR)
        times = np.array([0.001, 0.5, 0.999])
        prof = norm_profile(field, LINEAR, ds, times, n_samples=8192, seed=1)
        assert prof.mean[1] < 0.05 * np.sqrt(D)
        np.testing.assert_allclose(prof.mean[[0, 2]], np.sqrt(D), rtol=0.03)
        np.testing.assert_allclose(prof.target_rms, np.sqrt(2 * D), rtol=0.05)

    def test_requires_enough_samples(self):
        ds = GaussianData(dim=2)
        with pytest.raises(ValueError):
            norm_profile(lambda x, t: x, LINEAR, ds, [0.5], n_samples=10, seed=0)


class TestTrackFld:
    def _trajectory(self, data_std=2.0, nfe=400, n=4096, method="euler"):
        spec = GaussianData(dim=16, std=data_std)
        field = OracleField(spec, LINEAR)
        sspec = SolverSpec(method=method, nfe=nfe, checkpoints=(0.2, 0.4, 0.6, 0.8, 1.0))
        return integrate(field, sspec, dim=16, n_particles=n, seed=4, interp=LINEAR)

    def test_reference_samples_sit_below_split_half_floor(self):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((8192, 16))
        floor = split_half_fld(samples)
        report = track_fld(((1.0,), [samples]), gaussian_reference(16), "analytic")
        assert report.values[0] < floor

    def test_converging_flow_is_monotone_toward_expanding_target(self):
        """With data_std > 1 the marginal moves monotonically outward from
        t=0.2 on, so distance to target must decrease checkpoint over
        checkpoint."""
        traj = self._trajectory(data_std=2.0)
        report = track_fld(traj, gaussian_reference(16, std=2.0), "analytic")
        assert np.all(np.diff(report.values) < 0.0)
        assert report.terminal < 0.2

    def test_accepts_loaded_container_tuples(self, tmp_path):
        from flowlag.solver import load_trajectory, save_trajectory

        traj = self._trajectory(nfe=50, n=512)
        save_trajectory(tmp_path / "t.bin", traj)
        loaded = load_trajectory(tmp_path / "t.bin")
        report = track_fld(loaded, gaussian_reference(16, std=2.0), "analytic")
        direct = track_fld(traj, gaussian_reference(16, std=2.0), "analytic")
        np.testing.assert_allclose(report.values, direct.values, rtol=1e-3, atol=1e-3)

    @pytest.mark.parametrize("method", ["euler", "heun"])
    @pytest.mark.parametrize("field_kind", ["oracle-float64", "mlp-float32"])
    def test_recorded_moments_score_as_the_batches(self, field_kind, method):
        """track_fld of a run recorded with MomentStats.from_samples equals, bit for bit,
        track_fld of the same run recorded as batch copies."""
        field = (OracleField(GaussianData(dim=16, std=2.0), LINEAR)
                 if field_kind == "oracle-float64"
                 else Mlp.create(16, hidden=(32, 32), rng=np.random.default_rng(5),
                                 dtype=np.float32).forward)
        spec = SolverSpec(method=method, nfe=8, checkpoints=(0.0, 0.5, 1.0))
        copied, reduced = (
            track_fld(integrate(field, spec, dim=16, n_particles=600, seed=3, interp=LINEAR,
                                record=record), gaussian_reference(16, std=2.0), "analytic")
            for record in (np.copy, MomentStats.from_samples))
        assert reduced.times == copied.times
        assert reduced.values.tobytes() == copied.values.tobytes()

    def test_small_batch_warns(self):
        rng = np.random.default_rng(6)
        batch = rng.standard_normal((10, 16))
        with pytest.warns(UserWarning, match="rank-deficient"):
            track_fld(((1.0,), [batch]), gaussian_reference(16), "analytic")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_node_is_refused_by_its_time(self, bad):
        batches = [np.random.default_rng(7).standard_normal((64, 16)) for _ in range(3)]
        batches[1][3, 5] = bad
        with pytest.raises(ValueError, match="non-finite moments at node t=0.4"):
            track_fld(((0.2, 0.4, 1.0), batches), gaussian_reference(16), "analytic")

    def test_report_invariants(self):
        with pytest.raises(ValueError):
            FldReport(times=(0.5, 1.0), values=np.array([1.0]), reference_id="x")
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError):
                FldReport(times=(0.5, 1.0), values=np.array([0.2, bad]), reference_id="x")
        # malformed times, as trajectory files refuse them, and a report of no checkpoint
        for times in ((np.nan, 1.0), (0.9, 0.5), (0.5, 1.5), ()):
            with pytest.raises(ValueError):
                FldReport(times=times, values=np.full(len(times), 0.2), reference_id="x")


class TestLagImprovement:
    def _report(self, values, ref="target"):
        return FldReport(times=(0.5, 1.0), values=np.asarray(values, dtype=float),
                         reference_id=ref)

    def test_identical_reports_give_zero(self):
        base = self._report([2.0, 1.0])
        np.testing.assert_array_equal(lag_improvement(base, base), np.zeros(2))

    def test_perfect_correction_gives_one(self):
        base = self._report([2.0, 1.0])
        fixed = self._report([0.0, 0.0])
        np.testing.assert_array_equal(lag_improvement(base, fixed), np.ones(2))

    def test_grid_mismatch_rejected(self):
        base = self._report([2.0, 1.0])
        other = FldReport(times=(0.25, 1.0), values=np.array([2.0, 1.0]), reference_id="target")
        with pytest.raises(ValueError):
            lag_improvement(base, other)
        with pytest.raises(ValueError):
            lag_improvement(base, self._report([2.0, 1.0], ref="other"))


class TestReferences:
    def test_analytic_reference_from_dataset(self):
        ref = reference_from_dataset(GaussianData(dim=4, std=2.0))
        assert ref.n_samples == 0
        np.testing.assert_array_equal(ref.cov, 4.0 * np.eye(4))

    def test_empirical_reference_accumulates_8192(self):
        from flowlag.datasets import CheckerboardData

        ref = reference_from_dataset(CheckerboardData())
        assert ref.n_samples == 8192
        assert ref.dim == 2
