"""Schedule algebra, corrected steppers, convergence orders, trajectory IO."""

import dataclasses
import math
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from flowlag.datasets import GaussianData
from flowlag.diagnostics import MomentStats, gaussian_reference, track_fld
from flowlag.errors import ConfigError, NonFiniteVelocityError
from flowlag.gaussian_oracle import OracleField
from flowlag.interpolant import LinearPath, make_interpolant
from flowlag.nn import Mlp
from flowlag.rng import rng_for
from flowlag.solver import (
    _BLOCK_ROWS,
    IDENTITY_SCHEDULE,
    SCHEDULE_SHAPES,
    SOLVER_METHODS,
    ScaleSchedule,
    SolverSpec,
    Trajectory,
    calibrate_s_start,
    em_step,
    euler_step,
    heun_step,
    integrate,
    load_trajectory,
    parse_schedule,
    save_trajectory,
    scaled_velocity,
)

LINEAR = LinearPath()


class TestScaleSchedule:
    def test_linear_midpoint(self):
        s = ScaleSchedule("linear", 1.1, 1.0)
        np.testing.assert_allclose(float(s.gamma(0.5)), 1.05, rtol=1e-15)

    @pytest.mark.parametrize("shape", ["linear", "cosine", "quad-in", "quad-out"])
    def test_endpoints_exact(self, shape):
        s = ScaleSchedule(shape, 1.17, 0.93)
        assert float(s.gamma(0.0)) == 1.17
        assert float(s.gamma(1.0)) == 0.93

    @pytest.mark.parametrize("shape", ["linear", "cosine", "quad-in", "quad-out"])
    def test_equal_endpoints_give_exactly_one(self, shape):
        """Equal endpoints s give exactly s at every t, scalar or array: the one
        formula serves the identity (s = 1) and every constant scale."""
        t = np.linspace(0.0, 1.0, 1001)
        for value in (0.0, 0.5, 1.0, 1.05, 3.0):
            s = ScaleSchedule(shape, value, value)
            g = s.gamma(t)
            assert g.dtype == np.float64 and np.all(g == value)
            for scalar in (0.0, 0.3, 1.0):
                assert type(s.gamma(scalar)) is np.float64 and s.gamma(scalar) == value

    @pytest.mark.parametrize("shape", ["linear", "cosine", "quad-in", "quad-out"])
    def test_continuous(self, shape):
        s = ScaleSchedule(shape, 1.2, 0.9)
        t = np.linspace(0.0, 1.0, 20001)
        g = s.gamma(t)
        assert np.abs(np.diff(g)).max() < 1e-3

    def test_quad_in_calibrated_area(self):
        s = ScaleSchedule("quad-in", 1.075, 1.0)
        np.testing.assert_allclose(s.area(), 1.05, atol=1e-15)

    @pytest.mark.parametrize("shape,s_start", [
        ("linear", 1.10), ("quad-in", 1.075), ("quad-out", 1.15), ("cosine", 1.10)])
    def test_calibration_table(self, shape, s_start):
        got = calibrate_s_start(shape, s_end=1.0, target_area=1.05)
        np.testing.assert_allclose(got, s_start, atol=1e-9)

    @pytest.mark.parametrize("shape", ["linear", "cosine", "quad-in", "quad-out"])
    def test_area_roundtrip_against_quadrature(self, shape):
        s_start = calibrate_s_start(shape, s_end=1.0, target_area=1.05)
        sched = ScaleSchedule(shape, s_start, 1.0)
        np.testing.assert_allclose(sched.area(), 1.05, atol=1e-9)
        t = np.linspace(0.0, 1.0, 200_001)
        quad = np.trapezoid(sched.gamma(t), t)
        np.testing.assert_allclose(quad, 1.05, atol=1e-6)

    def test_infeasible_calibration(self):
        with pytest.raises(ValueError):
            calibrate_s_start("linear", s_end=0.0, target_area=-1.0)
        for s_end, area in ((np.nan, 1.0), (1.0, np.nan), (1.0, np.inf)):
            with pytest.raises(ConfigError):
                calibrate_s_start("linear", s_end=s_end, target_area=area)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ScaleSchedule("exp", 1.1, 1.0)
        with pytest.raises(ConfigError):
            ScaleSchedule("linear", -0.1, 1.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigError):
                ScaleSchedule("linear", bad, 1.0)
            with pytest.raises(ConfigError):
                ScaleSchedule("linear", 1.1, bad)
        with pytest.raises(ConfigError):
            ScaleSchedule("constant-one", 1.1, 1.0)
        with pytest.raises(ValueError):
            ScaleSchedule("linear", 1.1, 1.0).gamma(1.5)

    def test_constant_one_is_a_name_not_a_shape(self):
        """'constant-one' names linear 1 -> 1; as a shape it is unknown, and the
        message lists the four decay shapes."""
        assert parse_schedule("constant-one") == parse_schedule("linear:1.0:1.0") \
            == ScaleSchedule() == IDENTITY_SCHEDULE
        with pytest.raises(ConfigError) as err:
            ScaleSchedule("constant-one", 1.0, 1.0)
        assert all(shape in str(err.value) for shape in SCHEDULE_SHAPES)
        assert SCHEDULE_SHAPES == ("linear", "cosine", "quad-in", "quad-out")

    def test_parse_schedule(self):
        s = parse_schedule("linear:1.1:1.0")
        assert (s.shape, s.s_start, s.s_end) == ("linear", 1.1, 1.0)
        assert parse_schedule("constant-one") == IDENTITY_SCHEDULE
        with pytest.raises(ConfigError):
            parse_schedule("linear:1.1")
        with pytest.raises(ConfigError):
            parse_schedule("linear:a:b")


class TestScaledVelocity:
    def test_returns_the_field_output_and_gamma(self):
        """The field's own array, unscaled, and gamma(t) of the schedule given."""
        sched = ScaleSchedule("linear", 1.1, 1.0)
        v = np.arange(6.0).reshape(3, 2)
        out, gamma = scaled_velocity(lambda x, t: v, sched, v, 0.5)
        assert out is v
        assert gamma == float(sched.gamma(0.5)) and type(gamma) is float

    def test_literal_per_call_scaling(self):
        """The applied velocity is exactly gamma(t) * v, elementwise."""
        sched = ScaleSchedule("linear", 1.1, 1.0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((32, 8))
        field = lambda x, t: np.sin(x) + t
        for t in (0.0, 0.3, 0.7, 1.0):
            v, gamma = scaled_velocity(field, sched, x, t)
            v_hat = gamma * v
            np.testing.assert_array_equal(v_hat, float(sched.gamma(t)) * field(x, t))
            # norm homogeneity holds to rounding of the norm itself
            np.testing.assert_allclose(np.linalg.norm(v_hat, axis=1),
                                       float(sched.gamma(t)) * np.linalg.norm(v, axis=1),
                                       rtol=1e-14)

    def test_nonfinite_field_aborts_with_summary(self):
        bad = lambda x, t: np.full_like(x, np.nan)
        with pytest.raises(NonFiniteVelocityError) as exc:
            scaled_velocity(bad, IDENTITY_SCHEDULE, np.ones((2, 2)), 0.25)
        assert exc.value.t == 0.25
        assert exc.value.state_summary["n_bad"] == 4
        assert "returned 4 non-finite values at t=0.25 (max |x| 1)" in str(exc.value)

    @pytest.mark.parametrize("step", [euler_step, heun_step, em_step])
    def test_steps_evaluate_gamma_once_per_stage(self, step, monkeypatch):
        """Each field call costs one gamma evaluation, that of the step's schedule."""
        calls, gamma = [], ScaleSchedule.gamma
        monkeypatch.setattr(ScaleSchedule, "gamma",
                            lambda self, t: calls.append(self) or gamma(self, t))
        sched = ScaleSchedule("linear", 1.1, 1.0)
        field, x = (lambda x, t: -x), np.ones((4, 3))
        if step is em_step:
            em_step(field, sched, LinearPath(), x, 0.25, 0.25, np.random.default_rng(0))
        else:
            step(field, sched, x, 0.25, 0.25)
        assert calls == [sched] * (2 if step is heun_step else 1)


class TestSteps:
    def test_euler_identity_schedule_is_classic(self):
        field = lambda x, t: 2.0 * x
        x = np.ones((1, 3))
        np.testing.assert_array_equal(euler_step(field, IDENTITY_SCHEDULE, x.copy(), 0.1, 0.1),
                                      x + 0.1 * 2.0 * x)

    def test_euler_zero_field_fixes_state(self):
        field = lambda x, t: np.zeros_like(x)
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(euler_step(field, IDENTITY_SCHEDULE, x.copy(), 0.0, 0.5), x)

    def test_euler_one_step_oracle_jump(self):
        """One full-length step from pure noise lands at c(0) annihilation."""
        spec = GaussianData(dim=4, std=1.0)
        field = OracleField(spec, LINEAR)
        x0 = np.random.default_rng(1).standard_normal((8, 4))
        out = euler_step(field, IDENTITY_SCHEDULE, x0.copy(), 0.0, 1.0)
        np.testing.assert_allclose(out, np.zeros_like(x0), atol=1e-12)

    def test_heun_constant_field_matches_euler(self):
        field = lambda x, t: np.full_like(x, 3.0)
        x = np.zeros((2, 2))
        e = euler_step(field, IDENTITY_SCHEDULE, x.copy(), 0.2, 0.1)
        h = heun_step(field, IDENTITY_SCHEDULE, x.copy(), 0.2, 0.1)
        np.testing.assert_allclose(h, e, rtol=1e-15)

    def test_heun_schedule_quadrature(self):
        """Constant field: the step averages gamma at both stage times."""
        sched = ScaleSchedule("linear", 1.1, 1.0)
        k = 2.5
        field = lambda x, t: np.full_like(x, k)
        x = np.zeros((1, 1))
        t, dt = 0.3, 0.2
        out = heun_step(field, sched, x.copy(), t, dt)
        expected = k * dt * 0.5 * (float(sched.gamma(t)) + float(sched.gamma(t + dt)))
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_em_zero_diffusion_reduces_to_euler_bitwise(self):
        field = OracleField(GaussianData(dim=3, std=1.0), LINEAR)
        x0 = np.random.default_rng(2).standard_normal((16, 3))
        sched = ScaleSchedule("linear", 1.1, 1.0)

        def run(**rule):
            spec = SolverSpec(nfe=20, schedule=sched, checkpoints=(0.4, 1.0), **rule)
            return integrate(field, spec, dim=3, n_particles=16, interp=LINEAR, x0=x0).states

        for e, m in zip(run(method="euler"), run(method="euler-maruyama", diffusion="zero")):
            np.testing.assert_array_equal(m, e)

    def test_em_deterministic_given_rng(self):
        spec = GaussianData(dim=3)
        field = OracleField(spec, LINEAR)
        x = np.random.default_rng(3).standard_normal((8, 3))
        a = em_step(field, IDENTITY_SCHEDULE, LINEAR, x.copy(), 0.2, 0.1, np.random.default_rng(9))
        b = em_step(field, IDENTITY_SCHEDULE, LINEAR, x.copy(), 0.2, 0.1, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("schedule", [IDENTITY_SCHEDULE, ScaleSchedule("linear", 1.1, 1.0)],
                             ids=["identity", "linear"])
    @pytest.mark.parametrize("field", [lambda x, t: x, OracleField(GaussianData(dim=3), LINEAR)],
                             ids=["returns-input", "oracle"])
    def test_direct_steps_leave_state_unchanged(self, field, schedule):
        """A step called without buffers leaves no state but x: it returns x itself,
        holding the whole-array step of its value before the call."""
        x0 = np.random.default_rng(4).standard_normal((8, 3))
        for method in ("euler", "heun", "euler-maruyama"):
            x = x0.copy()
            out = _direct_step(method, field, schedule, x, 0.2, 0.1, np.random.default_rng(1))
            assert out is x
            np.testing.assert_array_equal(x, _reference_step(method, field, schedule, x0, 0.2, 0.1,
                                                             np.random.default_rng(1)))


class TestConvergenceOrder:
    """Euler is order 1, Heun order 2, on the exactly solvable oracle flow."""

    def _terminal_error(self, method, nfe):
        spec = GaussianData(dim=4, std=2.0)
        field = OracleField(spec, LINEAR)
        x0 = np.full((1, 4), 0.7)
        sspec = SolverSpec(method=method, nfe=nfe, schedule=IDENTITY_SCHEDULE,
                           checkpoints=(1.0,))
        traj = integrate(field, sspec, dim=4, n_particles=1, x0=x0)
        # exact flow scales by s(1)/s(0) = data_std
        return float(np.abs(traj.states[-1] - 2.0 * x0).max())

    @pytest.mark.parametrize("method,order", [("euler", 1.0), ("heun", 2.0)])
    def test_loglog_slope(self, method, order):
        nfes = np.array([8, 16, 32, 64, 128])
        errs = np.array([self._terminal_error(method, int(n)) for n in nfes])
        slope = np.polyfit(np.log(nfes), np.log(errs), 1)[0]
        assert abs(-slope - order) < 0.15, (method, slope, errs)


class TestIntegrate:
    def test_single_step_jump(self):
        spec = GaussianData(dim=4)
        field = OracleField(spec, LINEAR)
        sspec = SolverSpec(method="euler", nfe=1, checkpoints=(1.0,))
        traj = integrate(field, sspec, dim=4, n_particles=16, seed=5)
        np.testing.assert_allclose(traj.states[-1], np.zeros((16, 4)), atol=1e-12)

    def test_five_checkpoints_recorded(self):
        spec = GaussianData(dim=2)
        field = OracleField(spec, LINEAR)
        cps = (0.2, 0.4, 0.6, 0.8, 1.0)
        sspec = SolverSpec(method="euler", nfe=10, checkpoints=cps)
        traj = integrate(field, sspec, dim=2, n_particles=32, seed=1)
        assert traj.node_times == cps
        assert len(traj.states) == 5
        assert all(s.shape == (32, 2) for s in traj.states)

    def test_checkpoint_snaps_to_nearest_node(self):
        spec = GaussianData(dim=2)
        field = OracleField(spec, LINEAR)
        sspec = SolverSpec(method="euler", nfe=10, checkpoints=(0.33, 1.0))
        traj = integrate(field, sspec, dim=2, n_particles=4, seed=1)
        np.testing.assert_allclose(traj.node_times, (0.3, 1.0), atol=1e-15)

    def test_identity_schedule_equivalence_bitwise(self):
        """(1.0, 1.0) endpoints reproduce the uncorrected run exactly."""
        spec = GaussianData(dim=8)
        field = OracleField(spec, LINEAR)
        cps = (0.5, 1.0)
        for method in ("euler", "heun", "euler-maruyama"):
            a = integrate(field, SolverSpec(method=method, nfe=20, checkpoints=cps,
                                            schedule=ScaleSchedule("linear", 1.0, 1.0)),
                          dim=8, n_particles=64, seed=7, interp=LINEAR)
            b = integrate(field, SolverSpec(method=method, nfe=20, checkpoints=cps,
                                            schedule=IDENTITY_SCHEDULE),
                          dim=8, n_particles=64, seed=7, interp=LINEAR)
            for sa, sb in zip(a.states, b.states):
                np.testing.assert_array_equal(sa, sb)

    def test_deterministic_per_seed(self):
        spec = GaussianData(dim=4)
        field = OracleField(spec, LINEAR)
        sspec = SolverSpec(method="euler-maruyama", nfe=25, checkpoints=(1.0,))
        a = integrate(field, sspec, dim=4, n_particles=32, seed=3, interp=LINEAR)
        b = integrate(field, sspec, dim=4, n_particles=32, seed=3, interp=LINEAR)
        np.testing.assert_array_equal(a.states[-1], b.states[-1])

    @pytest.mark.parametrize("kind", ["linear", "vp", "gvp"])
    def test_em_terminal_variance_matches_target(self, kind):
        """High-NFE stochastic run reproduces the data marginal variance."""
        interp = make_interpolant(kind)
        spec = GaussianData(dim=16, std=1.5)
        field = OracleField(spec, interp)
        sspec = SolverSpec(method="euler-maruyama", nfe=500, checkpoints=(1.0,))
        traj = integrate(field, sspec, dim=16, n_particles=4096, seed=11, interp=interp)
        var = traj.states[-1].var(ddof=1)
        np.testing.assert_allclose(var, 1.5**2, rtol=0.05)

    def test_em_requires_interpolant(self):
        spec = GaussianData(dim=2)
        field = OracleField(spec, LINEAR)
        with pytest.raises(ConfigError):
            integrate(field, SolverSpec(method="euler-maruyama", nfe=4), dim=2,
                      n_particles=4)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SolverSpec(method="rk4")
        with pytest.raises(ConfigError):
            SolverSpec(nfe=0)
        with pytest.raises(ConfigError):
            SolverSpec(checkpoints=(0.8, 0.2))
        with pytest.raises(ConfigError):
            SolverSpec(checkpoints=(0.5, 1.5))
        for nan in ((0.5, math.nan), (math.nan,)):
            with pytest.raises(ConfigError, match=r"\[nan\]"):
                SolverSpec(checkpoints=nan)
        with pytest.raises(ConfigError):
            SolverSpec(diffusion="full")

    def test_score_clamp_is_a_constant_not_a_field(self):
        """perfbench's em_moments reads t_min and diffusion; no spec can set t_min."""
        assert SolverSpec().t_min == SolverSpec.t_min == 1e-3
        assert SolverSpec().diffusion == "sigma"
        assert [f.name for f in dataclasses.fields(SolverSpec)] == [
            "method", "nfe", "schedule", "checkpoints", "diffusion"]
        with pytest.raises(TypeError):
            SolverSpec(t_min=0.01)
        with pytest.raises(dataclasses.FrozenInstanceError):
            SolverSpec().t_min = 0.01


def _reference_integrate(field, spec, x0, seed, interp):
    """Every recorded state of ``_reference_step`` run on the solver's grid and noise stream.

    ``integrate`` must match these fresh-array steps bit for bit.
    """
    x = np.array(x0, dtype=np.float64)
    noise_rng = rng_for(seed, "particles:noise")
    grid = np.arange(spec.nfe + 1, dtype=np.float64) / spec.nfe
    states = [x]
    for k in range(spec.nfe):
        t = float(grid[k])
        x = _reference_step(spec.method, field, spec.schedule, x, t, float(grid[k + 1]) - t,
                            noise_rng, spec.diffusion, interp, spec.t_min)
        states.append(x)
    return states


METHODS = [("euler", "sigma"), ("heun", "sigma"), ("euler-maruyama", "sigma"),
           ("euler-maruyama", "zero")]
SCHEDULES = [IDENTITY_SCHEDULE, ScaleSchedule("linear", 1.1, 1.0)]


def _float32_net(dim):
    """A float32 Mlp with non-zero biases and skip."""
    net = Mlp.create(dim, hidden=(16, 16), rng=np.random.default_rng(5), dtype=np.float32)
    rng = np.random.default_rng(6)
    for b in net.biases:
        b[...] = 0.3 * rng.standard_normal(b.shape)
    net.skip[...] = 0.3 * rng.standard_normal(net.skip.shape)
    return net


BLOCK_SIZES = [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7]


class TestInPlaceIntegration:
    """The in-place row-block steps change no output bit."""

    DIM, N, NFE, SEED = 6, 48, 12, 21

    def _assert_matches_reference(self, field, method, diffusion, schedule, interp=LINEAR,
                                  n=N):
        spec = SolverSpec(method=method, nfe=self.NFE, schedule=schedule, diffusion=diffusion,
                          checkpoints=tuple(k / self.NFE for k in range(self.NFE + 1)))
        x0 = np.random.default_rng(8).standard_normal((n, self.DIM))
        traj = integrate(field, spec, dim=self.DIM, n_particles=n, seed=self.SEED,
                         interp=interp, x0=x0)
        want = _reference_integrate(field, spec, x0, self.SEED, interp)
        assert len(traj.states) == len(want)
        for got, ref in zip(traj.states, want):
            np.testing.assert_array_equal(got, ref)

    def _field(self, kind, n):
        if kind == "oracle-float64":
            return OracleField(GaussianData(dim=self.DIM, std=2.0), LINEAR)
        if kind == "mlp-float32":
            return _float32_net(self.DIM).forward
        oracle, out = OracleField(GaussianData(dim=self.DIM), LINEAR), np.empty((n, self.DIM))

        def field(x, t):   # reuses one output buffer
            out[...] = oracle(x, t)
            return out

        return field

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=["identity", "linear"])
    @pytest.mark.parametrize("method,diffusion", METHODS)
    @pytest.mark.parametrize("field_kind", ["oracle-float64", "mlp-float32"])
    def test_bitwise_equal_to_fresh_array_steps(self, field_kind, method, diffusion, schedule):
        self._assert_matches_reference(self._field(field_kind, self.N), method, diffusion, schedule)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=["identity", "linear"])
    @pytest.mark.parametrize("method,diffusion", METHODS)
    @pytest.mark.parametrize("field_kind", ["oracle-float64", "mlp-float32", "reused-buffer"])
    def test_bitwise_equal_around_the_block_size(self, field_kind, method, diffusion, schedule, n):
        """One row, one block short, exactly one, one over, and several plus a remainder."""
        self._assert_matches_reference(self._field(field_kind, n), method, diffusion, schedule,
                                       n=n)

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=["identity", "linear"])
    @pytest.mark.parametrize("method,diffusion", METHODS)
    def test_field_may_return_its_input_or_a_kept_array(self, method, diffusion, schedule):
        self._assert_matches_reference(lambda x, t: x, method, diffusion, schedule)
        kept = np.random.default_rng(2).standard_normal((self.N, self.DIM))
        original = kept.copy()
        self._assert_matches_reference(lambda x, t: kept, method, diffusion, schedule)
        np.testing.assert_array_equal(kept, original)

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=["identity", "linear"])
    @pytest.mark.parametrize("method,diffusion", METHODS)
    def test_field_may_reuse_its_output_buffer(self, method, diffusion, schedule):
        """Heun keeps v1 across its second field call, so it keeps its own copy."""
        self._assert_matches_reference(self._field("reused-buffer", self.N), method, diffusion,
                                       schedule)

    @pytest.mark.parametrize("nan_at_call", [None, 4])
    def test_integrate_starts_no_thread(self, nan_at_call):
        """Euler-Maruyama draws inline: no thread is left running, also after a raise."""
        oracle = OracleField(GaussianData(dim=self.DIM), LINEAR)
        before = threading.active_count()
        seen = []

        def field(x, t):
            seen.append(threading.active_count())
            v = oracle(x, t)
            return np.full_like(v, np.nan) if len(seen) == nan_at_call else v

        spec = SolverSpec(method="euler-maruyama", nfe=self.NFE)
        if nan_at_call is None:
            integrate(field, spec, dim=self.DIM, n_particles=self.N, seed=1, interp=LINEAR)
        else:
            with pytest.raises(NonFiniteVelocityError) as exc:
                integrate(field, spec, dim=self.DIM, n_particles=self.N, seed=1, interp=LINEAR)
            assert exc.value.t == 3 / self.NFE
        assert set(seen) == {before}
        assert threading.active_count() == before

    def test_steps_without_diffusion_draw_no_noise(self):
        """Steps with sigma_t = 0 draw nothing, wherever they fall on the grid."""
        class GappedPath(LinearPath):
            def _coefficients(self, t):
                a, s, da, ds = super()._coefficients(t)
                return a, (0.0 if 0.25 <= float(t) < 0.5 else s), da, ds

        field = OracleField(GaussianData(dim=self.DIM), LINEAR)
        for method, diffusion in METHODS[2:]:
            self._assert_matches_reference(field, method, diffusion, SCHEDULES[1], interp=GappedPath())


def _reference_step(method, field, schedule, x, t, dt, rng=None, diffusion="sigma",
                    interp=LINEAR, t_min=1e-3):
    """One step as whole-array expressions, each in the dtype numpy gives it."""
    def scaled_velocity(x, t):
        return float(schedule.gamma(t)) * np.asarray(field(x, t))

    if method == "euler":
        return x + scaled_velocity(x, t) * dt
    if method == "heun":
        v1 = scaled_velocity(x, t)
        v2 = scaled_velocity(x + v1 * dt, t + dt)
        return x + 0.5 * dt * (v1 + v2)
    v = scaled_velocity(x, t)
    w = 0.0 if diffusion == "zero" else float(interp.sigma(t))
    if w == 0.0:
        return x + v * dt
    tc = min(max(t, t_min), 1.0 - t_min)
    a, s, da, ds = (float(c) for c in interp.coefficients(tc))
    score = (da * x - a * v) / (s * (a * ds - da * s))
    return x + (v + 0.5 * w * w * score) * dt + w * math.sqrt(dt) * rng.standard_normal(x.shape)


def _direct_step(method, field, schedule, x, t, dt, rng):
    if method == "euler":
        return euler_step(field, schedule, x, t, dt)
    if method == "heun":
        return heun_step(field, schedule, x, t, dt)
    return em_step(field, schedule, LINEAR, x, t, dt, rng)


class TestDirectSteps:
    """Without integrate's buffers a step allocates its own and updates x as whole arrays would."""

    DIM = 5

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=["identity", "linear"])
    def test_em_step_equals_the_whole_array_expression(self, schedule, n):
        field = OracleField(GaussianData(dim=self.DIM, std=2.0), LINEAR)
        x = np.random.default_rng(3).standard_normal((n, self.DIM))
        kept = x.copy()
        got = em_step(field, schedule, LINEAR, x, 0.3, 0.1, np.random.default_rng(7))
        want = _reference_step("euler-maruyama", field, schedule, kept, 0.3, 0.1,
                               np.random.default_rng(7))
        assert got is x
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_em_step_leaves_the_generator_where_one_whole_draw_does(self, n):
        """Noise drawn block by block in row order is the whole-array stream."""
        field = OracleField(GaussianData(dim=self.DIM), LINEAR)
        x = np.random.default_rng(3).standard_normal((n, self.DIM))
        rng, whole = np.random.default_rng(11), np.random.default_rng(11)
        em_step(field, IDENTITY_SCHEDULE, LINEAR, x, 0.3, 0.1, rng)
        whole.standard_normal(x.shape)
        assert rng.bit_generator.state == whole.bit_generator.state

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=["identity", "linear"])
    @pytest.mark.parametrize("method", SOLVER_METHODS)
    @pytest.mark.parametrize("field_dtype", [np.float32, np.float64])
    def test_multi_block_step_updates_x_to_the_whole_array_step(self, field_dtype, method,
                                                                schedule):
        """Two row blocks through the step's own buffers, for a float32 or float64 field."""
        def field(x, t):
            return (np.sin(x) + t).astype(field_dtype)

        x = np.random.default_rng(5).standard_normal((_BLOCK_ROWS + 3, self.DIM))
        kept = x.copy()
        got = _direct_step(method, field, schedule, x, 0.3, 0.1, np.random.default_rng(2))
        want = _reference_step(method, field, schedule, kept, 0.3, 0.1, np.random.default_rng(2))
        assert got is x
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got, want)


class TestRecordedMoments:
    """Nodes recorded by MomentStats.from_samples hold the copies' moments, bit for bit."""

    DIM, NFE, SEED = 6, 6, 21
    CHECKPOINTS = (0.0, 0.5, 1.0)

    @pytest.mark.parametrize("n", [2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   3 * _BLOCK_ROWS + 7])
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=["identity", "linear"])
    @pytest.mark.parametrize("method,diffusion", METHODS)
    @pytest.mark.parametrize("field_kind", ["oracle-float64", "mlp-float32"])
    def test_moments_match_the_copied_batches(self, field_kind, method, diffusion, schedule, n):
        field = (OracleField(GaussianData(dim=self.DIM, std=2.0), LINEAR)
                 if field_kind == "oracle-float64" else _float32_net(self.DIM).forward)
        spec = SolverSpec(method=method, nfe=self.NFE, schedule=schedule, diffusion=diffusion,
                          checkpoints=self.CHECKPOINTS)

        def run(**record):
            return integrate(field, spec, dim=self.DIM, n_particles=n, seed=self.SEED,
                             interp=LINEAR, **record)

        copied, reduced = run(), run(record=MomentStats.from_samples)
        assert reduced.node_times == copied.node_times
        assert len(reduced.states) == len(self.CHECKPOINTS)
        for batch, got in zip(copied.states, reduced.states):
            want = MomentStats.from_samples(batch)
            assert got.n_samples == n
            assert got.mean.tobytes() == want.mean.tobytes()
            assert got.cov.tobytes() == want.cov.tobytes()


class TestStepMemory:
    """A warm run allocates its batch, states and run-long buffers, and no
    whole-array temporaries (a deterministic guard, independent of timing)."""

    DIM, N, NFE = 64, 8192, 5

    def _peak_and_fixed_budget(self, method, checkpoints=(1.0,), **record):
        """The traced peak of a warm run, and the budget every run shares: its
        batch, Heun's two arrays, the block buffers and 1 MB."""
        kept = np.empty((self.N, self.DIM))

        def field(x, t):
            return np.multiply(x, -0.5, out=kept)   # field allocations would not count

        spec = SolverSpec(method=method, nfe=self.NFE, checkpoints=checkpoints)
        x0 = np.random.default_rng(0).standard_normal((self.N, self.DIM))

        def run():
            integrate(field, spec, dim=self.DIM, n_particles=self.N, seed=1, interp=LINEAR,
                      x0=x0, **record)

        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        batch = x0.nbytes
        heun = 2 * batch if method == "heun" else 0              # v1 and the predictor
        blocks = 3 * _BLOCK_ROWS * self.DIM * 8
        return peak, batch + heun + blocks + (1 << 20)

    @pytest.mark.parametrize("method", ["euler", "heun", "euler-maruyama"])
    def test_peak_allocation_stays_within_budget(self, method):
        peak, fixed = self._peak_and_fixed_budget(method)
        budget = fixed + self.N * self.DIM * 8                   # one copied state
        assert peak <= budget, (peak / 2**20, budget / 2**20)

    @pytest.mark.parametrize("method", ["euler", "heun", "euler-maruyama"])
    def test_recorded_moments_hold_no_batch_per_checkpoint(self, method):
        """Recording each node's moments costs one transient centred copy, however
        many nodes are recorded."""
        peak, fixed = self._peak_and_fixed_budget(method, (0.2, 0.4, 0.6, 0.8, 1.0),
                                                  record=MomentStats.from_samples)
        budget = fixed + self.N * self.DIM * 8                   # one centred copy
        assert peak <= budget, (peak / 2**20, budget / 2**20)


class TestTrajectoryContainer:
    def _example(self):
        spec = GaussianData(dim=3)
        field = OracleField(spec, LINEAR)
        sspec = SolverSpec(method="euler", nfe=10, checkpoints=(0.5, 1.0))
        return integrate(field, sspec, dim=3, n_particles=17, seed=2)

    def test_roundtrip(self, tmp_path):
        traj = self._example()
        path = tmp_path / "traj.bin"
        save_trajectory(path, traj)
        times, states = load_trajectory(path)
        assert times == traj.node_times
        assert len(states) == 2
        for got, want in zip(states, traj.states):
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTATRAJ" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_trajectory(path)

    def test_writes_only_the_binary(self, tmp_path):
        """Provenance is the manifest's (see test_cli); the container is one file."""
        save_trajectory(tmp_path / "traj.bin", self._example())
        assert [p.name for p in tmp_path.iterdir()] == ["traj.bin"]

    @pytest.mark.parametrize("cut", ["trailing bytes", "truncated header", "truncated times",
                                     "truncated states"])
    def test_file_of_another_size_than_its_header_rejected(self, tmp_path, cut):
        """The file must be exactly 24 + 8K + 4KND bytes for K nodes of N x D."""
        path = tmp_path / "traj.bin"
        save_trajectory(path, self._example())
        data = path.read_bytes()
        assert len(data) == 24 + 8 * 2 + 4 * 2 * 17 * 3
        data = {"trailing bytes": data + data[24 + 16:], "truncated header": data[:20],
                "truncated times": data[:24 + 12], "truncated states": data[:-4]}[cut]
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"{path} is {len(data)} bytes") as exc:
            load_trajectory(path)
        assert ("24" if cut == "truncated header" else "448") in str(exc.value)

    @pytest.mark.parametrize("counts", [(0, 17, 2), (3, 0, 2), (3, 17, 0)])
    def test_header_counting_zero_rejected(self, tmp_path, counts):
        """A header of no nodes (or particles, or dimensions) is refused, even when the
        file holds exactly what it counts."""
        dim, n, k = counts
        path = tmp_path / "traj.bin"
        path.write_bytes(b"FLOWTRAJ" + struct.pack("<IIII", 1, dim, n, k)
                         + bytes(8 * k + 4 * k * n * dim))
        with pytest.raises(ValueError, match=str(path)):
            load_trajectory(path)

    @pytest.mark.parametrize("times", [(np.nan, 1.0), (-3.0, 1.0), (1.0, 0.5), (0.5, 7.0)],
                             ids=["nan", "negative", "decreasing", "above-1"])
    def test_impossible_node_times_rejected(self, tmp_path, times):
        """Node times must be finite, non-decreasing and within [0, 1], on save and on load."""
        path = tmp_path / "traj.bin"
        states = self._example().states
        with pytest.raises(ValueError, match=str(path)):
            save_trajectory(path, Trajectory(times, states))
        assert not path.exists()
        save_trajectory(path, Trajectory((0.5, 1.0), states))
        data = bytearray(path.read_bytes())
        data[24:40] = np.array(times, dtype="<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=str(path)):
            load_trajectory(path)

    def test_checkpoints_snapped_to_one_node_roundtrip(self, tmp_path):
        """Two requested times may snap to one node: a repeated node time is legal."""
        traj = integrate(OracleField(GaussianData(dim=3), LINEAR),
                         SolverSpec(method="euler", nfe=10, checkpoints=(0.95, 1.0)),
                         dim=3, n_particles=17, seed=2)
        assert traj.node_times == (1.0, 1.0)
        save_trajectory(tmp_path / "traj.bin", traj)
        assert load_trajectory(tmp_path / "traj.bin").node_times == (1.0, 1.0)

    def test_inconsistent_batches_rejected(self, tmp_path):
        times, states = self._example()
        for bad in (Trajectory(times, [states[0], states[1][1:]]), Trajectory(times, states[:1])):
            with pytest.raises(ValueError, match="one batch per node time"):
                save_trajectory(tmp_path / "traj.bin", bad)

    def test_nodes_read_when_indexed(self, tmp_path):
        """A loaded file's states are its float32 batches, read by index, negative
        indices too; an index past either end raises IndexError."""
        traj = self._example()
        path = tmp_path / "traj.bin"
        save_trajectory(path, traj)
        states = load_trajectory(path).states
        for i in (0, 1, -1, -2):
            want = np.ascontiguousarray(traj.states[i], dtype="<f4")
            assert states[i].dtype == want.dtype and states[i].shape == want.shape
            assert states[i].tobytes() == want.tobytes()
        for i in (2, -3):
            with pytest.raises(IndexError):
                states[i]

    def test_save_of_a_loaded_trajectory_is_byte_identical(self, tmp_path):
        save_trajectory(tmp_path / "a.bin", self._example())
        save_trajectory(tmp_path / "b.bin", load_trajectory(tmp_path / "a.bin"))
        assert (tmp_path / "b.bin").read_bytes() == (tmp_path / "a.bin").read_bytes()

    @pytest.mark.parametrize("how", ["truncated", "appended", "replaced"])
    def test_file_changed_after_load_refused(self, tmp_path, change_file, how):
        """Each node read checks the file's size, modification time and inode."""
        path = tmp_path / "traj.bin"
        save_trajectory(path, self._example())
        states = load_trajectory(path).states
        assert states[1].shape == (17, 3)
        change_file(path, how)
        with pytest.raises(ValueError, match=f"{path} changed since it was loaded"):
            states[0]

    def test_fld_of_a_loaded_file_holds_one_node(self, tmp_path):
        """Scoring a 10-node 8192x64 file holds one float32 node and the two float64
        batches of its moments at a time, not the 20 MB file."""
        n, dim = 8192, 64
        batch = np.random.default_rng(3).standard_normal((n, dim), dtype=np.float32)
        path = tmp_path / "traj.bin"
        save_trajectory(path, Trajectory(tuple(k / 10 for k in range(1, 11)), [batch] * 10))
        reference = gaussian_reference(dim)
        track_fld(load_trajectory(path), reference)
        tracemalloc.start()
        try:
            track_fld(load_trajectory(path), reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = batch.nbytes + 2 * n * dim * 8 + (1 << 20)
        assert peak <= budget, (peak / 2**20, budget / 2**20)


def _oracle_growth(method, kind, schedule, nfe, data_std):
    """G with x_N = G x_0 for the exact field from x_0 = ones((1, 64)), every coordinate alike."""
    interp = make_interpolant(kind)
    spec = SolverSpec(method=method, nfe=nfe, schedule=schedule)
    x_n = integrate(OracleField(GaussianData(64, data_std), interp), spec, dim=64, n_particles=1,
                    x0=np.ones((1, 64))).states[-1]
    assert np.all(x_n == x_n[0, 0])
    return float(x_n[0, 0])


class TestStartEndAsymmetry:
    """Terminal FLD 64 (G - 2)^2 of the exact std=2 field at nfe 10, pinned per schedule.

    The rows: baseline, start injection 1.1 and 1.2, end injection 1.1, and both ends 1.05.
    """

    ROWS = ("constant-one", "linear:1.1:1.0", "linear:1.2:1.0", "linear:1.0:1.1",
            "linear:1.05:1.05")
    EXPECTED = {
        ("euler", "linear"): (4.906, 4.394, 3.921, 2.674, 3.486),
        ("heun", "linear"): (0.009, 0.035, 0.224, 0.540, 0.211),
        ("euler", "vp"): (0.550, 0.179, 0.010, 0.014, 0.073),
        ("euler", "gvp"): (0.333, 0.000, 0.338, 0.027, 0.007),
    }

    def _flds(self, method, kind):
        return {row: 64 * (_oracle_growth(method, kind, parse_schedule(row), 10, 2.0) - 2) ** 2
                for row in self.ROWS}

    @pytest.mark.parametrize("method,kind", list(EXPECTED))
    def test_terminal_fld_per_schedule(self, method, kind):
        flds = self._flds(method, kind)
        np.testing.assert_allclose([flds[row] for row in self.ROWS], self.EXPECTED[method, kind],
                                   rtol=0, atol=1e-3)

    def test_end_injection_wins_under_euler_and_start_injection_under_heun(self):
        start, end = "linear:1.1:1.0", "linear:1.0:1.1"
        euler, heun = self._flds("euler", "linear"), self._flds("heun", "linear")
        assert euler[end] < euler[start]
        assert heun[start] < heun[end]


def test_vp_heun_at_nfe_5_sees_the_oracles_value_at_one():
    """On std=1 data v* = 0 for t < 1, but Heun's last stage sees c(1) = d_alpha(1), not the
    limit 0: G = 1.005033, a terminal FLD of 0.00162 at D=64, where the limit would give G = 1."""
    g = _oracle_growth("heun", "vp", IDENTITY_SCHEDULE, 5, 1.0)
    assert g == pytest.approx(1.005033075289601, rel=1e-12, abs=0)
    assert 64 * (g - 1) ** 2 == pytest.approx(0.00162, abs=5e-6)
