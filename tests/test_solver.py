"""Schedule algebra, corrected steppers, convergence orders, trajectory IO."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from flowlag.errors import ConfigError, NonFiniteVelocityError
from flowlag.gaussian_oracle import GaussianFlowSpec, OracleField
from flowlag.interpolant import LinearPath, make_interpolant
from flowlag.nn import Mlp
from flowlag.rng import rng_for
from flowlag.solver import (
    _BLOCK_ROWS,
    IDENTITY_SCHEDULE,
    ScaleSchedule,
    SolverSpec,
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

    @pytest.mark.parametrize("shape", ["linear", "cosine", "quad-in", "quad-out", "constant-one"])
    def test_equal_endpoints_give_exactly_one(self, shape):
        kw = {"s_start": 1.0, "s_end": 1.0}
        s = ScaleSchedule(shape, **kw)
        t = np.linspace(0.0, 1.0, 1001)
        assert np.all(s.gamma(t) == 1.0)

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

    def test_validation(self):
        with pytest.raises(ConfigError):
            ScaleSchedule("exp", 1.1, 1.0)
        with pytest.raises(ConfigError):
            ScaleSchedule("linear", -0.1, 1.0)
        with pytest.raises(ConfigError):
            ScaleSchedule("constant-one", 1.1, 1.0)
        with pytest.raises(ValueError):
            ScaleSchedule("linear", 1.1, 1.0).gamma(1.5)

    def test_parse_schedule(self):
        s = parse_schedule("linear:1.1:1.0")
        assert (s.shape, s.s_start, s.s_end) == ("linear", 1.1, 1.0)
        assert parse_schedule("constant-one") == IDENTITY_SCHEDULE
        with pytest.raises(ConfigError):
            parse_schedule("linear:1.1")
        with pytest.raises(ConfigError):
            parse_schedule("linear:a:b")


class TestScaledVelocity:
    def test_literal_per_call_scaling(self):
        """The applied velocity is exactly gamma(t) * v, elementwise."""
        sched = ScaleSchedule("linear", 1.1, 1.0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((32, 8))
        field = lambda x, t: np.sin(x) + t
        for t in (0.0, 0.3, 0.7, 1.0):
            v = field(x, t)
            v_hat = scaled_velocity(field, sched, x, t)
            np.testing.assert_array_equal(v_hat, float(sched.gamma(t)) * v)
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


class TestSteps:
    def test_euler_identity_schedule_is_classic(self):
        field = lambda x, t: 2.0 * x
        x = np.ones((1, 3))
        np.testing.assert_array_equal(euler_step(field, IDENTITY_SCHEDULE, x, 0.1, 0.1),
                                      x + 0.1 * 2.0 * x)

    def test_euler_zero_field_fixes_state(self):
        field = lambda x, t: np.zeros_like(x)
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(euler_step(field, IDENTITY_SCHEDULE, x, 0.0, 0.5), x)

    def test_euler_one_step_oracle_jump(self):
        """One full-length step from pure noise lands at c(0) annihilation."""
        spec = GaussianFlowSpec(dim=4, data_std=1.0)
        field = OracleField(spec, LINEAR)
        x0 = np.random.default_rng(1).standard_normal((8, 4))
        out = euler_step(field, IDENTITY_SCHEDULE, x0, 0.0, 1.0)
        np.testing.assert_allclose(out, np.zeros_like(x0), atol=1e-12)

    def test_heun_constant_field_matches_euler(self):
        field = lambda x, t: np.full_like(x, 3.0)
        x = np.zeros((2, 2))
        e = euler_step(field, IDENTITY_SCHEDULE, x, 0.2, 0.1)
        h = heun_step(field, IDENTITY_SCHEDULE, x, 0.2, 0.1)
        np.testing.assert_allclose(h, e, rtol=1e-15)

    def test_heun_schedule_quadrature(self):
        """Constant field: the step averages gamma at both stage times."""
        sched = ScaleSchedule("linear", 1.1, 1.0)
        k = 2.5
        field = lambda x, t: np.full_like(x, k)
        x = np.zeros((1, 1))
        t, dt = 0.3, 0.2
        out = heun_step(field, sched, x, t, dt)
        expected = k * dt * 0.5 * (float(sched.gamma(t)) + float(sched.gamma(t + dt)))
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_em_zero_diffusion_reduces_to_euler_bitwise(self):
        spec = GaussianFlowSpec(dim=3, data_std=1.0)
        field = OracleField(spec, LINEAR)
        x = np.random.default_rng(2).standard_normal((16, 3))
        sched = ScaleSchedule("linear", 1.1, 1.0)
        e = euler_step(field, sched, x, 0.4, 0.05)
        m = em_step(field, sched, LINEAR, x, 0.4, 0.05, np.random.default_rng(0),
                    diffusion="zero")
        np.testing.assert_array_equal(m, e)

    def test_em_deterministic_given_rng(self):
        spec = GaussianFlowSpec(dim=3)
        field = OracleField(spec, LINEAR)
        x = np.random.default_rng(3).standard_normal((8, 3))
        a = em_step(field, IDENTITY_SCHEDULE, LINEAR, x, 0.2, 0.1, np.random.default_rng(9))
        b = em_step(field, IDENTITY_SCHEDULE, LINEAR, x, 0.2, 0.1, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("schedule", [IDENTITY_SCHEDULE, ScaleSchedule("linear", 1.1, 1.0)],
                             ids=["identity", "linear"])
    @pytest.mark.parametrize("field", [lambda x, t: x, OracleField(GaussianFlowSpec(dim=3), LINEAR)],
                             ids=["returns-input", "oracle"])
    def test_direct_steps_leave_state_unchanged(self, field, schedule):
        x = np.random.default_rng(4).standard_normal((8, 3))
        kept = x.copy()
        for step in (lambda: euler_step(field, schedule, x, 0.2, 0.1),
                     lambda: heun_step(field, schedule, x, 0.2, 0.1),
                     lambda: em_step(field, schedule, LINEAR, x, 0.2, 0.1,
                                     np.random.default_rng(1))):
            out = step()
            assert out is not x
            np.testing.assert_array_equal(x, kept)


class TestConvergenceOrder:
    """Euler is order 1, Heun order 2, on the exactly solvable oracle flow."""

    def _terminal_error(self, method, nfe):
        spec = GaussianFlowSpec(dim=4, data_std=2.0)
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
        spec = GaussianFlowSpec(dim=4)
        field = OracleField(spec, LINEAR)
        sspec = SolverSpec(method="euler", nfe=1, checkpoints=(1.0,))
        traj = integrate(field, sspec, dim=4, n_particles=16, seed=5)
        np.testing.assert_allclose(traj.states[-1], np.zeros((16, 4)), atol=1e-12)

    def test_five_checkpoints_recorded(self):
        spec = GaussianFlowSpec(dim=2)
        field = OracleField(spec, LINEAR)
        cps = (0.2, 0.4, 0.6, 0.8, 1.0)
        sspec = SolverSpec(method="euler", nfe=10, checkpoints=cps)
        traj = integrate(field, sspec, dim=2, n_particles=32, seed=1)
        assert traj.node_times == cps
        assert len(traj.states) == 5
        assert all(s.shape == (32, 2) for s in traj.states)

    def test_checkpoint_snaps_to_nearest_node(self):
        spec = GaussianFlowSpec(dim=2)
        field = OracleField(spec, LINEAR)
        sspec = SolverSpec(method="euler", nfe=10, checkpoints=(0.33, 1.0))
        traj = integrate(field, sspec, dim=2, n_particles=4, seed=1)
        np.testing.assert_allclose(traj.node_times, (0.3, 1.0), atol=1e-15)

    def test_identity_schedule_equivalence_bitwise(self):
        """(1.0, 1.0) endpoints reproduce the uncorrected run exactly."""
        spec = GaussianFlowSpec(dim=8)
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
        spec = GaussianFlowSpec(dim=4)
        field = OracleField(spec, LINEAR)
        sspec = SolverSpec(method="euler-maruyama", nfe=25, checkpoints=(1.0,))
        a = integrate(field, sspec, dim=4, n_particles=32, seed=3, interp=LINEAR)
        b = integrate(field, sspec, dim=4, n_particles=32, seed=3, interp=LINEAR)
        np.testing.assert_array_equal(a.states[-1], b.states[-1])

    @pytest.mark.parametrize("kind", ["linear", "vp", "gvp"])
    def test_em_terminal_variance_matches_target(self, kind):
        """High-NFE stochastic run reproduces the data marginal variance."""
        interp = make_interpolant(kind)
        spec = GaussianFlowSpec(dim=16, data_std=1.5)
        field = OracleField(spec, interp)
        sspec = SolverSpec(method="euler-maruyama", nfe=500, checkpoints=(1.0,))
        traj = integrate(field, sspec, dim=16, n_particles=4096, seed=11, interp=interp)
        var = traj.states[-1].var(ddof=1)
        np.testing.assert_allclose(var, 1.5**2, rtol=0.05)

    def test_em_requires_interpolant(self):
        spec = GaussianFlowSpec(dim=2)
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
        with pytest.raises(ConfigError):
            SolverSpec(diffusion="full")


def _reference_integrate(field, spec, x0, seed, interp):
    """Every recorded state of the fresh-array integrator, expression for expression.

    The steps allocate a new array for every operation, as the solver did
    before it kept a workspace; ``integrate`` must match it bit for bit.
    """
    def scaled_velocity(x, t):
        return float(spec.schedule.gamma(t)) * np.asarray(field(x, t))

    x = np.array(x0, dtype=np.float64)
    noise_rng = rng_for(seed, "particles:noise")
    grid = np.arange(spec.nfe + 1, dtype=np.float64) / spec.nfe
    states = [x.copy()]
    for k in range(spec.nfe):
        t, t_next = float(grid[k]), float(grid[k + 1])
        dt = t_next - t
        if spec.method == "euler":
            x = x + scaled_velocity(x, t) * dt
        elif spec.method == "heun":
            v1 = scaled_velocity(x, t)
            x_pred = x + v1 * dt
            v2 = scaled_velocity(x_pred, t + dt)
            x = x + 0.5 * dt * (v1 + v2)
        else:
            v = scaled_velocity(x, t)
            w = 0.0 if spec.diffusion == "zero" else float(interp.sigma(t))
            if w == 0.0:
                x = x + v * dt
            else:
                tc = min(max(t, spec.t_min), 1.0 - spec.t_min)
                a, s, da, ds = (float(c) for c in interp.coefficients(tc))
                denom = s * (a * ds - da * s)
                score = (da * x - a * v) / denom
                drift = v + 0.5 * w * w * score
                noise = noise_rng.standard_normal(x.shape)
                x = x + drift * dt + w * math.sqrt(dt) * noise
        states.append(x.copy())
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
            return OracleField(GaussianFlowSpec(dim=self.DIM, data_std=2.0), LINEAR)
        if kind == "mlp-float32":
            return _float32_net(self.DIM).forward
        oracle, out = OracleField(GaussianFlowSpec(dim=self.DIM), LINEAR), np.empty((n, self.DIM))

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
        oracle = OracleField(GaussianFlowSpec(dim=self.DIM), LINEAR)
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
            def _sigma(self, t):
                return 0.0 if 0.25 <= float(t) < 0.5 else super()._sigma(t)

        field = OracleField(GaussianFlowSpec(dim=self.DIM), LINEAR)
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


def _direct_step(method, field, schedule, x, t, dt, rng=None, diffusion="sigma"):
    if method == "euler":
        return euler_step(field, schedule, x, t, dt)
    if method == "heun":
        return heun_step(field, schedule, x, t, dt)
    return em_step(field, schedule, LINEAR, x, t, dt, rng, diffusion=diffusion)


class TestDirectSteps:
    """Without integrate's buffers a step returns a new array, as whole arrays would."""

    DIM = 5

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=["identity", "linear"])
    def test_em_step_equals_the_whole_array_expression(self, schedule, n):
        field = OracleField(GaussianFlowSpec(dim=self.DIM, data_std=2.0), LINEAR)
        x = np.random.default_rng(3).standard_normal((n, self.DIM))
        kept = x.copy()
        got = em_step(field, schedule, LINEAR, x, 0.3, 0.1, np.random.default_rng(7))
        want = _reference_step("euler-maruyama", field, schedule, x, 0.3, 0.1,
                               np.random.default_rng(7))
        assert got is not x
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(x, kept)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_em_step_leaves_the_generator_where_one_whole_draw_does(self, n):
        """Noise drawn block by block in row order is the whole-array stream."""
        field = OracleField(GaussianFlowSpec(dim=self.DIM), LINEAR)
        x = np.random.default_rng(3).standard_normal((n, self.DIM))
        rng, whole = np.random.default_rng(11), np.random.default_rng(11)
        em_step(field, IDENTITY_SCHEDULE, LINEAR, x, 0.3, 0.1, rng)
        whole.standard_normal(x.shape)
        assert rng.bit_generator.state == whole.bit_generator.state

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=["identity", "linear"])
    @pytest.mark.parametrize("method,diffusion", METHODS)
    @pytest.mark.parametrize("field_dtype", [np.float32, np.float64])
    def test_float32_state_keeps_the_whole_array_dtype(self, field_dtype, method, diffusion,
                                                       schedule):
        def field(x, t):
            return (np.sin(x) + t).astype(field_dtype)

        x = np.random.default_rng(5).standard_normal((_BLOCK_ROWS + 3, self.DIM))
        x = x.astype(np.float32)
        kept = x.copy()
        got = _direct_step(method, field, schedule, x, 0.3, 0.1, np.random.default_rng(2),
                           diffusion)
        want = _reference_step(method, field, schedule, x, 0.3, 0.1, np.random.default_rng(2),
                               diffusion)
        # float32 throughout, except that float64 noise or a float64 field promotes
        noisy = method == "euler-maruyama" and diffusion == "sigma"
        assert want.dtype == (np.float64 if noisy or field_dtype == np.float64 else np.float32)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(x, kept)


class TestStepMemory:
    """A warm run allocates its batch, states and run-long buffers, and no
    whole-array temporaries (a deterministic guard, independent of timing)."""

    DIM, N, NFE = 64, 8192, 5

    @pytest.mark.parametrize("method", ["euler", "heun", "euler-maruyama"])
    def test_peak_allocation_stays_within_budget(self, method):
        kept = np.empty((self.N, self.DIM))

        def field(x, t):
            return np.multiply(x, -0.5, out=kept)   # field allocations would not count

        spec = SolverSpec(method=method, nfe=self.NFE)
        x0 = np.random.default_rng(0).standard_normal((self.N, self.DIM))

        def run():
            integrate(field, spec, dim=self.DIM, n_particles=self.N, seed=1, interp=LINEAR, x0=x0)

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
        budget = batch * (1 + len(spec.checkpoints)) + heun + blocks + (1 << 20)
        assert peak <= budget, (peak / 2**20, budget / 2**20)


class TestTrajectoryContainer:
    def _example(self):
        spec = GaussianFlowSpec(dim=3)
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

    def test_sidecar_metadata(self, tmp_path):
        traj = self._example()
        path = tmp_path / "traj.bin"
        save_trajectory(path, traj)
        meta = (tmp_path / "traj.bin.json").read_text()
        assert '"nfe": 10' in meta
