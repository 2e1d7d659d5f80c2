"""The benchmark's output checkers against the real solver, trainer and CLI writers."""

import math

import numpy as np
import pytest

from flowlag import interpolant, reporting, solver, training
from flowlag.gaussian_oracle import GaussianFlowSpec, OracleField
from perfbench import checks

DIM = 8
CORRECTED = solver.ScaleSchedule("linear", 1.1, 1.0)


def _run(kind, method, nfe, schedule, n=2048, seed=3, diffusion="sigma"):
    flow = GaussianFlowSpec(dim=DIM, data_std=2.0)
    interp = interpolant.make_interpolant(kind)
    spec = solver.SolverSpec(method=method, nfe=nfe, schedule=schedule, diffusion=diffusion,
                             checkpoints=(0.5, 1.0))
    x0 = np.random.default_rng(seed).standard_normal((n, DIM))
    traj = solver.integrate(OracleField(flow, interp), spec, dim=DIM, n_particles=n,
                            seed=seed, interp=interp, x0=x0)
    return flow, interp, spec, x0, traj


@pytest.mark.parametrize("kind", interpolant.PATH_KINDS)
@pytest.mark.parametrize("method", ["euler", "heun"])
@pytest.mark.parametrize("schedule", [solver.IDENTITY_SCHEDULE, CORRECTED])
def test_growth_factor_matches_solver(kind, method, schedule):
    flow, interp, spec, x0, traj = _run(kind, method, 7, schedule, n=64)
    g = checks.scalar_growth(flow, interp, spec)
    assert checks.check_scalar_growth(x0, traj.states[-1], g) == []
    assert checks.check_scalar_growth(x0, traj.states[-1] * (1 + 1e-7), g) != []


def test_growth_factor_closed_form_linear_euler():
    # linear path, data std 1: c(t) = (2t - 1) / (t^2 + (1 - t)^2)
    flow = GaussianFlowSpec(dim=DIM, data_std=1.0)
    spec = solver.SolverSpec(method="euler", nfe=4)
    want = 1.0
    for k in range(4):
        t = k / 4
        want *= 1 + 0.25 * (2 * t - 1) / (t * t + (1 - t) ** 2)
    assert checks.scalar_growth(flow, interpolant.LinearPath(), spec) == pytest.approx(want, rel=1e-14)


def test_growth_factor_rejects_stochastic_method():
    flow = GaussianFlowSpec(dim=DIM)
    with pytest.raises(ValueError):
        checks.scalar_growth(flow, interpolant.LinearPath(),
                             solver.SolverSpec(method="euler-maruyama", nfe=3))


@pytest.mark.parametrize("kind", interpolant.PATH_KINDS)
@pytest.mark.parametrize("schedule", [solver.IDENTITY_SCHEDULE, CORRECTED])
def test_em_second_moment_matches_recursion(kind, schedule):
    flow, interp, spec, x0, traj = _run(kind, "euler-maruyama", 10, schedule, n=4096)
    g, q = checks.em_moments(flow, interp, spec)
    assert q > 0
    assert checks.check_em_second_moment(x0, traj.states[-1], g, q) == []
    assert checks.check_em_second_moment(x0, 1.2 * traj.states[-1], g, q) != []


def test_em_without_diffusion_reduces_to_euler():
    flow, interp, spec, x0, traj = _run("vp", "euler-maruyama", 6, CORRECTED, n=64,
                                        diffusion="zero")
    g, q = checks.em_moments(flow, interp, spec)
    euler = solver.SolverSpec(method="euler", nfe=6, schedule=CORRECTED)
    assert q == 0.0
    assert g == pytest.approx(checks.scalar_growth(flow, interp, euler), rel=1e-14)
    assert checks.check_scalar_growth(x0, traj.states[-1], g) == []


def test_em_tolerance_is_six_standard_errors():
    x0 = np.ones((10, 10))
    g, q = 2.0, 3.0
    se = math.sqrt(2 * q * q / 100 + 4 * g * g * 1.0 * q / 100)
    assert checks.em_tolerance(x0, g, q) == pytest.approx(6 * se)


def test_zero_field_loss_closed_forms():
    assert checks.zero_field_loss(64, 2.0, interpolant.LinearPath()) == pytest.approx(320.0)
    gvp = 64 * (math.pi**2 / 4) * (4.0 + 1.0) / 2
    assert checks.zero_field_loss(64, 2.0, interpolant.GvpPath()) == pytest.approx(gvp, rel=1e-9)
    clipped = checks.zero_field_loss(64, 2.0, interpolant.VpPath(), training.VP_TIME_CLIP)
    assert math.isfinite(clipped) and clipped > 0


def test_train_history_check():
    assert checks.check_train_history([(10, 100.0, 0.0, 100.0), (20, 90.0, 1.0, 91.0)], 128.0) == []
    assert checks.check_train_history([(10, 130.0, 0.0, 130.0)], 128.0) != []
    assert checks.check_train_history([(10, float("nan"), 0.0, 1.0)], 128.0) != []
    assert checks.check_train_history([], 128.0) != []


def test_checkpoint_roundtrip_check(tmp_path):
    cfg = training.TrainConfig(dataset={"kind": "gaussian", "dim": 4}, steps=5, batch_size=16,
                               hidden=(8,), log_every=1, precision="float32")
    result = training.train(cfg, out_dir=tmp_path)
    assert checks.check_checkpoint_roundtrip(result) == []
    result.net.weights[0][0, 0] += 1.0
    assert checks.check_checkpoint_roundtrip(result) != []


def test_trajectory_roundtrip_check(tmp_path):
    *_, traj = _run("linear", "euler", 4, solver.IDENTITY_SCHEDULE, n=32)
    path = tmp_path / "t.traj"
    solver.save_trajectory(path, traj)
    loaded = solver.load_trajectory(path)
    assert checks.check_trajectory_roundtrip(traj, loaded) == []
    times, states = loaded
    bad = [states[0], states[1] + np.float32(1e-3)]
    assert checks.check_trajectory_roundtrip(traj, (times, bad)) != []


def _sweep_csv(out, nfe, floor_nfe, s_starts, value=1.5):
    header = ["nfe", "label", "s_start", "s_end"] + [f"fld_at_{t:g}" for t in (0.5, 1.0)]
    rows = [[floor_nfe, "floor", 1.0, 1.0, value, value]]
    rows += [[nfe, label, 1.0, 1.0, value, value] for label in checks.expected_sweep_labels(s_starts)]
    out.mkdir(exist_ok=True)
    reporting.write_csv(out / "lag_sweep.csv", header, rows)


def test_lag_sweep_check(tmp_path):
    s_starts = (1.0, 1.1)
    _sweep_csv(tmp_path, 10, 500, s_starts)
    assert checks.check_lag_sweep(0, tmp_path, 10, 500, s_starts, 2) == []
    assert checks.check_lag_sweep(5, tmp_path, 10, 500, s_starts, 2) == []
    assert checks.check_lag_sweep(3, tmp_path, 10, 500, s_starts, 2) != []
    assert checks.check_lag_sweep(0, tmp_path, 20, 500, s_starts, 2) != []
    assert checks.check_lag_sweep(0, tmp_path, 10, 500, (1.0, 1.1, 1.2), 2) != []
    _sweep_csv(tmp_path, 10, 500, s_starts, value=float("nan"))
    assert checks.check_lag_sweep(0, tmp_path, 10, 500, s_starts, 2) != []
