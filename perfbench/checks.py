"""Correctness checks on workload outputs, against closed forms where one exists.

Every ``check_*`` function returns a list of failure messages; an empty
list means the output is correct.  The scalar recursions here are
written independently of ``flowlag.solver``: for isotropic Gaussian data
the oracle field is v = c(t) x, so every solver step multiplies each
particle by a scalar and the terminal law is known exactly.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from flowlag import gaussian_oracle, nn, reporting

# Euler and Heun terminal states against g_N * x0: every step adds a few
# ulps of rounding, so 1e-9 leaves room for thousands of steps.
GROWTH_RTOL = 1e-9
# Euler-Maruyama second moment: allowed deviation in standard errors of
# the pooled sample estimate (a false alarm is a < 1e-8 event).
EM_N_SIGMA = 6.0
# Midpoint-rule nodes for the zero-field loss integral over t.
ZERO_FIELD_GRID = 200_000


def _grid(nfe: int) -> np.ndarray:
    return np.arange(nfe + 1, dtype=np.float64) / nfe


def _gamma_c(oracle_spec, interp, schedule, t: float) -> float:
    return float(schedule.gamma(t)) * float(gaussian_oracle.velocity_coefficient(oracle_spec, interp, t))


def scalar_growth(oracle_spec, interp, solver_spec) -> float:
    """g_N with x_N = g_N x_0 for the Euler or Heun solver on the oracle field."""
    grid = _grid(solver_spec.nfe)
    g = 1.0
    for k in range(solver_spec.nfe):
        t = float(grid[k])
        dt = float(grid[k + 1]) - t
        a1 = _gamma_c(oracle_spec, interp, solver_spec.schedule, t)
        if solver_spec.method == "euler":
            g *= 1.0 + a1 * dt
        elif solver_spec.method == "heun":
            a2 = _gamma_c(oracle_spec, interp, solver_spec.schedule, t + dt)
            g *= 1.0 + 0.5 * dt * (a1 + a2 * (1.0 + a1 * dt))
        else:
            raise ValueError(f"no deterministic growth factor for {solver_spec.method!r}")
    return g


def em_moments(oracle_spec, interp, solver_spec) -> tuple:
    """(G, Q) with x_N = G x_0 + noise of per-coordinate variance Q (Euler-Maruyama).

    Mirrors the scheme's definition: drift gamma*v plus half the squared
    diffusion weight w = sigma(t) times the score implied by the scaled
    velocity, with coefficients for the score at t clamped to
    [t_min, 1 - t_min].
    """
    grid = _grid(solver_spec.nfe)
    t_min = solver_spec.t_min
    g, q = 1.0, 0.0
    for k in range(solver_spec.nfe):
        t = float(grid[k])
        dt = float(grid[k + 1]) - t
        gc = _gamma_c(oracle_spec, interp, solver_spec.schedule, t)
        w = 0.0 if solver_spec.diffusion == "zero" else float(interp.sigma(t))
        m = 1.0 + gc * dt
        if w != 0.0:
            tc = min(max(t, t_min), 1.0 - t_min)
            a, s, da, ds = (float(c) for c in interp.coefficients(tc))
            m += dt * 0.5 * w * w * (da - a * gc) / (s * (a * ds - da * s))
        g *= m
        q = m * m * q + w * w * dt
    return g, q


def check_scalar_growth(x0, x_terminal, g: float) -> list:
    x0 = np.asarray(x0, dtype=np.float64)
    err = float(np.max(np.abs(np.asarray(x_terminal) - g * x0)))
    scale = abs(g) * float(np.max(np.abs(x0)))
    if not err <= GROWTH_RTOL * scale:
        return [f"terminal state is not g_N*x0: max error {err:.3g} > {GROWTH_RTOL:g} * {scale:.6g}"]
    return []


def em_tolerance(x0, g: float, q: float) -> float:
    """EM_N_SIGMA standard errors of the pooled mean of x_N^2 around its expectation.

    With x_N = G x0 + e, e ~ N(0, Q) independent of x0 and n pooled
    coordinates: Var[mean(e^2)] = 2 Q^2 / n and Var[2 G mean(x0 e)] =
    4 G^2 mean(x0^2) Q / n.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    n = x0.size
    s0 = float(np.mean(x0 * x0))
    return EM_N_SIGMA * math.sqrt(2.0 * q * q / n + 4.0 * g * g * s0 * q / n)


def check_em_second_moment(x0, x_terminal, g: float, q: float) -> list:
    x0 = np.asarray(x0, dtype=np.float64)
    expected = g * g * float(np.mean(x0 * x0)) + q
    observed = float(np.mean(np.square(np.asarray(x_terminal, dtype=np.float64))))
    tol = em_tolerance(x0, g, q)
    if not abs(observed - expected) <= tol:
        return [f"terminal second moment {observed:.6g} differs from the recursion's "
                f"{expected:.6g} by more than {tol:.3g}"]
    return []


def check_trajectory_roundtrip(traj, loaded) -> list:
    times, states = loaded
    failures = []
    if tuple(times) != tuple(traj.node_times):
        failures.append(f"reloaded times {times} != {traj.node_times}")
    if len(states) != len(traj.states):
        return failures + [f"reloaded {len(states)} checkpoints, wrote {len(traj.states)}"]
    for i, (mem, disk) in enumerate(zip(traj.states, states)):
        if np.ascontiguousarray(mem, dtype="<f4").tobytes() != np.ascontiguousarray(disk).tobytes():
            failures.append(f"checkpoint {i} does not reload byte-equal to its float32 cast")
    return failures


def check_fld_values(values) -> list:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0 or not np.all(np.isfinite(values)) or np.any(values < 0):
        return [f"FLD values must be finite and nonnegative, got {values.tolist()}"]
    return []


def zero_field_loss(dim: int, data_std: float, interp, t_clip: float | None = None) -> float:
    """E||v_target||^2 over t ~ U[0, 1] (clipped to 1 - t_clip when given).

    The loss of a network that outputs zero: D * E_t[d_alpha^2 sd^2 +
    d_sigma^2], by the midpoint rule; clipping puts mass t_clip at the
    clip point, as ``training.sample_batch`` does for the vp path.
    """
    t = (np.arange(ZERO_FIELD_GRID, dtype=np.float64) + 0.5) / ZERO_FIELD_GRID
    if t_clip is not None:
        t = np.minimum(t, 1.0 - t_clip)
    da, ds = interp.d_alpha(t), interp.d_sigma(t)
    return float(dim * np.mean(da * da * data_std**2 + ds * ds))


def check_train_history(history, zero_field: float) -> list:
    """Logged losses finite, and their mean regression term below the zero-field loss."""
    if not history:
        return ["training logged no losses"]
    losses = np.array([row[1:] for row in history], dtype=np.float64)
    if not np.all(np.isfinite(losses)):
        return ["training logged a non-finite loss"]
    mean_fm = float(losses[:, 0].mean())
    if not mean_fm < zero_field:
        return [f"mean logged regression loss {mean_fm:.6g} is not below the "
                f"zero-field loss {zero_field:.6g}"]
    return []


def check_checkpoint_roundtrip(result) -> list:
    """The written checkpoint reloads parameters and optimizer state bit for bit."""
    ck = nn.load_checkpoint(result.checkpoint_path)
    failures = []
    pairs = [(f"param {k}", p, ck.net.parameters()[k]) for k, p in result.net.parameters().items()]
    state = result.optimizer.state_dict()
    if ck.optimizer is None:
        return ["checkpoint carries no optimizer state"]
    reloaded = ck.optimizer.state_dict()
    for moment in ("m", "v"):
        pairs += [(f"adam {moment} {k}", a, reloaded[moment].get(k)) for k, a in state[moment].items()]
    for label, want, got in pairs:
        if got is None or want.dtype != got.dtype or want.tobytes() != np.asarray(got).tobytes():
            failures.append(f"checkpoint {label} does not reload bit-equal")
    if ck.step != result.config.steps or reloaded["step_count"] != state["step_count"]:
        failures.append("checkpoint step counters do not reload")
    return failures


def expected_sweep_labels(s_starts) -> list:
    """Row labels of ``flowlag lag-sweep`` with default extra rows, in order."""
    return (["baseline"] + [f"linear:{s:g}:1.0" for s in s_starts if s != 1.0]
            + ["linear:1.0:1.1", "linear:1.05:1.05"])


def check_lag_sweep(code: int, out_dir, nfe: int, floor_nfe: int, s_starts,
                    n_checkpoints: int) -> list:
    """Exit code 0 or 5 (the documented overshoot outcome) and a complete CSV."""
    if code not in (0, 5):
        return [f"lag-sweep exited {code}"]
    path = Path(out_dir) / "lag_sweep.csv"
    if not path.is_file():
        return [f"lag-sweep wrote no {path.name}"]
    header, rows = reporting.read_csv(path)
    failures = []
    if len(header) != 4 + n_checkpoints:
        failures.append(f"CSV header has {len(header)} columns, expected {4 + n_checkpoints}")
    want = [(floor_nfe, "floor")] + [(nfe, label) for label in expected_sweep_labels(s_starts)]
    got = [(int(r[0]), r[1]) for r in rows]
    if got != want:
        failures.append(f"CSV rows {got} != expected {want}")
    try:
        values = [float(v) for r in rows for v in r[4:]]
    except ValueError:
        return failures + ["CSV holds a non-numeric FLD value"]
    return failures + check_fld_values(values)
