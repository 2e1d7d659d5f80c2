"""ODE/SDE integrators with a time-dependent velocity multiplier.

The corrector scales the model velocity by gamma(t) before any other
use: v_hat = gamma(t) * v.  gamma interpolates from s_start at t=0 to
s_end at t=1 under one of several decay shapes; s_start = s_end = 1
reproduces the uncorrected solver bit for bit.  The stochastic sampler
derives drift and score from the already-scaled velocity, so the ODE and
SDE corrections are consistent.

Integration runs on the uniform grid {k/nfe : k = 0..nfe}; requested
checkpoint times snap to the nearest grid node (at most dt/2 away).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NonFiniteVelocityError
from .interpolant import Interpolant
from .rng import rng_for

SCHEDULE_SHAPES = ("linear", "cosine", "quad-in", "quad-out", "constant-one")
SOLVER_METHODS = ("euler", "heun", "euler-maruyama")

# integral over [0,1] of each shape's decay bump (1 at t=0, 0 at t=1)
_BUMP_AREA = {"linear": 0.5, "cosine": 0.5, "quad-in": 2.0 / 3.0, "quad-out": 1.0 / 3.0}


def _bump(shape: str, t):
    """The decay bump of ``shape`` (a key of _BUMP_AREA) at times ``t``."""
    if shape == "linear":
        return 1.0 - t
    if shape == "cosine":
        return 0.5 * (1.0 + np.cos(np.pi * t))
    if shape == "quad-in":
        return 1.0 - t * t
    return (1.0 - t) ** 2  # quad-out


@dataclass(frozen=True)
class ScaleSchedule:
    """Velocity multiplier gamma(t) with endpoints (s_start, s_end)."""

    shape: str = "linear"
    s_start: float = 1.0
    s_end: float = 1.0

    def __post_init__(self):
        if self.shape not in SCHEDULE_SHAPES:
            raise ConfigError(f"unknown schedule shape {self.shape!r}; expected one of {SCHEDULE_SHAPES}")
        if self.s_start < 0.0 or self.s_end < 0.0:
            raise ConfigError("schedule endpoints must be nonnegative")
        if self.shape == "constant-one" and not (self.s_start == self.s_end == 1.0):
            raise ConfigError("constant-one schedule requires s_start = s_end = 1")

    def gamma(self, t):
        """Multiplier at time t; exact at the endpoints and exactly 1
        everywhere when the endpoints are both 1."""
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 0.0) or np.any(t > 1.0) or not np.all(np.isfinite(t)):
            raise ValueError("schedule time must lie in [0, 1]")
        if self.shape == "constant-one" or self.s_start == self.s_end:
            return np.full_like(t, self.s_start) if t.ndim else np.float64(self.s_start)
        val = self.s_end + (self.s_start - self.s_end) * _bump(self.shape, t)
        # pin endpoint values exactly (the affine form can be off by 1 ulp)
        val = np.where(t == 0.0, self.s_start, np.where(t == 1.0, self.s_end, val))
        return val if val.ndim else np.float64(val)

    def area(self) -> float:
        """Closed-form integral of gamma over [0, 1]."""
        if self.shape == "constant-one":
            return 1.0
        return self.s_end + (self.s_start - self.s_end) * _BUMP_AREA[self.shape]

    def describe(self) -> str:
        return f"{self.shape}:{self.s_start:g}:{self.s_end:g}"


IDENTITY_SCHEDULE = ScaleSchedule(shape="constant-one", s_start=1.0, s_end=1.0)


def calibrate_s_start(shape: str, s_end: float, target_area: float) -> float:
    """s_start giving the requested integral of gamma, closed form per shape."""
    if shape not in _BUMP_AREA:
        raise ConfigError(f"cannot calibrate shape {shape!r}")
    s_start = s_end + (target_area - s_end) / _BUMP_AREA[shape]
    if s_start < 0.0:
        raise ValueError(f"target area {target_area} is infeasible for shape {shape} "
                         f"with s_end {s_end}")
    return s_start


def parse_schedule(text: str) -> ScaleSchedule:
    """Parse 'shape:s_start:s_end' (e.g. 'linear:1.1:1.0') or 'constant-one'."""
    parts = text.split(":")
    if parts[0] == "constant-one" and len(parts) == 1:
        return IDENTITY_SCHEDULE
    if len(parts) != 3:
        raise ConfigError(f"schedule must look like 'linear:1.1:1.0', got {text!r}")
    try:
        return ScaleSchedule(shape=parts[0], s_start=float(parts[1]), s_end=float(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"bad schedule {text!r}: {exc}") from exc


@dataclass(frozen=True)
class SolverSpec:
    """Method, step budget, correction schedule, and recording times."""

    method: str = "euler"
    nfe: int = 50
    schedule: ScaleSchedule = IDENTITY_SCHEDULE
    checkpoints: tuple = (1.0,)
    diffusion: str = "sigma"   # SDE weight rule: w_t = sigma_t, or "zero"
    t_min: float = 1e-3        # score-conversion clamp near the boundaries

    def __post_init__(self):
        if self.method not in SOLVER_METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {SOLVER_METHODS}")
        if self.nfe < 1:
            raise ConfigError("nfe must be >= 1")
        cps = tuple(float(c) for c in self.checkpoints)
        if not cps or any(c < 0.0 or c > 1.0 for c in cps) or list(cps) != sorted(cps):
            raise ConfigError("checkpoints must be sorted times within [0, 1]")
        object.__setattr__(self, "checkpoints", cps)
        if self.diffusion not in ("sigma", "zero"):
            raise ConfigError("diffusion rule must be 'sigma' or 'zero'")
        if not 0.0 < self.t_min < 0.5:
            raise ConfigError("t_min must lie in (0, 0.5)")


# Rows per step block: 256 KB per float64 buffer at D=64, so temporaries stay in L2.
_BLOCK_ROWS = 512


def _view(buf, dtype):
    """buf's memory as an array of its shape in dtype; float64 storage fits any real dtype."""
    return np.ndarray(buf.shape, dtype, buffer=buf)


def _blocks(x, work, vtype):
    """Row blocks of x as (rows, b0, b1, b2): block buffers cut to fit, None without
    ``work``.  b0 is float64, x's dtype under ``integrate``; b1 and b2 are viewed in
    vtype, the field's, so every temporary has its whole-array expression's dtype."""
    buffers = (work[0], _view(work[1], vtype), _view(work[2], vtype)) if work else [None] * 3
    for i in range(0, len(x), _BLOCK_ROWS):
        n = min(_BLOCK_ROWS, len(x) - i)
        yield (slice(i, i + n), *(None if b is None else b[:n] for b in buffers))


def scaled_velocity(field, schedule: ScaleSchedule, x, t: float):
    """gamma(t) * field(x, t), the literal per-call correction.

    When gamma(t) is exactly 1 this returns the field's own array, since
    1.0 * v equals v bit for bit; callers must not write into it.
    """
    v = np.asarray(field(x, t))
    if not np.all(np.isfinite(v)):
        raise NonFiniteVelocityError(
            f"velocity field returned non-finite values at t={t}", t=float(t),
            state_summary={"x_max_abs": float(np.max(np.abs(x))),
                           "n_bad": int(np.size(v) - np.count_nonzero(np.isfinite(v)))})
    gamma = float(schedule.gamma(t))
    return v if gamma == 1.0 else v * gamma


def _velocity(field, schedule: ScaleSchedule, x, t: float):
    """(field(x, t), gamma(t)), for a step that applies gamma block by block."""
    return scaled_velocity(field, IDENTITY_SCHEDULE, x, t), float(schedule.gamma(t))


def _euler_update(x, v, gamma: float, dt: float, work):
    """x + (gamma v) dt, block by block."""
    vtype = np.result_type(v, dt)
    out = x if work else np.empty(x.shape, np.result_type(x, vtype))
    for r, _, b, _ in _blocks(x, work, vtype):
        np.add(x[r], np.multiply(np.multiply(v[r], gamma, out=b), dt, out=b), out=out[r])
    return out


def euler_step(field, schedule: ScaleSchedule, x, t: float, dt: float, *, work=None):
    """x + gamma(t) v(x, t) dt, as a new array; with ``work``, the buffers that
    ``integrate`` passes, x is updated in place and returned, as in every step."""
    return _euler_update(x, *_velocity(field, schedule, x, t), dt, work)


def heun_step(field, schedule: ScaleSchedule, x, t: float, dt: float, *, work=None):
    """Two-stage predictor-corrector; each stage scaled at its own time.

    v1 is kept across the second field call, which may reuse the array
    the first call returned, so the step scales it into its own array.
    """
    v, gamma = _velocity(field, schedule, x, t)
    vtype = np.result_type(v, dt)
    v1, x_pred = ((_view(work[3], vtype), work[4]) if work else
                  (np.empty(x.shape, vtype), np.empty(x.shape, np.result_type(x, vtype))))
    for r, _, b, _ in _blocks(x, work, vtype):
        np.add(x[r], np.multiply(np.multiply(v[r], gamma, out=v1[r]), dt, out=b), out=x_pred[r])
    del v   # one (N, D) array less while the field runs again
    v, gamma = _velocity(field, schedule, x_pred, t + dt)
    vtype = np.result_type(v1, v, dt)
    out = x if work else np.empty(x.shape, np.result_type(x, vtype))
    for r, _, b, _ in _blocks(x, work, vtype):
        dv = np.add(v1[r], np.multiply(v[r], gamma, out=b), out=b)
        np.add(x[r], np.multiply(dv, 0.5 * dt, out=dv), out=out[r])
    return out


def em_step(field, schedule: ScaleSchedule, interp: Interpolant, x, t: float, dt: float,
            rng: np.random.Generator, diffusion: str = "sigma", t_min: float = 1e-3, *,
            work=None):
    """Euler-Maruyama step of the noise-augmented dynamics.

    The model velocity is scaled by gamma first; drift and score are then
    derived from the scaled field, and the diffusion weight is w_t =
    sigma_t (or zero, which reduces to the deterministic Euler update).
    The score's coefficients are taken at t clamped into [t_min, 1 - t_min].
    Noise is drawn block by block in row order: the stream of one whole draw.
    """
    v, gamma = _velocity(field, schedule, x, t)
    w = 0.0 if diffusion == "zero" else float(interp.sigma(t))
    if w == 0.0:
        return _euler_update(x, v, gamma, dt, work)
    a, s, da, ds = (float(c) for c in interp.coefficients(min(max(t, t_min), 1.0 - t_min)))
    denom = s * (a * ds - da * s)
    vtype = np.result_type(v, dt)
    out = x if work else np.empty(x.shape, np.result_type(x, vtype, np.float64))  # float64 noise
    for r, b0, b1, b2 in _blocks(x, work, vtype):
        gv = np.multiply(v[r], gamma, out=b1)
        score = np.subtract(np.multiply(x[r], da, out=b0), np.multiply(gv, a, out=b2), out=b0)
        score = np.divide(score, denom, out=score)
        drift = np.add(gv, np.multiply(score, 0.5 * w * w, out=score), out=score)
        x_r = np.add(x[r], np.multiply(drift, dt, out=drift), out=out[r])
        noise = rng.standard_normal(x_r.shape) if b0 is None else rng.standard_normal(out=b0)
        np.add(x_r, np.multiply(noise, w * math.sqrt(dt), out=noise), out=x_r)
    return out


@dataclass
class Trajectory:
    """Particle batches recorded at checkpoint nodes during one integration."""

    checkpoint_times: tuple      # requested times
    node_times: tuple            # grid times actually recorded (<= dt/2 away)
    states: list                 # one (n_particles, dim) array per checkpoint
    dim: int
    n_particles: int
    seed: int
    spec: SolverSpec

    def __post_init__(self):
        if len(self.states) != len(self.checkpoint_times):
            raise ValueError("one state batch per checkpoint required")
        for s in self.states:
            if s.shape != (self.n_particles, self.dim):
                raise ValueError("inconsistent batch shapes across checkpoints")


def integrate(field, spec: SolverSpec, dim: int, n_particles: int, seed: int = 0,
              interp: Interpolant | None = None, x0=None) -> Trajectory:
    """March a particle batch from t=0 to t=1 on a uniform nfe-step grid.

    The stochastic method needs the interpolant for its score conversion
    and diffusion weight; deterministic methods ignore it.  Initial
    particles default to standard normal noise drawn from a stream
    derived from ``seed``; pass ``x0`` to integrate a fixed batch.

    The batch is updated in place, block by block, through buffers allocated
    once per run, bit for bit as whole-array steps would.  The steps never
    write into an array the field returned, so the field may return its
    input, an array it keeps, or one output buffer it reuses.
    """
    if spec.method == "euler-maruyama" and interp is None:
        raise ConfigError("euler-maruyama integration requires the interpolant")
    if x0 is None:
        x = rng_for(seed, "particles:init").standard_normal((n_particles, dim))
    else:
        x = np.array(x0, dtype=np.float64)
        if x.shape != (n_particles, dim):
            raise ValueError(f"x0 must have shape {(n_particles, dim)}, got {x.shape}")
    noise_rng = rng_for(seed, "particles:noise")

    # arange/nfe gives each node as the correctly rounded k/nfe (endpoint 1.0 exact)
    grid = np.arange(spec.nfe + 1, dtype=np.float64) / spec.nfe
    node_for = [int(round(c * spec.nfe)) for c in spec.checkpoints]
    # buffers for the whole run: three float64 row blocks, then Heun's v1 and predictor
    work = (*np.empty((3, min(_BLOCK_ROWS, n_particles), dim)),
            *np.empty((2 * (spec.method == "heun"), n_particles, dim)))
    recorded = {}
    if 0 in node_for:
        recorded[0] = x.copy()
    for k in range(spec.nfe):
        t, t_next = float(grid[k]), float(grid[k + 1])
        dt = t_next - t
        if spec.method == "euler":
            x = euler_step(field, spec.schedule, x, t, dt, work=work)
        elif spec.method == "heun":
            x = heun_step(field, spec.schedule, x, t, dt, work=work)
        else:
            x = em_step(field, spec.schedule, interp, x, t, dt, noise_rng,
                        diffusion=spec.diffusion, t_min=spec.t_min, work=work)
        if k + 1 in node_for:
            recorded[k + 1] = x.copy()
    states = [recorded[j] for j in node_for]
    node_times = tuple(float(grid[j]) for j in node_for)
    return Trajectory(checkpoint_times=spec.checkpoints, node_times=node_times,
                      states=states, dim=dim, n_particles=n_particles, seed=seed,
                      spec=spec)


# -- trajectory container ---------------------------------------------------

_TRAJ_MAGIC = b"FLOWTRAJ"
_TRAJ_VERSION = 1


def save_trajectory(path, traj: Trajectory) -> None:
    """Write the versioned binary container (little-endian, float32 states)."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_TRAJ_MAGIC)
        fh.write(struct.pack("<IIII", _TRAJ_VERSION, traj.dim, traj.n_particles,
                             len(traj.node_times)))
        fh.write(np.asarray(traj.node_times, dtype="<f8").tobytes())
        for batch in traj.states:
            fh.write(np.ascontiguousarray(batch, dtype="<f4").tobytes())
    meta = {"seed": traj.seed, "method": traj.spec.method, "nfe": traj.spec.nfe,
            "schedule": traj.spec.schedule.describe(),
            "checkpoints": list(traj.checkpoint_times)}
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(meta, indent=2) + "\n")


def load_trajectory(path) -> tuple:
    """Read a trajectory container; returns (node_times, list of float32 batches)."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _TRAJ_MAGIC:
            raise ValueError(f"not a trajectory file: bad magic {magic!r}")
        version, dim, n_particles, n_checkpoints = struct.unpack("<IIII", fh.read(16))
        if version != _TRAJ_VERSION:
            raise ValueError(f"unsupported trajectory version {version}")
        times = np.frombuffer(fh.read(8 * n_checkpoints), dtype="<f8")
        states = []
        for _ in range(n_checkpoints):
            raw = fh.read(4 * n_particles * dim)
            states.append(np.frombuffer(raw, dtype="<f4").reshape(n_particles, dim))
    return tuple(times.tolist()), states
