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
        delta = self.s_start - self.s_end
        if self.shape == "linear":
            bump = 1.0 - t
        elif self.shape == "cosine":
            bump = 0.5 * (1.0 + np.cos(np.pi * t))
        elif self.shape == "quad-in":
            bump = 1.0 - t * t
        else:  # quad-out
            bump = (1.0 - t) ** 2
        val = self.s_end + delta * bump
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


class _Workspace:
    """Step temporaries, allocated on the first step and reused after that.

    ``work(name, ufunc, a, b)`` is ``ufunc(a, b)`` written into the buffer
    ``name``, or into ``a`` itself when name is None.  Each buffer takes
    the shape and dtype the fresh expression would have, so both paths
    round alike.
    """

    def __init__(self):
        self._buffers = {}

    def __call__(self, name, ufunc, a, b):
        if name is None:
            return ufunc(a, b, out=a)
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        dtype = np.result_type(a, b)
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(shape, dtype)
        return ufunc(a, b, out=buf)


def _fresh(name, ufunc, a, b):
    """ufunc(a, b) as a new array: the step arithmetic without a workspace."""
    return ufunc(a, b)


def scaled_velocity(field, schedule: ScaleSchedule, x, t: float, *, work=None, name="v",
                    own=False):
    """gamma(t) * field(x, t), the literal per-call correction.

    When gamma(t) is exactly 1 this returns the field's own array, since
    1.0 * v equals v bit for bit; callers must not write into it.  With
    ``own`` the result is always a fresh array or a workspace buffer, for
    a caller that keeps it across another field call.  With a workspace
    ``work`` the product goes to its buffer ``name``.
    """
    v = np.asarray(field(x, t))
    if not np.all(np.isfinite(v)):
        raise NonFiniteVelocityError(
            f"velocity field returned non-finite values at t={t}", t=float(t),
            state_summary={"x_max_abs": float(np.max(np.abs(x))),
                           "n_bad": int(np.size(v) - np.count_nonzero(np.isfinite(v)))})
    gamma = float(schedule.gamma(t))
    if gamma == 1.0 and not own:
        return v
    return (work or _fresh)(name, np.multiply, v, gamma)


def euler_step(field, schedule: ScaleSchedule, x, t: float, dt: float, *, work=None):
    """x + gamma(t) v(x, t) dt.

    Returns a new array.  With a workspace ``work``, which ``integrate``
    passes, x is updated in place and returned instead; the other steps
    take ``work`` the same way.
    """
    op = work or _fresh
    v = scaled_velocity(field, schedule, x, t, work=work)
    return op(None, np.add, x, op("dv", np.multiply, v, dt))


def heun_step(field, schedule: ScaleSchedule, x, t: float, dt: float, *, work=None):
    """Two-stage predictor-corrector; each stage scaled at its own time.

    v1 is kept across the second field call, which may reuse the array
    the first call returned, so it is always the step's own copy.
    """
    op = work or _fresh
    v1 = scaled_velocity(field, schedule, x, t, work=work, own=True)
    x_pred = op("dx", np.add, x, op("dv", np.multiply, v1, dt))
    v2 = scaled_velocity(field, schedule, x_pred, t + dt, work=work, name="v2")
    return op(None, np.add, x, op("dv", np.multiply, op("dv", np.add, v1, v2), 0.5 * dt))


def _score_from_velocity(interp: Interpolant, x, v, t: float, t_min: float, op=_fresh):
    """Marginal score implied by a velocity field.

    Uses the linear relation between E[x0 | x_t] and the velocity; the
    conversion divides by sigma-derived factors, so coefficients are
    evaluated at t clamped into [t_min, 1 - t_min].
    """
    tc = min(max(t, t_min), 1.0 - t_min)
    a, s, da, ds = (float(c) for c in interp.coefficients(tc))
    denom = s * (a * ds - da * s)
    dax = op("dx", np.multiply, x, da)
    return op("dx", np.divide, op("dx", np.subtract, dax, op("dv", np.multiply, v, a)), denom)


def em_step(field, schedule: ScaleSchedule, interp: Interpolant, x, t: float, dt: float,
            rng: np.random.Generator, diffusion: str = "sigma", t_min: float = 1e-3, *,
            work=None):
    """Euler-Maruyama step of the noise-augmented dynamics.

    The model velocity is scaled by gamma first; drift and score are then
    derived from the scaled field, and the diffusion weight is w_t =
    sigma_t (or zero, which reduces to the deterministic Euler update).
    """
    op = work or _fresh
    v = scaled_velocity(field, schedule, x, t, work=work)
    w = 0.0 if diffusion == "zero" else float(interp.sigma(t))
    if w == 0.0:
        return op(None, np.add, x, op("dv", np.multiply, v, dt))
    score = _score_from_velocity(interp, x, v, t, t_min, op)
    drift = op("dx", np.add, v, op("dx", np.multiply, score, 0.5 * w * w))
    noise = rng.standard_normal(x.shape)
    x = op(None, np.add, x, op("dx", np.multiply, drift, dt))
    return op(None, np.add, x, op("dx", np.multiply, noise, w * math.sqrt(dt)))


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

    The batch is updated in place, and step temporaries are reused from
    step to step; the results equal those of the fresh-array steps bit for
    bit.  The steps never write into an array the field returned, so the
    field may return its input, an array it keeps, or one output buffer it
    reuses from call to call.
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
    work = _Workspace()
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
