"""ODE/SDE integrators with a time-dependent velocity multiplier.

The corrector scales the model velocity by gamma(t) before any other
use: v_hat = gamma(t) * v.  gamma interpolates from s_start at t=0 to
s_end at t=1 under one of several decay shapes; s_start = s_end = 1
reproduces the uncorrected solver bit for bit.  The stochastic sampler
derives drift and score from the already-scaled velocity, so the ODE and
SDE corrections are consistent.

Every step updates its float64 batch x in place and returns it, using the
buffers ``integrate`` allocates once per run, or its own without ``work``.
Integration runs on the uniform grid {k/nfe : k = 0..nfe}; requested
checkpoint times snap to the nearest grid node (at most dt/2 away).
"""

from __future__ import annotations

import math
import operator
import os
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import ConfigError, NonFiniteVelocityError
from .interpolant import Interpolant, _check_time
from .rng import rng_for

SOLVER_METHODS = ("euler", "heun", "euler-maruyama")

# each decay shape's bump (1 at t=0, 0 at t=1, >= 0 between) and the bump's integral over [0, 1]
_SHAPES = {
    "linear": (lambda t: 1.0 - t, 0.5),
    "cosine": (lambda t: 0.5 * (1.0 + np.cos(np.pi * t)), 0.5),
    "quad-in": (lambda t: 1.0 - t * t, 2.0 / 3.0),
    "quad-out": (lambda t: (1.0 - t) ** 2, 1.0 / 3.0),
}
SCHEDULE_SHAPES = tuple(_SHAPES)   # the decay shapes of the corrector and of MAFM's weight


@dataclass(frozen=True)
class ScaleSchedule:
    """Velocity multiplier gamma(t) = s_end + (s_start - s_end) * bump(t) on [0, 1].

    The bump of ``shape`` and its closed-form area both come from ``_SHAPES``."""

    shape: str = "linear"
    s_start: float = 1.0
    s_end: float = 1.0

    def __post_init__(self):
        if self.shape not in SCHEDULE_SHAPES:
            raise ConfigError(f"unknown schedule shape {self.shape!r}; expected one of {SCHEDULE_SHAPES}")
        if not all(0.0 <= s < np.inf for s in (self.s_start, self.s_end)):
            raise ConfigError(f"schedule endpoints must be finite and nonnegative: {self}")

    def gamma(self, t):
        """Multiplier at time t, exact at the endpoints.  Equal endpoints give exactly
        s_end everywhere: every bump is finite and >= 0 on [0, 1] (cos(pi) is -1)."""
        t = _check_time(t)
        val = self.s_end + (self.s_start - self.s_end) * _SHAPES[self.shape][0](t)
        # pin endpoint values exactly (the affine form can be off by 1 ulp)
        val = np.where(t == 0.0, self.s_start, np.where(t == 1.0, self.s_end, val))
        return val if val.ndim else np.float64(val)

    def area(self) -> float:
        """Closed-form integral of gamma over [0, 1]."""
        return self.s_end + (self.s_start - self.s_end) * _SHAPES[self.shape][1]

    def describe(self) -> str:
        return f"{self.shape}:{self.s_start:g}:{self.s_end:g}"


IDENTITY_SCHEDULE = ScaleSchedule()   # linear 1 -> 1; 'constant-one' is its name


def calibrate_s_start(shape: str, s_end: float, target_area: float) -> float:
    """s_start giving the requested integral of gamma, closed form per shape."""
    if shape not in SCHEDULE_SHAPES:
        raise ConfigError(f"cannot calibrate shape {shape!r}")
    s_start = s_end + (target_area - s_end) / _SHAPES[shape][1]
    if not 0.0 <= s_start < np.inf:
        raise ConfigError(f"target area {target_area} is infeasible for shape {shape} "
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
    diffusion: str = "sigma"   # w_t = sigma_t; "zero" (only perfbench/tests set it) is Euler
    t_min: ClassVar[float] = 1e-3   # em_step's fixed score clamp; checks.em_moments reads it

    def __post_init__(self):
        if self.method not in SOLVER_METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {SOLVER_METHODS}")
        if self.nfe < 1:
            raise ConfigError("nfe must be >= 1")
        cps = tuple(float(_check_time(c)) for c in self.checkpoints)
        if not cps or list(cps) != sorted(cps):
            raise ConfigError("checkpoints must be sorted times within [0, 1]")
        object.__setattr__(self, "checkpoints", cps)
        if self.diffusion not in ("sigma", "zero"):
            raise ConfigError("diffusion rule must be 'sigma' or 'zero'")


# Rows per step block: 256 KB per float64 buffer at D=64, so temporaries stay in L2.
_BLOCK_ROWS = 512


def _view(buf, dtype):
    """buf's memory as an array of its shape in dtype; float64 storage fits any real dtype."""
    return np.ndarray(buf.shape, dtype, buffer=buf)


def _workspace(x, heun: bool, work=None):
    """``work``, or new buffers for steps on the batch x: three float64 row
    blocks, then Heun's v1 and predictor."""
    n, dim = x.shape
    return work or (*np.empty((3, min(_BLOCK_ROWS, n), dim)), *np.empty((2 * heun, n, dim)))


def _blocks(x, work, vtype):
    """Row blocks of x as (rows, b0, b1, b2), the block buffers cut to fit.  b0 is
    float64, x's dtype; b1 and b2 are viewed in vtype, the field's, so every
    temporary has its whole-array expression's dtype."""
    buffers = (work[0], _view(work[1], vtype), _view(work[2], vtype))
    for i in range(0, len(x), _BLOCK_ROWS):
        n = min(_BLOCK_ROWS, len(x) - i)
        yield (slice(i, i + n), *(b[:n] for b in buffers))


def scaled_velocity(field, schedule: ScaleSchedule, x, t: float):
    """(field(x, t), gamma(t)): one stage's checked field call and its multiplier.

    v is the field's own array; the steps apply gamma to it block by block,
    so gamma * v is the applied velocity.  A non-finite value in v raises
    NonFiniteVelocityError with t, the count of bad values and max |x|.
    """
    v = np.asarray(field(x, t))
    if not np.all(np.isfinite(v)):
        n_bad, x_max = int(np.size(v) - np.count_nonzero(np.isfinite(v))), float(np.max(np.abs(x)))
        raise NonFiniteVelocityError(
            f"velocity field returned {n_bad} non-finite values at t={t} (max |x| {x_max:.6g})",
            t=float(t), state_summary={"x_max_abs": x_max, "n_bad": n_bad})
    return v, float(schedule.gamma(t))


def _euler_update(x, v, gamma: float, dt: float, work):
    """x += (gamma v) dt, block by block."""
    for r, _, b, _ in _blocks(x, work, np.result_type(v, dt)):
        np.add(x[r], np.multiply(np.multiply(v[r], gamma, out=b), dt, out=b), out=x[r])
    return x


def euler_step(field, schedule: ScaleSchedule, x, t: float, dt: float, *, work=None):
    """x + gamma(t) v(x, t) dt."""
    v, gamma = scaled_velocity(field, schedule, x, t)
    return _euler_update(x, v, gamma, dt, _workspace(x, False, work))


def heun_step(field, schedule: ScaleSchedule, x, t: float, dt: float, *, work=None):
    """Two-stage predictor-corrector; each stage scaled at its own time.

    v1 is kept across the second field call, which may reuse the array
    the first call returned, so the step scales it into its own array.
    """
    work = _workspace(x, True, work)
    v, gamma = scaled_velocity(field, schedule, x, t)
    vtype = np.result_type(v, dt)
    v1, x_pred = _view(work[3], vtype), work[4]
    for r, _, b, _ in _blocks(x, work, vtype):
        np.add(x[r], np.multiply(np.multiply(v[r], gamma, out=v1[r]), dt, out=b), out=x_pred[r])
    del v   # one (N, D) array less while the field runs again
    v, gamma = scaled_velocity(field, schedule, x_pred, t + dt)
    for r, _, b, _ in _blocks(x, work, np.result_type(v1, v, dt)):
        dv = np.add(v1[r], np.multiply(v[r], gamma, out=b), out=b)
        np.add(x[r], np.multiply(dv, 0.5 * dt, out=dv), out=x[r])
    return x


def em_step(field, schedule: ScaleSchedule, interp: Interpolant, x, t: float, dt: float,
            rng: np.random.Generator, *, work=None):
    """Euler-Maruyama step of the noise-augmented dynamics.

    The model velocity is scaled by gamma first; drift and score are then
    derived from the scaled field, and the diffusion weight is w_t = sigma_t.
    Where sigma_t is 0 the step is the Euler update and draws no noise.
    The score's coefficients are taken at t clamped into [t_min, 1 - t_min],
    with the fixed ``SolverSpec.t_min`` = 1e-3.
    Noise is drawn block by block in row order: the stream of one whole draw.
    """
    work = _workspace(x, False, work)
    v, gamma = scaled_velocity(field, schedule, x, t)
    w, t_min = float(interp.coefficients(t)[1]), SolverSpec.t_min
    if w == 0.0:
        return _euler_update(x, v, gamma, dt, work)
    a, s, da, ds = (float(c) for c in interp.coefficients(min(max(t, t_min), 1.0 - t_min)))
    denom = s * (a * ds - da * s)
    for r, b0, b1, b2 in _blocks(x, work, np.result_type(v, dt)):
        gv = np.multiply(v[r], gamma, out=b1)
        score = np.subtract(np.multiply(x[r], da, out=b0), np.multiply(gv, a, out=b2), out=b0)
        score = np.divide(score, denom, out=score)
        drift = np.add(gv, np.multiply(score, 0.5 * w * w, out=score), out=score)
        x_r = np.add(x[r], np.multiply(drift, dt, out=drift), out=x[r])
        noise = rng.standard_normal(out=b0)
        np.add(x_r, np.multiply(noise, w * math.sqrt(dt), out=noise), out=x_r)
    return x


class Trajectory(NamedTuple):
    """What one integration recorded at its nodes, or a loaded file's node
    batches, read one at a time when used (see ``TrajectoryFile``)."""

    node_times: tuple   # grid times recorded (<= dt/2 from the requested ones)
    states: Sequence    # one record(x) per node: by default an (n_particles, dim) batch


def integrate(field, spec: SolverSpec, dim: int, n_particles: int, seed: int = 0,
              interp: Interpolant | None = None, x0=None, *, record=np.copy) -> Trajectory:
    """March a particle batch from t=0 to t=1 on a uniform nfe-step grid.

    The stochastic method needs the interpolant for its score conversion
    and diffusion weight; deterministic methods ignore it.  Initial
    particles default to standard normal noise drawn from a stream
    derived from ``seed``; pass ``x0`` to integrate a fixed batch.

    Each step updates the float64 batch in place, block by block, through
    one buffer set allocated for the whole run, bit for bit as whole-array
    expressions would.  The steps never write into an array the field
    returned, so the field may return its input, an array it keeps, or one
    output buffer it reuses.

    Each recorded node keeps ``record(x)`` of the live batch, which the next
    step overwrites: a copy by default, or a reduction such as
    ``MomentStats.from_samples``, so that no batch outlives its node.
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
    work = _workspace(x, spec.method == "heun")
    recorded = {}
    if 0 in node_for:
        recorded[0] = record(x)
    for k in range(spec.nfe):
        t, t_next = float(grid[k]), float(grid[k + 1])
        dt = t_next - t
        if spec.method == "heun":
            heun_step(field, spec.schedule, x, t, dt, work=work)
        elif spec.method == "euler" or spec.diffusion == "zero":
            euler_step(field, spec.schedule, x, t, dt, work=work)
        else:
            em_step(field, spec.schedule, interp, x, t, dt, noise_rng, work=work)
        if k + 1 in node_for:
            recorded[k + 1] = record(x)
    return Trajectory(tuple(float(grid[j]) for j in node_for), [recorded[j] for j in node_for])


# -- trajectory container ---------------------------------------------------

_TRAJ_MAGIC = b"FLOWTRAJ"
_TRAJ_VERSION = 1
_TRAJ_HEADER = struct.Struct("<8sIIII")   # magic, version, dim, particles, nodes


def _check_node_times(what: str, times) -> None:
    """Refuse ``what``'s node times if NaN, outside [0, 1] or decreasing; repeats are legal."""
    t = np.asarray(times, dtype=np.float64)
    if not (np.all((t >= 0.0) & (t <= 1.0)) and np.all(np.diff(t) >= 0.0)):
        raise ValueError(f"{what}: node times {t.tolist()} not sorted within [0, 1]")


def save_trajectory(path, traj: Trajectory) -> None:
    """Write the versioned binary container (little-endian, float32 states)."""
    n_particles, dim = np.shape(traj.states[0])
    if (len(traj.states) != len(traj.node_times)
            or any(np.shape(batch) != (n_particles, dim) for batch in traj.states)):
        raise ValueError("need one batch per node time, all of one shape")
    _check_node_times(f"trajectory {path}", traj.node_times)
    with open(path, "wb") as fh:
        fh.write(_TRAJ_HEADER.pack(_TRAJ_MAGIC, _TRAJ_VERSION, dim, n_particles, len(traj.states)))
        fh.write(np.asarray(traj.node_times, dtype="<f8").tobytes())
        for batch in traj.states:
            fh.write(np.ascontiguousarray(batch, dtype="<f4").tobytes())


def _stamp(st) -> tuple:
    return st.st_size, st.st_mtime_ns, st.st_ino


class TrajectoryFile(Sequence):
    """The node batches of a loaded trajectory file, each read from disk when indexed.

    Memory holds only the batches a caller keeps.  Every read refuses, with
    ValueError, a file whose size, modification time or inode has changed
    since it was loaded."""

    def __init__(self, path, stamp: tuple, offset: int, n_nodes: int, shape: tuple):
        self._path, self._stamp, self._offset = path, stamp, offset
        self._n_nodes, self.shape = n_nodes, shape   # shape: each node's (n_particles, dim)

    def __len__(self) -> int:
        return self._n_nodes

    def __getitem__(self, i):
        i = operator.index(i)
        if not -self._n_nodes <= i < self._n_nodes:
            raise IndexError(f"node {i} of a {self._n_nodes}-node trajectory")
        return self.node(i % self._n_nodes)

    def node(self, i: int) -> np.ndarray:
        """Node i's (n_particles, dim) float32 batch, with one open, seek and read."""
        nbytes = 4 * self.shape[0] * self.shape[1]
        with open(self._path, "rb") as fh:
            fh.seek(self._offset + i * nbytes)
            data = fh.read(nbytes)
            if _stamp(os.fstat(fh.fileno())) != self._stamp or len(data) != nbytes:
                raise ValueError(f"trajectory {self._path} changed since it was loaded")
        return np.frombuffer(data, dtype="<f4").reshape(self.shape)


def load_trajectory(path) -> Trajectory:
    """Read a trajectory container's header and node times; its states are a
    ``TrajectoryFile`` of float32 batches.  The file must hold exactly the
    nodes its header counts, at least one, and no byte more."""
    with open(path, "rb") as fh:
        header = fh.read(_TRAJ_HEADER.size)
        stamp = _stamp(os.fstat(fh.fileno()))
        size = stamp[0]
        if header[:8] != _TRAJ_MAGIC:
            raise ValueError(f"not a trajectory file: bad magic {header[:8]!r}")
        if len(header) < _TRAJ_HEADER.size:
            raise ValueError(f"trajectory {path} is {size} bytes, shorter than its "
                             f"{_TRAJ_HEADER.size}-byte header")
        _, version, dim, n_particles, n_nodes = _TRAJ_HEADER.unpack(header)
        if version != _TRAJ_VERSION:
            raise ValueError(f"unsupported trajectory version {version}")
        expected = _TRAJ_HEADER.size + 8 * n_nodes + 4 * n_nodes * n_particles * dim
        if size != expected or min(dim, n_particles, n_nodes) < 1:
            raise ValueError(f"trajectory {path} is {size} bytes; its header's {n_nodes} nodes "
                             f"of {n_particles}x{dim} need {expected}, and every count >= 1")
        times = np.frombuffer(fh.read(8 * n_nodes), dtype="<f8")
        _check_node_times(f"trajectory {path}", times)
        return Trajectory(tuple(times.tolist()), TrajectoryFile(
            os.path.abspath(path), stamp, fh.tell(), n_nodes, (n_particles, dim)))
