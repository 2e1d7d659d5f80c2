"""Velocity-regression objectives and the training loop.

One loss serves both objectives: the squared-error regression of the
path target velocity plus a decaying penalty on the gap between the
predicted speed and the sample transport distance ||x1 - x0||.  With
lam0 = 0 the penalty vanishes and the loss is the plain regression
("fm").  Noise/data pairs are always coupled positionally from
independently drawn streams; no data-dependent pairing exists anywhere
in this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .datasets import make_dataset
from .diagnostics import norm_profile
from .errors import ConfigError, TrainingDivergedError
from .interpolant import PATH_KINDS, make_interpolant
from .nn import Adam, Mlp, save_checkpoint
from .reporting import write_csv
from .rng import rng_for
from .solver import SCHEDULE_SHAPES, ScaleSchedule

# the values each string field of TrainConfig accepts
TRAIN_CHOICES = {"path": PATH_KINDS, "loss": ("fm", "mafm"), "mafm_shape": SCHEDULE_SHAPES,
                 "magnitude_target": ("displacement", "path"),
                 "precision": ("float64", "float32")}

# keeps the exponential path's d_sigma tail out of training batches
# (it grows like 1/sqrt(1-t) and its second moment is log-divergent)
VP_TIME_CLIP = 1e-3


@dataclass(frozen=True)
class LossBreakdown:
    fm_term: float
    magnitude_term: float = 0.0


def mafm_weight(t, shape: str = "linear", lam0: float = 0.2):
    """Decaying penalty weight; every shape integrates to lam0 / 2.

    The weight is the corrector schedule of ``shape`` from lam0 / (2 area), with
    area that of the shape's unit bump, down to 0: it vanishes at t=1 so the
    late-time contraction of the learned field is never penalized.
    """
    if not 0.0 <= lam0 < np.inf:
        raise ConfigError(f"lam0 must be finite and nonnegative, got {lam0}")
    start = lam0 * (0.5 / ScaleSchedule(shape, 1.0, 0.0).area())
    return ScaleSchedule(shape, start, 0.0).gamma(t)


def _check_batch(x0, x1, t):
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if x0.ndim != 2 or x0.shape != x1.shape or t.shape != (x0.shape[0],):
        raise ValueError("batch must be (B, D) endpoints with (B,) times")
    if x0.shape[0] == 0:
        raise ValueError("empty batch")
    return x0, x1, t


def mafm_loss(net: Mlp, interp, x0, x1, t, lam0: float = 0.2, shape: str = "linear",
              magnitude_target: str = "displacement"):
    """Mean of ||v_net(x_t, t) - v_target||^2 plus the weighted squared speed error.

    The speed target is ||x1 - x0|| per sample (the transport distance)
    regardless of path; set magnitude_target="path" to use the
    path-consistent ||v_target|| instead.  At a zero-norm prediction the
    speed penalty uses subgradient 0, so the update is deterministic.
    """
    x0, x1, t = _check_batch(x0, x1, t)
    if magnitude_target not in TRAIN_CHOICES["magnitude_target"]:
        raise ValueError(f"unknown magnitude target {magnitude_target!r}")
    b = x0.shape[0]
    xt = interp.sample_xt(x0, x1, t)
    target = interp.target_velocity(x0, x1, t)
    out, cache = net.forward_cached(xt, t)
    resid = out - target
    fm = float(np.einsum("ij,ij->", resid, resid) / b)
    grad_out = (2.0 / b) * resid
    mag = 0.0
    if lam0 != 0.0:  # lam0 = 0 is the plain regression: no speed term, no 0 * inf
        speed_target = np.linalg.norm(x1 - x0 if magnitude_target == "displacement"
                                      else target, axis=1)
        lam = mafm_weight(t, shape=shape, lam0=lam0)
        norms = np.linalg.norm(out, axis=1)
        gap = norms - speed_target
        mag = float(np.mean(lam * gap * gap))
        nonzero = norms > 0.0
        coeff = np.zeros(b)
        coeff[nonzero] = (2.0 / b) * lam[nonzero] * gap[nonzero] / norms[nonzero]
        grad_out = grad_out + coeff[:, None] * out
    grads = net.backward(cache, grad_out)
    return fm + mag, grads, LossBreakdown(fm_term=fm, magnitude_term=mag)


@dataclass
class TrainConfig:
    """Everything needed to reproduce a training run from its seed."""

    dataset: dict
    path: str = "linear"
    batch_size: int = 256
    steps: int = 20_000
    learning_rate: float = 1e-3
    loss: str = "fm"
    lam0: float = 0.2
    mafm_shape: str = "linear"
    magnitude_target: str = "displacement"
    seed: int = 0
    precision: str = "float64"
    hidden: tuple[int, ...] = (256, 256, 256)
    n_time_pairs: int = 8
    log_every: int = 100
    profile_every: int = 0

    def __post_init__(self):
        for name, allowed in TRAIN_CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        for name in ("batch_size", "steps", "log_every", "n_time_pairs", "learning_rate"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if any(width < 1 for width in self.hidden):
            raise ConfigError(f"hidden widths must be >= 1, got {list(self.hidden)}")
        if not (self.profile_every >= 0 and 0 <= self.lam0 < np.inf):
            raise ConfigError("profile_every must be nonnegative and lam0 finite and nonnegative")
        self.hidden = tuple(self.hidden)


@dataclass
class TrainResult:
    net: Mlp
    optimizer: Adam
    history: list          # rows of (step, fm_term, magnitude_term, total)
    config: TrainConfig
    checkpoint_path: Path | None = None


def sample_batch(dataset, interp, batch_size: int, rng: np.random.Generator):
    """Independently coupled (x0, x1, t): pairing is purely positional."""
    x1 = dataset.sample(batch_size, rng)
    x0 = rng.standard_normal((batch_size, dataset.dim))
    t = rng.uniform(0.0, 1.0, size=batch_size)
    if interp.kind == "vp":
        t = np.minimum(t, 1.0 - VP_TIME_CLIP)
    return x0, x1, t


def train(config: TrainConfig, out_dir=None) -> TrainResult:
    """Run one training job; deterministic given the config seed.

    With ``out_dir`` set, writes loss.csv, periodic norm_profile_<step>.csv
    (when profile_every > 0), and a final checkpoint.  A non-finite loss
    aborts with a diagnostic snapshot instead of continuing silently.
    """
    dataset = make_dataset(config.dataset)
    interp = make_interpolant(config.path)
    dtype = np.float64 if config.precision == "float64" else np.float32
    net = Mlp.create(dataset.dim, hidden=config.hidden, rng=rng_for(config.seed, "init"),
                     n_time_pairs=config.n_time_pairs, dtype=dtype)
    opt = Adam(lr=config.learning_rate)
    batch_rng = rng_for(config.seed, "batch")
    lam0 = config.lam0 if config.loss == "mafm" else 0.0

    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    history = []
    for step in range(1, config.steps + 1):
        x0, x1, t = sample_batch(dataset, interp, config.batch_size, batch_rng)
        loss, grads, parts = mafm_loss(net, interp, x0, x1, t, lam0=lam0,
                                       shape=config.mafm_shape,
                                       magnitude_target=config.magnitude_target)
        if not np.isfinite(loss):
            snapshot = _divergence_snapshot(net, step, parts)
            if out_dir is not None:
                (out_dir / "divergence.json").write_text(json.dumps(snapshot, indent=2))
            raise TrainingDivergedError(f"loss became non-finite at step {step}",
                                        step=step, snapshot=snapshot)
        opt.step(net.parameters(), grads)
        if step % config.log_every == 0 or step == config.steps:
            history.append((step, parts.fm_term, parts.magnitude_term, loss))
        if out_dir is not None and config.profile_every and step % config.profile_every == 0:
            profile = norm_profile(net.forward, interp, dataset, np.linspace(0.05, 0.95, 19),
                                   n_samples=2048, seed=config.seed)
            write_csv(out_dir / f"norm_profile_{step}.csv", *profile.table())

    checkpoint_path = None
    if out_dir is not None:
        write_csv(out_dir / "loss.csv", ("step", "fm_term", "magnitude_term", "total"), history)
        checkpoint_path = out_dir / "checkpoint.npz"
        save_checkpoint(checkpoint_path, net, opt, rng=batch_rng, step=config.steps,
                        extra={"train_config": asdict(config)})
    return TrainResult(net=net, optimizer=opt, history=history, config=config,
                       checkpoint_path=checkpoint_path)


def _divergence_snapshot(net: Mlp, step: int, parts: LossBreakdown) -> dict:
    stats = {}
    for key, p in net.parameters().items():
        stats[key] = {
            "finite": bool(np.all(np.isfinite(p))),
            "max_abs": float(np.max(np.abs(p[np.isfinite(p)])) if np.any(np.isfinite(p)) else np.nan),
        }
    return {"step": step, **asdict(parts), "parameters": stats}
