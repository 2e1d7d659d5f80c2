"""The three benchmark workloads.

Each workload is a closed loop with one caller: ``setup`` prepares the
inputs from the seed, ``ops`` lists one round of operations in a fixed
order, and each operation's ``check`` judges its output after the timed
call.  ``rate_name`` names the round's work over its wall time, and
lag-sweep's ``summary`` adds its round wall time.  The benchmark calls
flowlag only through module attributes (``training.train``, not a name
imported from it), so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from flowlag import cli, diagnostics, gaussian_oracle, interpolant, solver, training

from . import checks

DIM = 64
HIDDEN = (256, 256, 256)
N_TIME_PAIRS = 8
BATCH = 256
STD1 = {"kind": "gaussian", "dim": DIM}
STD2 = {"kind": "gaussian", "dim": DIM, "std": 2.0}
BASE_TRAIN = dict(batch_size=BATCH, hidden=HIDDEN, n_time_pairs=N_TIME_PAIRS,
                  precision="float32", log_every=20)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]   # failure messages; empty when correct
    work: float                        # units of the workload's work measure


# layer widths of the D=64 net: time features in, D out
WIDTHS = (DIM + 2 * N_TIME_PAIRS, *HIDDEN, DIM)


def mlp_flops(rows: int, backward: bool = False) -> float:
    """Computed matmul FLOPs of one Mlp pass over ``rows`` rows.

    Forward: 2*n_in*n_out per row per layer.  Backward: the weight
    gradient of every layer plus the input gradient of every layer but
    the first.  Elementwise work (bias, tanh) is not counted.
    """
    layer = [2 * a * b for a, b in zip(WIDTHS[:-1], WIDTHS[1:])]
    flops = sum(layer) + sum(layer[1:]) if backward else sum(layer)
    return float(rows * flops)


def checkpoint_bytes_computed() -> float:
    """Array bytes of a float32 checkpoint with optimizer state: parameters, Adam m and v."""
    n_params = sum(a * b + b for a, b in zip(WIDTHS[:-1], WIDTHS[1:]))
    return float(3 * n_params * 4)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


class TrainWorkload:
    """training.train on the acceptance-fixture configs in Tier-1 proportions."""

    name = "train"
    work_unit = "train steps"
    rate_name = "train_steps_per_s"
    # (label, config overrides, share); Tier-1 trains 20k+20k steps on std=1
    # and 10k per path on std=2, so shares 2:2:1:1:1
    MIX = (
        ("fm-std1-linear", dict(dataset=STD1), 2),
        ("mafm-std1-linear", dict(dataset=STD1, loss="mafm", lam0=0.2), 2),
        ("fm-std2-linear", dict(dataset=STD2, path="linear"), 1),
        ("fm-std2-vp", dict(dataset=STD2, path="vp"), 1),
        ("fm-std2-gvp", dict(dataset=STD2, path="gvp"), 1),
    )
    # A std=1 job needs about 600 steps before its mean logged loss clears
    # the zero-field loss (the first ~400 sit on a plateau near it).
    STEPS_PER_SHARE = 400
    WARMUP_STEPS = 40

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.jobs = []
        self._n = 0
        self.checkpoint_bytes = []

    def setup(self) -> None:
        self.jobs = []
        for j, (label, overrides, share) in enumerate(self.MIX):
            job_seed = int(np.random.SeedSequence([self.seed, j]).generate_state(1)[0])
            cfg = training.TrainConfig(**BASE_TRAIN, **overrides,
                                       steps=share * self.STEPS_PER_SHARE, seed=job_seed)
            interp = interpolant.make_interpolant(cfg.path)
            clip = training.VP_TIME_CLIP if cfg.path == "vp" else None
            zero = checks.zero_field_loss(DIM, cfg.dataset.get("std", 1.0), interp, clip)
            self.jobs.append((label, cfg, zero))
        for loss in ("fm", "mafm"):
            training.train(training.TrainConfig(**BASE_TRAIN, dataset=STD1, loss=loss,
                                                steps=self.WARMUP_STEPS, seed=self.seed))

    def ops(self) -> list:
        return [self._op(label, cfg, zero) for label, cfg, zero in self.jobs]

    def _op(self, label, cfg, zero) -> Op:
        self._n += 1
        out = _fresh_dir(self.work_dir / f"job-{self._n}")

        def check(result) -> list:
            try:
                self.checkpoint_bytes.append(Path(result.checkpoint_path).stat().st_size)
                return (checks.check_train_history(result.history, zero)
                        + checks.check_checkpoint_roundtrip(result))
            finally:
                shutil.rmtree(out, ignore_errors=True)

        return Op(label, lambda: training.train(cfg, out_dir=out), check, float(cfg.steps))

    def layer_context(self) -> dict:
        steps = sum(cfg.steps for _, cfg, _ in self.jobs)
        return {"train_gflop_computed": steps * (mlp_flops(BATCH) + mlp_flops(BATCH, True)) / 1e9,
                "checkpoint_bytes": float(np.mean(self.checkpoint_bytes)) if self.checkpoint_bytes else 0.0,
                "checkpoint_bytes_computed": checkpoint_bytes_computed()}


class LagSweepWorkload:
    """Two in-process ``flowlag lag-sweep`` invocations sharing checkpoint and seed."""

    name = "lag-sweep"
    work_unit = "particle-steps"
    rate_name = "particle_steps_per_s"
    NFES = (10, 20)
    PARTICLES = 8192
    FLOOR_NFE = 500
    S_STARTS = (1.0, 1.05, 1.1, 1.15, 1.2)   # the CLI's default --s-start
    N_CHECKPOINTS = 5                         # the CLI's default --checkpoints
    CKPT_STEPS = 200

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.checkpoint = None
        self.lag_ratios = []
        self._n = 0

    def setup(self) -> None:
        cfg = training.TrainConfig(**BASE_TRAIN, dataset=STD2, path="linear",
                                   steps=self.CKPT_STEPS, seed=self.seed)
        result = training.train(cfg, out_dir=_fresh_dir(self.work_dir / "checkpoint"))
        self.checkpoint = result.checkpoint_path
        x = np.random.default_rng([self.seed, 1]).standard_normal((self.PARTICLES, DIM))
        result.net.forward(x, 0.5)

    def _rows(self) -> int:
        return len(checks.expected_sweep_labels(self.S_STARTS))

    def ops(self) -> list:
        return [self._op(nfe) for nfe in self.NFES]

    def _op(self, nfe: int) -> Op:
        self._n += 1
        out = _fresh_dir(self.work_dir / f"sweep-{self._n}")
        argv = ["lag-sweep", "--checkpoint", str(self.checkpoint), "--nfe", str(nfe),
                "--particles", str(self.PARTICLES), "--floor-nfe", str(self.FLOOR_NFE),
                "--seed", str(self.seed), "--out", str(out)]

        def run():
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = cli.main(argv)
            return code, captured.getvalue()

        def check(result) -> list:
            code, text = result
            try:
                failures = checks.check_lag_sweep(code, out, nfe, self.FLOOR_NFE, self.S_STARTS,
                                                  self.N_CHECKPOINTS)
                if failures and text.strip():
                    failures.append("output: " + text.strip().replace("\n", " | "))
                # information only: criterion 11's lag ratio is gated by Tier-1
                match = re.search(r"\(([0-9.]+)x the floor\)", text)
                if match:
                    self.lag_ratios.append(float(match.group(1)))
                return failures
            finally:
                shutil.rmtree(out, ignore_errors=True)

        work = self.PARTICLES * (self.FLOOR_NFE + self._rows() * nfe)
        return Op(f"lag-sweep nfe={nfe}", run, check, float(work))

    def summary(self, round_walls) -> dict:
        out = {"sweep_wall_s": (float(np.median(round_walls)), "s")}
        if self.lag_ratios:
            out["baseline_over_floor_info"] = (self.lag_ratios[-1], "ratio")
        return out

    def layer_context(self) -> dict:
        evals = sum(self.FLOOR_NFE + self._rows() * nfe for nfe in self.NFES)
        return {"forward_flop_per_call": mlp_flops(self.PARTICLES),
                "field_evals_computed": float(evals),
                "fld_checkpoints_computed": float(len(self.NFES) * (1 + self._rows())
                                                  * self.N_CHECKPOINTS),
                "checkpoint_bytes": float(Path(self.checkpoint).stat().st_size),
                "checkpoint_bytes_computed": checkpoint_bytes_computed()}


class OracleSweepWorkload:
    """solver.integrate on the exact Gaussian oracle field, scored by track_fld."""

    name = "oracle-sweep"
    work_unit = "oracle cells"
    rate_name = "oracle_cells_per_s"
    DATA_STD = 2.0
    PARTICLES = 8192
    NFES = (10, 50)
    CHECKPOINTS = tuple(k / 10 for k in range(1, 11))
    SCHEDULES = (solver.IDENTITY_SCHEDULE, solver.ScaleSchedule("linear", 1.1, 1.0))
    STAGES = {"euler": 1, "heun": 2, "euler-maruyama": 1}

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.cells = []
        self._n = 0

    def setup(self) -> None:
        self.flow = gaussian_oracle.GaussianFlowSpec(dim=DIM, data_std=self.DATA_STD)
        self.reference = diagnostics.gaussian_reference(DIM, std=self.DATA_STD)
        self.x0 = np.random.default_rng([self.seed, 2]).standard_normal((self.PARTICLES, DIM))
        self.cells = []
        for kind in interpolant.PATH_KINDS:
            interp = interpolant.make_interpolant(kind)
            field = gaussian_oracle.OracleField(self.flow, interp)
            for method in solver.SOLVER_METHODS:
                for nfe in self.NFES:
                    for schedule in self.SCHEDULES:
                        spec = solver.SolverSpec(method=method, nfe=nfe, schedule=schedule,
                                                 checkpoints=self.CHECKPOINTS)
                        self.cells.append((kind, interp, field, spec))
        warm = self._op(*self.cells[0])
        warm.check(warm.run())

    def ops(self) -> list:
        return [self._op(*cell) for cell in self.cells]

    def _op(self, kind, interp, field, spec) -> Op:
        self._n += 1
        path = self.work_dir / f"cell-{self._n}.traj"

        def run():
            traj = solver.integrate(field, spec, dim=DIM, n_particles=self.PARTICLES,
                                    seed=self.seed, interp=interp, x0=self.x0)
            loaded = None
            if spec.method == "euler":   # the `flowlag sample` -> `diagnose fld` path
                solver.save_trajectory(path, traj)
                loaded = solver.load_trajectory(path)
            report = diagnostics.track_fld(traj if loaded is None else loaded, self.reference,
                                           reference_id="gaussian:analytic")
            return traj, loaded, report

        def check(result) -> list:
            traj, loaded, report = result
            try:
                if spec.method == "euler-maruyama":
                    g, q = checks.em_moments(self.flow, interp, spec)
                    failures = checks.check_em_second_moment(self.x0, traj.states[-1], g, q)
                else:
                    g = checks.scalar_growth(self.flow, interp, spec)
                    failures = checks.check_scalar_growth(self.x0, traj.states[-1], g)
                if loaded is not None:
                    failures += checks.check_trajectory_roundtrip(traj, loaded)
                return failures + checks.check_fld_values(report.values)
            finally:
                path.unlink(missing_ok=True)
                path.with_suffix(path.suffix + ".json").unlink(missing_ok=True)

        label = f"{kind} {spec.method} nfe={spec.nfe} {spec.schedule.describe()}"
        return Op(label, run, check, 1.0)

    def layer_context(self) -> dict:
        n_ckpt = len(self.CHECKPOINTS)
        return {"field_evals_computed": float(sum(spec.nfe * self.STAGES[spec.method]
                                                  for *_, spec in self.cells)),
                "fld_checkpoints_computed": float(len(self.cells) * n_ckpt),
                "trajectory_bytes_computed": float(8 + 16 + 8 * n_ckpt
                                                   + 4 * self.PARTICLES * DIM * n_ckpt)}


WORKLOADS = {w.name: w for w in (TrainWorkload, LagSweepWorkload, OracleSweepWorkload)}
