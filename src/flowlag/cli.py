"""Command-line entry point.

Subcommands: train, sample, oracle {jensen|cross-term|rho},
diagnose {norm|fld|lag}, lag-sweep, schedule-calibrate, and run (which
executes one experiment described by a JSON config).  Every subcommand
but run is one entry of EXPERIMENTS, whose parameters are declared once:
flags, train configs and run's JSON ``spec`` are checked against them,
and all reach the entry's one function through _dispatch.  Exit codes:

    0  success
    2  config/argument problem
    3  a runtime verification did not hold
    4  numerical or IO fault
    5  energy injection did not help (low-dimensional overshoot caveat)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .datasets import GaussianData, make_dataset
from .diagnostics import (MomentStats, lag_improvement, norm_profile, reference_from_dataset,
                          track_fld)
from .errors import CheckFailedError, ConfigError
from .gaussian_oracle import (conditional_pair_sample, cross_term_expectation, jensen_gap,
                              marginal_variance, require_n_mc, rho_statistics,
                              typical_shell_point, velocity_variance)
from .interpolant import PATH_KINDS, make_interpolant
from .nn import load_checkpoint
from .reporting import write_csv, write_manifest
from .rng import rng_for
from .schema import REQUIRED, Param, finite_float, params_of, validated
from .solver import (IDENTITY_SCHEDULE, SOLVER_METHODS, ScaleSchedule, SolverSpec,
                     calibrate_s_start, integrate, load_trajectory, parse_schedule,
                     save_trajectory)
from .training import TRAIN_CHOICES, TrainConfig, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3
EXIT_RUNTIME = 4
EXIT_OVERSHOOT = 5

OVERSHOOT_CAVEAT = (
    "no s_start > 1.0 improved the terminal distance: on low-dimensional or "
    "symmetric targets, initial energy injection may cause the solver to "
    "overshoot the target manifold instead of correcting lag")

_floor_memo = {}   # one entry: (checkpoint sha256, floor SolverSpec, particles, seed) -> Trajectory


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return EXIT_CONFIG
    try:
        return int(args.func(args) or EXIT_OK)
    except (ConfigError, json.JSONDecodeError, FileNotFoundError, FileExistsError,
            IsADirectoryError, NotADirectoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckFailedError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except Exception as exc:  # numerical faults, bad files, diverged runs
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


# -- the experiment table: entries and flags -------------------------------


@dataclass(frozen=True)
class Experiment:
    """``func(params, seed, out)`` runs the experiment and returns its exit code.

    A name whose first word is a key of _GROUPS is a nested subcommand
    ('oracle-rho' is ``flowlag oracle rho``).  train's parameters are
    TrainConfig's fields but its seed; its one flag is --config, a train
    config file.  ``out`` is "dir" (a directory), "bin" or "csv" (a file; a
    CSV without --out goes to stdout) or None; run writes a file output to
    <out_dir>/<name>.<out>.  An experiment that is not ``seeded`` takes no seed.
    """

    name: str
    help: str
    func: Callable
    params: tuple
    out: str | None = "csv"
    seeded: bool = True


_SEED = Param("seed", int, 0)
_ENVELOPE = (Param("experiment", str), Param("out_dir", str), _SEED, Param("spec", dict))
_GROUPS = {"oracle": "closed-form Gaussian oracle measurements",
           "diagnose": "norm profiles and distance tracking"}
_OUT_HELP = {"dir": "artifact directory", "bin": "trajectory file (binary)",
             "csv": "CSV path (default: stdout)"}


def _add_flag(parser, p: Param) -> None:
    flag = "--" + p.name.replace("_", "-")
    if p.type is bool:
        parser.add_argument(flag, action="store_true", help=p.help)
        return

    convert = finite_float if p.type is float else p.type

    def parse_list(text):
        values = [convert(v) for v in text.split(",") if v]
        if not values:
            raise ValueError("no values")
        return values

    parse_list.__name__ = f"comma-separated {p.type.__name__}"  # argparse errors name it
    value = {"required": True} if p.default is REQUIRED else {"default": p.default}
    parser.add_argument(flag, type=parse_list if p.many else convert, choices=p.choices,
                        help=p.help, **value)


def _words(name: str) -> list:
    """The subcommand words of the experiment ``name``."""
    group, _, rest = name.partition("-")
    return [group, rest] if group in _GROUPS else [name]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowlag",
        description="Velocity-deficit experiments: train, sample, and measure integration lag.")
    sub = parser.add_subparsers(dest="command")
    groups = {}
    for exp in EXPERIMENTS.values():
        *group, command = _words(exp.name)
        where = sub
        if group:
            if group[0] not in groups:
                parent = sub.add_parser(group[0], help=_GROUPS[group[0]])
                groups[group[0]] = parent.add_subparsers(dest=f"{group[0]}_command")
            where = groups[group[0]]
        p = where.add_parser(command, help=exp.help)
        if exp.name == "train":  # its seed is a field of its config file
            p.add_argument("--config", required=True, type=Path)
        else:
            for param in exp.params + ((_SEED,) if exp.seeded else ()):
                _add_flag(p, param)
        if exp.out is not None:
            p.add_argument("--out", required=exp.out != "csv", type=Path,
                           help=_OUT_HELP[exp.out])
        p.set_defaults(func=_from_flags, experiment=exp)

    p = sub.add_parser("run", help="execute one experiment from a JSON config")
    p.add_argument("--config", required=True, type=Path)
    p.set_defaults(func=_cmd_run)
    return parser


def _from_flags(args) -> int:
    exp = args.experiment
    if exp.name == "train":
        params = validated("train config", exp.params + (_SEED,),
                           json.loads(Path(args.config).read_text()))
        seed = params.pop("seed")
    else:
        params = {p.name: getattr(args, p.name) for p in exp.params}
        seed = getattr(args, "seed", _SEED.default)
    return _dispatch(exp, params, seed, getattr(args, "out", None))


def _cmd_run(args) -> int:
    """Run one experiment from a JSON document: experiment, out_dir, seed and spec."""
    env = validated("experiment config", _ENVELOPE,
                    json.loads(Path(args.config).read_text()))
    exp = EXPERIMENTS.get(env["experiment"])
    if exp is None:
        raise ConfigError(f"unknown experiment {env['experiment']!r}; "
                          f"expected one of {tuple(EXPERIMENTS)}")
    spec = env["spec"]
    if "seed" in spec:
        raise ConfigError("the seed belongs in the experiment config, not in 'spec'")
    params = validated(exp.name, exp.params, spec)
    out = Path(env["out_dir"])
    if exp.out in ("bin", "csv"):
        out = out / f"{exp.name}.{exp.out}"
    return _dispatch(exp, params, env["seed"], out if exp.out else None)


def _dispatch(exp: Experiment, params: dict, seed: int, out) -> int:
    """Check the seed, write the output's manifest, then run the experiment: a file
    output X's manifest is X.json, a directory output's is manifest.json inside it."""
    if seed < 0 or (seed != _SEED.default and not exp.seeded):
        raise ConfigError(f"{exp.name} takes no seed" if not exp.seeded
                          else f"seed must be >= 0, got {seed}")
    if out is not None:
        manifest = Path(out) / "manifest.json" if exp.out == "dir" else Path(f"{out}.json")
        write_manifest(manifest, exp.name, params, seed)
    return exp.func(params, seed, out)


# -- helpers ----------------------------------------------------------------


def _load_net(source):
    """(checkpoint, its interpolant, its train config) from ``source``, a path or an open file."""
    ck = load_checkpoint(source)
    train_config = ck.extra.get("train_config")
    if train_config is None:
        raise ConfigError(f"checkpoint {getattr(source, 'name', source)} carries no train config")
    return ck, make_interpolant(train_config["path"]), train_config


def _reference(spec, seed: int):
    """(moments, id) of the target ``spec``, a dataset block, its JSON text or 'gaussian:DIM:STD'
    (fit on draws if not analytic).  The id ends in 16 hex digits of sha256(mean + cov bytes)."""
    if isinstance(spec, str) and spec.startswith("gaussian:"):
        try:
            _, dim, std = spec.split(":")
            spec = {"kind": "gaussian", "dim": int(dim), "std": float(std)}
        except ValueError:
            raise ConfigError("gaussian reference must look like gaussian:DIM:STD") from None
    elif isinstance(spec, str) and spec.strip().startswith("{"):
        spec = json.loads(spec)
    elif isinstance(spec, str):
        raise ConfigError(f"cannot parse reference {spec!r}")
    dataset = make_dataset(spec)
    ref = reference_from_dataset(dataset, seed=seed)
    kind = "analytic" if ref.n_samples == 0 else f"empirical:{ref.n_samples}"
    digest = hashlib.sha256(ref.mean.tobytes() + ref.cov.tobytes()).hexdigest()[:16]
    return ref, f"{dataset.kind}:{kind}:{digest}"


def _at_least(params: dict, name: str, floor: int) -> int:
    """``params[name]``, checked to be at least ``floor``."""
    if params[name] < floor:
        raise ConfigError(f"{name} must be >= {floor}, got {params[name]}")
    return params[name]


def _report(out, header, rows, failures=()) -> None:
    """Rows as a CSV at ``out``, or on stdout; then CheckFailedError if any
    check in ``failures`` did not hold."""
    write_csv(sys.stdout if out is None else out, header, rows)
    if out is not None:
        print(f"wrote {out}")
    if failures:
        raise CheckFailedError("; ".join(failures))


# -- experiments ------------------------------------------------------------


def _train(params, seed, out) -> int:
    config = TrainConfig(**params, seed=seed)
    result = train(config, out_dir=out)
    final = result.history[-1]
    print(f"trained {config.steps} steps; final loss {final[3]:.6g} "
          f"(fm {final[1]:.6g}, magnitude {final[2]:.6g})")
    print(f"checkpoint: {result.checkpoint_path}")
    return EXIT_OK


def _sample(params, seed, out) -> int:
    n = _at_least(params, "particles", 2)  # the FLD of fewer particles is undefined
    ck, interp, *_ = _load_net(params["checkpoint"])
    spec = SolverSpec(method=params["method"], nfe=params["nfe"],
                      schedule=parse_schedule(params["schedule"]),
                      checkpoints=tuple(params["checkpoints"]))
    traj = integrate(ck.net.forward, spec, dim=ck.net.dim, n_particles=n, seed=seed,
                     interp=interp)
    save_trajectory(out, traj)
    print(f"wrote {out} ({n} particles, {len(spec.checkpoints)} checkpoints)")
    return EXIT_OK


def _oracle_jensen(params, seed, out) -> int:
    data = GaussianData(params["dim"], params["data_std"])
    interp = make_interpolant(params["path"])
    rng = rng_for(seed, "oracle:jensen")
    rows, failures = [], []
    for t in params["t"]:
        x = typical_shell_point(data, interp, t)
        res = jensen_gap(data, interp, x, t, params["n_mc"], rng)
        rows.append((t, res.learned_energy, res.target_energy, res.mc_stderr))
        if velocity_variance(data, interp, t) == 0.0:  # deterministic target: no gap to resolve
            if not np.isclose(res.learned_energy, res.target_energy, rtol=1e-12, atol=0.0):
                failures.append(f"t={t}: learned and target energies differ where the gap is 0")
        elif not res.is_conclusive:
            failures.append(f"t={t}: inconclusive (gap {res.gap:.4g} vs 3*stderr "
                            f"{3 * res.mc_stderr:.4g})")
        elif not res.deficit_confirmed:
            failures.append(f"t={t}: learned energy did not undershoot the target")
    _report(out, ("t", "learned_energy", "target_energy", "mc_stderr"), rows, failures)
    return EXIT_OK


def _oracle_cross_term(params, seed, out) -> int:
    dim, n_mc = params["dim"], params["n_mc"]
    require_n_mc(n_mc)
    data = GaussianData(dim, params["data_std"])
    interp = make_interpolant(params["path"])
    rng = rng_for(seed, "oracle:cross-term")
    rows, failures = [], []
    for t in params["t"]:
        x = rng.standard_normal(dim) * float(np.sqrt(marginal_variance(data, interp, t)))
        closed = cross_term_expectation(data, interp, x, t)
        if t in (0.0, 1.0):
            rows.append((t, closed, closed, 0.0))
            if closed != 0.0:
                failures.append(f"t={t}: boundary cross-term not exactly zero")
            continue
        x0, x1 = conditional_pair_sample(data, interp, x, t, n_mc, rng)
        inner = np.einsum("ij,ij->i", x0, x1)
        est = float(inner.mean())
        se = float(inner.std(ddof=1) / np.sqrt(n_mc))
        rows.append((t, closed, est, se))
        if abs(est - closed) > 3.0 * se:
            failures.append(f"t={t}: closed form and MC disagree beyond 3 stderr")
    _report(out, ("t", "closed_form", "mc_estimate", "mc_stderr"), rows, failures)
    return EXIT_OK


def _oracle_rho(params, seed, out) -> int:
    stats = rho_statistics(params["dim"], params["pairs"], data_std=params["data_std"],
                           seed=seed)
    _report(out, ("dim", "mean_rho", "p99_rho", "max_rho"),
            [(stats.dim, stats.mean, stats.p99, stats.max)])
    return EXIT_OK


def _diagnose_norm(params, seed, out) -> int:
    ck, interp, train_config = _load_net(params["checkpoint"])
    dataset = make_dataset(train_config["dataset"])
    try:
        start, stop, count = params["grid"].split(":")
        times = np.linspace(float(start), float(stop), int(count))
    except ValueError:
        raise ConfigError("grid must look like start:stop:count") from None
    profile = norm_profile(ck.net.forward, interp, dataset, times,
                           n_samples=params["samples"], seed=seed)
    _report(out, *profile.table())
    return EXIT_OK


def _scored(path, reference, ref_id):
    """(track_fld report, node shape (particles, dimension)) of the trajectory file at
    ``path``; ConfigError if its dimension is not the reference's."""
    traj = load_trajectory(path)
    n, dim = traj.states.shape
    if dim != reference.dim:
        raise ConfigError(f"trajectory {path} has dimension {dim}, "
                          f"but the reference {ref_id} has dimension {reference.dim}")
    return track_fld(traj, reference, reference_id=ref_id), (n, dim)


def _diagnose_fld(params, seed, out) -> int:
    reference, ref_id = _reference(params["reference"], seed)
    report, (n, dim) = _scored(params["traj"], reference, ref_id)
    # sampling floor: n reference draws scored as the nodes are; an empirical reference,
    # fit on k draws, carries sampling noise, so they meet a fresh fit on k draws
    k, chol = reference.n_samples, np.linalg.cholesky(reference.cov + 1e-12 * np.eye(dim))
    synth = reference.mean + rng_for(seed, "fld:floor").standard_normal((n + k, dim)) @ chol.T
    floor_reference = MomentStats.from_samples(synth[n:]) if k else reference
    floor = track_fld(((1.0,), [synth[:n]]), floor_reference, reference_id=ref_id)
    rows = [(t, v, floor.terminal) for t, v in zip(report.times, report.values)]
    _report(out, ("t", "value", "sampling_floor"), rows)
    return EXIT_OK


def _diagnose_lag(params, seed, out) -> int:
    reference, ref_id = _reference(params["reference"], seed)
    paths = (params["baseline"], params["corrected"])
    reports = [_scored(path, reference, ref_id)[0] for path in paths]
    try:
        deltas = lag_improvement(*reports)
    except ValueError as exc:
        raise ConfigError(f"cannot compare {paths[0]} and {paths[1]}: {exc}") from None
    _report(out, ("t", "value"), list(zip(reports[0].times, deltas)))
    return EXIT_OK


def run_lag_sweep(params: dict, seed: int, out_dir) -> int:
    """Each cell's track_fld report, over step budgets x injection scales and a high-step
    floor; the overshoot exit code unless some s_start > 1 has a positive terminal
    lag_improvement over the baseline.  Below the s_start rows come two contrasts: the
    same injection at the end of the run (1.0 -> 1.1) and a constant scale (1.05 -> 1.05).
    Every cell is checked before the first one is integrated.  Later sweeps in this
    process take the floor's node moments from _floor_memo when its key matches."""
    n = _at_least(params, "particles", 2)
    checkpoints = tuple(params["checkpoints"])
    if checkpoints[-1] != 1.0:
        raise ConfigError(f"lag-sweep checkpoints must end at 1.0, where the terminal "
                          f"distance is taken; got {checkpoints}")
    injected = [(f"linear:{s:g}:1.0", ScaleSchedule("linear", s, 1.0))
                for s in params["s_start"] if s != 1.0]
    labels = [label for label, _ in injected]
    shared = [(label, sched.s_start) for label, sched in injected if labels.count(label) > 1]
    if shared:
        raise ConfigError(f"s_start values give the same row label: {shared}")
    if len(set(params["nfe"])) < len(params["nfe"]):
        raise ConfigError(f"nfe values repeat: {params['nfe']}")
    schedules = [("baseline", IDENTITY_SCHEDULE), *injected,
                 *((c, parse_schedule(c)) for c in ("linear:1.0:1.1", "linear:1.05:1.05"))]
    table = [(params["floor_nfe"], "floor", IDENTITY_SCHEDULE)]
    table += [(nfe, label, schedule) for nfe in params["nfe"] for label, schedule in schedules]
    cells = [(label, SolverSpec(method=params["method"], nfe=nfe, schedule=schedule,
                                checkpoints=checkpoints)) for nfe, label, schedule in table]

    with open(params["checkpoint"], "rb") as fh:   # the memo key hashes the bytes parsed;
        digest = hashlib.sha256(fh.read()).digest()   # freed first, they leave no heap hole
        fh.seek(0)
        ck, interp, train_config = _load_net(fh)
    reference, ref_id = _reference(train_config["dataset"], seed)
    out_dir = Path(out_dir)
    header = ["nfe", "label", "s_start", "s_end"] + [f"fld_at_{t:g}" for t in checkpoints]
    reports = []
    for label, spec in cells:
        traj = _floor_memo.get((digest, spec, n, seed))
        if traj is None:
            # nodes keep only their moments; from_samples is looked up per cell, so traces see it
            traj = integrate(ck.net.forward, spec, dim=ck.net.dim, n_particles=n, seed=seed,
                             interp=interp, record=MomentStats.from_samples)
            if label == "floor":   # the one cell sweeps with other --nfe or --s-start share
                for stats in traj.states:
                    stats.mean.flags.writeable = stats.cov.flags.writeable = False
                _floor_memo.clear()
                _floor_memo[digest, spec, n, seed] = traj
        reports.append(track_fld(traj, reference, reference_id=ref_id))
    write_csv(out_dir / "lag_sweep.csv", header,
              [[spec.nfe, label, spec.schedule.s_start, spec.schedule.s_end, *report.values]
               for (label, spec), report in zip(cells, reports)])

    floor, primary_nfe = reports[0].terminal, params["nfe"][0]
    primary = dict(zip((label for label, _ in schedules), reports[1:]))   # at the first --nfe
    baseline = primary["baseline"]
    ratio = baseline.terminal / max(floor, 1e-300)
    improving = [label for label, schedule in injected
                 if schedule.s_start > 1.0 and lag_improvement(baseline, primary[label])[-1] > 0]
    best_label = min(primary, key=lambda label: primary[label].terminal)
    summary_lines = [f"reference: {ref_id}",
                     f"floor (nfe={params['floor_nfe']}): terminal FLD {floor:.6g}",
                     f"baseline (nfe={primary_nfe}): terminal FLD "
                     f"{baseline.terminal:.6g} ({ratio:.2f}x the floor)",
                     f"best cell at nfe={primary_nfe}: {best_label} "
                     f"(terminal FLD {primary[best_label].terminal:.6g})"]
    if improving:
        summary_lines.append("improving s_start rows: " + ", ".join(improving))
    else:
        summary_lines.append(f"CAVEAT: {OVERSHOOT_CAVEAT}")
    (out_dir / "summary.txt").write_text("\n".join(summary_lines) + "\n")
    print("\n".join(summary_lines))
    print(f"wrote {out_dir / 'lag_sweep.csv'}")

    required = params["require_lag_ratio"]
    if required is not None and ratio < required:
        raise CheckFailedError(
            f"baseline terminal FLD is only {ratio:.2f}x the discretization floor "
            f"(required {required}x): no integration lag to correct")
    return EXIT_OK if improving else EXIT_OVERSHOOT


def _schedule_calibrate(params, seed, out) -> int:
    shape, s_end = params["shape"], params["s_end"]
    s_start = calibrate_s_start(shape, s_end=s_end, target_area=params["area"])
    check = ScaleSchedule(shape, s_start, s_end).area()
    print(f"s_start = {s_start:.10g}")
    print(f"area({shape}, {s_start:.10g} -> {s_end:g}) = {check:.10g}")
    return EXIT_OK


# -- the experiment table ---------------------------------------------------

_CHECKPOINT = Param("checkpoint", str)
_METHOD = Param("method", str, SolverSpec.method, choices=SOLVER_METHODS)
_PARTICLES = Param("particles", int, 8192)
_RECORD_TIMES = Param("checkpoints", float, (0.2, 0.4, 0.6, 0.8, 1.0),
                      help="comma-separated recording times", many=True)
_DIM = Param("dim", int)
_DATA_STD = Param("data_std", float, 1.0)
_N_MC = Param("n_mc", int, 100_000)
_PATH = Param("path", str, "linear", choices=PATH_KINDS)
_REFERENCE = Param("reference", str, help="'gaussian:DIM:STD' or a dataset JSON block")

EXPERIMENTS = {exp.name: exp for exp in (
    Experiment("train", "train a velocity network from a JSON config", _train,
               tuple(p for p in params_of(TrainConfig, TRAIN_CHOICES) if p.name != "seed"),
               out="dir"),
    Experiment("sample", "integrate particles from a trained checkpoint", _sample, (
        _CHECKPOINT, Param("nfe", int, SolverSpec.nfe),
        Param("schedule", str, "constant-one", help="shape:s_start:s_end, e.g. linear:1.1:1.0"),
        _METHOD, _PARTICLES, _RECORD_TIMES), out="bin"),
    Experiment("oracle-jensen", "learned vs target kinetic energy", _oracle_jensen, (
        _DIM, _DATA_STD, _PATH,
        Param("t", float, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9), many=True), _N_MC)),
    Experiment("oracle-cross-term", "conditional cross-term, closed form vs MC",
               _oracle_cross_term, (
        _DIM, _DATA_STD, _PATH, Param("t", float, (0.25, 0.5, 0.75), many=True), _N_MC)),
    Experiment("oracle-rho", "relative cross-term concentration statistics", _oracle_rho, (
        _DIM, Param("pairs", int, 50_000), _DATA_STD)),
    Experiment("diagnose-norm", "velocity-norm profile of a checkpoint", _diagnose_norm, (
        _CHECKPOINT, Param("grid", str, "0.05:0.95:19", help="start:stop:count"),
        Param("samples", int, 4096))),
    Experiment("diagnose-fld", "distance to target at trajectory checkpoints", _diagnose_fld, (
        Param("traj", str), _REFERENCE)),
    Experiment("diagnose-lag", "relative distance improvement of a corrected trajectory "
               "over a baseline", _diagnose_lag, (
        Param("baseline", str), Param("corrected", str), _REFERENCE)),
    # calls the module attribute, so a wrapper installed on cli.run_lag_sweep sees each sweep
    Experiment("lag-sweep", "terminal-distance sweep over injection scales",
               lambda params, seed, out: run_lag_sweep(params, seed, out), (
        _CHECKPOINT, Param("nfe", int, (10,), help="comma-separated step budgets", many=True),
        Param("s_start", float, (1.0, 1.05, 1.1, 1.15, 1.2), many=True), _METHOD, _PARTICLES,
        Param("floor_nfe", int, 500),
        Param("require_lag_ratio", float, None,
              help="fail (exit 3) unless baseline terminal distance exceeds the floor "
                   "by this factor"),
        _RECORD_TIMES), out="dir"),
    Experiment("schedule-calibrate", "solve s_start for a target area", _schedule_calibrate, (
        Param("shape", str), Param("area", float), Param("s_end", float, 1.0)),
               out=None, seeded=False),
)}

if __name__ == "__main__":
    sys.exit(main())
