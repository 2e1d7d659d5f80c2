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

FLOWLAG_THREADS caps the numerical thread pools; it must take effect
before the first numpy import, which is why the heavy imports below
happen inside main().
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3
EXIT_RUNTIME = 4
EXIT_OVERSHOOT = 5

OVERSHOOT_CAVEAT = (
    "no s_start > 1.0 improved the terminal distance: on low-dimensional or "
    "symmetric targets, initial energy injection may cause the solver to "
    "overshoot the target manifold instead of correcting lag")


def _cap_threads() -> None:
    cap = os.environ.get("FLOWLAG_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, cap)


def main(argv=None) -> int:
    _cap_threads()
    from .errors import CheckFailedError, ConfigError

    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return EXIT_CONFIG
    try:
        return int(args.func(args) or EXIT_OK)
    except (ConfigError, json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckFailedError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except Exception as exc:  # numerical faults, bad files, diverged runs
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


# -- the experiment table: parameters --------------------------------------

_REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One experiment parameter: flag ``--name-with-dashes``, spec key ``name``.

    ``type`` is int, float, str or bool (dict for the run envelope's spec).
    A ``many`` parameter is a list: comma-separated text as a flag, a JSON
    list in a spec.
    """

    name: str
    type: type
    default: object = _REQUIRED
    help: str | None = None
    choices: tuple | None = None
    many: bool = False


@dataclass(frozen=True)
class Experiment:
    """``func(params, seed, out)`` runs the experiment and returns its exit code.

    ``params`` is a function for train: its parameters are TrainConfig's
    fields, read after the thread cap (training imports numpy); its flag is --config.
    ``out`` is "dir" (a directory), "bin" or "csv" (a file; a CSV without
    --out goes to stdout) or None; run writes a file output to
    <out_dir>/<name>.<out>.  An experiment that is not ``seeded`` takes no seed.
    """

    name: str
    command: str
    help: str
    func: Callable
    params: tuple | Callable
    out: str | None = "csv"
    seeded: bool = True


_SEED = Param("seed", int, 0)
_ENVELOPE = (Param("experiment", str), Param("out_dir", str), _SEED, Param("spec", dict))


def _typed(value, p: Param):
    """A JSON value as ``p.type``: an integer serves as a float, a boolean only as a bool."""
    if (not isinstance(value, (int, float) if p.type is float else p.type)
            or isinstance(value, bool) is not (p.type is bool)):
        raise TypeError
    return p.type(value)


def _validated(what: str, params: tuple, spec) -> dict:
    """``spec`` checked against ``params``, with defaults filled in; ConfigError otherwise."""
    from .errors import ConfigError

    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(spec) - {p.name for p in params}
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")
    out = {}
    for p in params:
        value = spec.get(p.name, p.default)
        if value is _REQUIRED:
            raise ConfigError(f"{what} requires {p.name!r}")
        if p.name in spec and not (value is None and p.default is None):
            try:
                if p.many and not isinstance(value, list):
                    raise TypeError
                value = [_typed(v, p) for v in value] if p.many else _typed(value, p)
            except TypeError:
                kind = f"list of {p.type.__name__}" if p.many else p.type.__name__
                raise ConfigError(f"{what} field {p.name!r} must be a {kind}, "
                                  f"got {spec[p.name]!r}") from None
            if p.choices and value not in p.choices:
                raise ConfigError(f"{what} field {p.name!r} must be one of {p.choices}")
        out[p.name] = value
    return out


_GROUPS = {"oracle": "closed-form Gaussian oracle measurements",
           "diagnose": "norm profiles and distance tracking"}
_OUT_HELP = {"dir": "artifact directory", "bin": "trajectory file (binary)",
             "csv": "CSV path (default: stdout)"}


def _add_flag(parser, p: Param) -> None:
    flag = "--" + p.name.replace("_", "-")
    if p.type is bool:
        parser.add_argument(flag, action="store_true", help=p.help)
        return

    def parse_list(text):
        return [p.type(v) for v in text.split(",") if v]

    parse_list.__name__ = f"comma-separated {p.type.__name__}"  # argparse errors name it
    value = {"required": True} if p.default is _REQUIRED else {"default": p.default}
    parser.add_argument(flag, type=parse_list if p.many else p.type, choices=p.choices,
                        help=p.help, **value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowlag",
        description="Velocity-deficit experiments: train, sample, and measure integration lag.")
    sub = parser.add_subparsers(dest="command")
    groups = {}
    for exp in EXPERIMENTS.values():
        words = exp.command.split()
        where = sub
        if len(words) == 2:
            if words[0] not in groups:
                group = sub.add_parser(words[0], help=_GROUPS[words[0]])
                groups[words[0]] = group.add_subparsers(dest=f"{words[0]}_command")
            where = groups[words[0]]
        p = where.add_parser(words[-1], help=exp.help)
        if callable(exp.params):  # train: the seed is a field of its config file
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
    if callable(exp.params):
        params = _validated("train config", exp.params() + (_SEED,),
                            json.loads(Path(args.config).read_text()))
        seed = params.pop("seed")
    else:
        params = {p.name: getattr(args, p.name) for p in exp.params}
        seed = getattr(args, "seed", _SEED.default)
    return _dispatch(exp, params, seed, getattr(args, "out", None))


def _cmd_run(args) -> int:
    """Run one experiment from a JSON document: experiment, out_dir, seed and spec."""
    from .errors import ConfigError

    env = _validated("experiment config", _ENVELOPE,
                     json.loads(Path(args.config).read_text()))
    exp = EXPERIMENTS.get(env["experiment"])
    if exp is None:
        raise ConfigError(f"unknown experiment {env['experiment']!r}; "
                          f"expected one of {tuple(EXPERIMENTS)}")
    spec = env["spec"]
    if "seed" in spec:
        raise ConfigError("the seed belongs in the experiment config, not in 'spec'")
    if not exp.seeded and env["seed"] != _SEED.default:
        raise ConfigError(f"{exp.name} takes no seed")
    params = _validated(exp.name, exp.params() if callable(exp.params) else exp.params, spec)
    out = Path(env["out_dir"])
    if exp.out in ("bin", "csv"):
        out = out / f"{exp.name}.{exp.out}"
    return _dispatch(exp, params, env["seed"], out if exp.out else None)


def _dispatch(exp: Experiment, params: dict, seed: int, out) -> int:
    """Create the output's directory, write the manifest there, then run the experiment."""
    from .reporting import write_manifest

    if out is not None:
        write_manifest(out if exp.out == "dir" else Path(out).parent, exp.name, params, seed)
    return exp.func(params, seed, out)


def _train_params() -> tuple:
    """train's parameters: TrainConfig's fields but its seed, which is the run's.
    A ``tuple[int, ...]`` field (hidden) is a list of int."""
    from dataclasses import MISSING, fields
    from typing import get_args, get_type_hints

    from .training import TrainConfig

    hints = get_type_hints(TrainConfig)
    return tuple(Param(f.name, (get_args(hints[f.name]) or (hints[f.name],))[0],
                       _REQUIRED if f.default is MISSING else f.default,
                       many=bool(get_args(hints[f.name])))
                 for f in fields(TrainConfig) if f.name != "seed")


# -- helpers ----------------------------------------------------------------


def _load_net(path):
    from .errors import ConfigError
    from .interpolant import make_interpolant
    from .nn import load_checkpoint

    ck = load_checkpoint(path)
    train_config = ck.extra.get("train_config")
    if train_config is None:
        raise ConfigError(f"checkpoint {path} carries no train config")
    interp = make_interpolant(train_config["path"])
    return ck, interp, train_config


def _reference_for(dataset_spec: dict, n_samples: int, seed: int):
    from .datasets import make_dataset
    from .diagnostics import reference_from_dataset

    dataset = make_dataset(dataset_spec)
    ref = reference_from_dataset(dataset, n_empirical=n_samples, seed=seed)
    kind = "analytic" if ref.n_samples == 0 else f"empirical:{ref.n_samples}"
    return ref, f"{dataset.kind}:{kind}"


def _parse_reference(text: str, n_samples: int, seed: int):
    from .errors import ConfigError

    if text.startswith("gaussian:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError("gaussian reference must look like gaussian:DIM:STD")
        return _reference_for({"kind": "gaussian", "dim": int(parts[1]),
                               "std": float(parts[2])}, n_samples, seed)
    if text.strip().startswith("{"):
        return _reference_for(json.loads(text), n_samples, seed)
    raise ConfigError(f"cannot parse reference {text!r}")


def _report(out, header, rows, failures=()) -> None:
    """Rows as a CSV at ``out``, or on stdout; then CheckFailedError if any
    check in ``failures`` did not hold."""
    from .errors import CheckFailedError
    from .reporting import write_csv

    write_csv(sys.stdout if out is None else out, header, rows)
    if out is not None:
        print(f"wrote {out}")
    if failures:
        raise CheckFailedError("; ".join(failures))


def _chart(svg, times, series: dict, title: str, ylabel: str) -> None:
    if svg is not None:
        from .svg import write_line_chart

        write_line_chart(svg, times, series, title=title, xlabel="t", ylabel=ylabel)
        print(f"wrote {svg}")


# -- experiments ------------------------------------------------------------


def _train(params, seed, out) -> int:
    from .training import TrainConfig, train

    config = TrainConfig(**params, seed=seed)
    result = train(config, out_dir=out)
    final = result.history[-1]
    print(f"trained {config.steps} steps; final loss {final[3]:.6g} "
          f"(fm {final[1]:.6g}, magnitude {final[2]:.6g})")
    print(f"checkpoint: {result.checkpoint_path}")
    return EXIT_OK


def _sample(params, seed, out) -> int:
    from .solver import SolverSpec, integrate, parse_schedule, save_trajectory

    ck, interp, _ = _load_net(params["checkpoint"])
    spec = SolverSpec(method=params["method"], nfe=params["nfe"],
                      schedule=parse_schedule(params["schedule"]),
                      checkpoints=tuple(params["checkpoints"]))
    traj = integrate(ck.net.forward, spec, dim=ck.net.dim, n_particles=params["particles"],
                     seed=seed, interp=interp)
    save_trajectory(out, traj)
    print(f"wrote {out} ({params['particles']} particles, {len(spec.checkpoints)} checkpoints)")
    return EXIT_OK


def _oracle_jensen(params, seed, out) -> int:
    from .gaussian_oracle import GaussianFlowSpec, jensen_gap, typical_shell_point
    from .interpolant import make_interpolant
    from .rng import rng_for

    spec = GaussianFlowSpec(dim=params["dim"], data_std=params["data_std"])
    interp = make_interpolant(params["path"])
    rng = rng_for(seed, "oracle:jensen")
    rows, failures = [], []
    for t in params["t"]:
        x = typical_shell_point(spec, interp, t)
        res = jensen_gap(spec, interp, x, t, params["n_mc"], rng)
        rows.append((t, res.learned_energy, res.target_energy, res.mc_stderr))
        if not res.is_conclusive:
            failures.append(f"t={t}: inconclusive (gap {res.gap:.4g} vs 3*stderr "
                            f"{3 * res.mc_stderr:.4g})")
        elif not res.deficit_confirmed:
            failures.append(f"t={t}: learned energy did not undershoot the target")
    _report(out, ("t", "learned_energy", "target_energy", "mc_stderr"), rows, failures)
    return EXIT_OK


def _oracle_cross_term(params, seed, out) -> int:
    from .gaussian_oracle import (GaussianFlowSpec, conditional_pair_sample,
                                  cross_term_expectation, marginal_variance)
    from .interpolant import LinearPath
    from .rng import rng_for

    import numpy as np

    dim, n_mc = params["dim"], params["n_mc"]
    spec = GaussianFlowSpec(dim=dim, data_std=params["data_std"])
    interp = LinearPath()
    rng = rng_for(seed, "oracle:cross-term")
    rows, failures = [], []
    for t in params["t"]:
        x = rng.standard_normal(dim) * float(np.sqrt(marginal_variance(spec, interp, t)))
        closed = cross_term_expectation(spec, interp, x, t)
        if t in (0.0, 1.0):
            rows.append((t, closed, closed, 0.0))
            if closed != 0.0:
                failures.append(f"t={t}: boundary cross-term not exactly zero")
            continue
        x0, x1 = conditional_pair_sample(spec, interp, x, t, n_mc, rng)
        inner = np.einsum("ij,ij->i", x0, x1)
        est = float(inner.mean())
        se = float(inner.std(ddof=1) / np.sqrt(n_mc))
        rows.append((t, closed, est, se))
        if abs(est - closed) > 3.0 * se:
            failures.append(f"t={t}: closed form and MC disagree beyond 3 stderr")
    _report(out, ("t", "closed_form", "mc_estimate", "mc_stderr"), rows, failures)
    return EXIT_OK


def _rho_stats(params, seed, out) -> int:
    from .gaussian_oracle import rho_statistics

    stats = rho_statistics(params["dim"], params["pairs"], data_std=params["data_std"],
                           seed=seed)
    _report(out, ("dim", "mean_rho", "p99_rho", "max_rho"),
            [(stats.dim, stats.mean, stats.p99, stats.max)])
    return EXIT_OK


def _diagnose_norm(params, seed, out) -> int:
    import numpy as np

    from .datasets import make_dataset
    from .diagnostics import norm_profile
    from .errors import ConfigError

    ck, interp, train_config = _load_net(params["checkpoint"])
    dataset = make_dataset(train_config["dataset"])
    parts = params["grid"].split(":")
    if len(parts) != 3:
        raise ConfigError("grid must look like start:stop:count")
    times = np.linspace(float(parts[0]), float(parts[1]), int(parts[2]))
    profile = norm_profile(ck.net.forward, interp, dataset, times,
                           n_samples=params["samples"], seed=seed)
    stderr = profile.std / np.sqrt(params["samples"])
    rows = list(zip(profile.times, profile.mean, stderr))
    _report(out, ("t", "value", "stderr"), rows)
    _chart(params["svg"], profile.times, {"predicted": profile.mean, "target": profile.target_rms},
           "velocity norm profile", "mean norm")
    return EXIT_OK


def _diagnose_fld(params, seed, out) -> int:
    import hashlib

    from .diagnostics import split_half_fld, track_fld
    from .rng import rng_for
    from .solver import load_trajectory

    import numpy as np

    traj = load_trajectory(params["traj"])
    reference, ref_id = _parse_reference(params["reference"], params["reference_samples"],
                                         seed)
    report = track_fld(traj, reference, reference_id=ref_id, verify=params["verify"])
    # noise floor from a same-size synthetic draw against itself
    rng = rng_for(seed, "fld:floor")
    n = report.n_samples
    chol = np.linalg.cholesky(reference.cov + 1e-12 * np.eye(reference.dim))
    synth = reference.mean + rng.standard_normal((2 * n, reference.dim)) @ chol.T
    floor = split_half_fld(synth)
    rows = [(t, v, floor) for t, v in zip(report.times, report.values)]
    _report(out, ("t", "value", "split_half_floor"), rows)
    if out is not None:
        # the reference travels with the CSV: a shared directory manifest can be overwritten
        digest = hashlib.sha256(reference.mean.tobytes() + reference.cov.tobytes()).hexdigest()
        meta = {"reference": params["reference"], "reference_id": f"{ref_id}:{digest[:16]}"}
        Path(f"{out}.json").write_text(json.dumps(meta, indent=2) + "\n")
    _chart(params["svg"], list(report.times), {"fld": list(report.values)},
           f"distance to target ({ref_id})", "FLD")
    return EXIT_OK


def _diagnose_lag(params, seed, out) -> int:
    import numpy as np

    from .diagnostics import FldReport, lag_improvement
    from .errors import ConfigError
    from .reporting import read_csv

    paths, refs = (params["baseline"], params["corrected"]), []
    for path in paths:
        try:
            refs.append(json.loads(Path(f"{path}.json").read_text())["reference_id"])
        except (OSError, ValueError, KeyError, TypeError):
            refs.append(None)
    if None in refs or refs[0] != refs[1]:
        raise ConfigError(
            f"{paths[0]} and {paths[1]} must carry the same reference in their "
            f"'diagnose fld' sidecars ({paths[0]}.json, {paths[1]}.json); "
            f"found {refs[0]!r} and {refs[1]!r}")
    reports = []
    for path in paths:
        _, rows = read_csv(path)
        reports.append(FldReport(times=tuple(float(r[0]) for r in rows),
                                 values=np.array([float(r[1]) for r in rows]),
                                 reference_id=refs[0], n_samples=0))
    deltas = lag_improvement(*reports)
    _report(out, ("t", "value"), list(zip(reports[0].times, deltas)))
    return EXIT_OK


def run_lag_sweep(params: dict, seed: int, out_dir) -> int:
    """Cross product of step budgets and injection scales, with a
    high-step floor run; returns the overshoot exit code when no
    s_start > 1 strictly improves the terminal distance.

    Below the s_start rows come two contrasts: the same injection at the
    end of the run (1.0 -> 1.1) and a constant scale (1.05 -> 1.05)."""
    from .errors import CheckFailedError
    from .diagnostics import track_fld
    from .reporting import write_csv
    from .solver import ScaleSchedule, SolverSpec, integrate

    ck, interp, train_config = _load_net(params["checkpoint"])
    reference, ref_id = _reference_for(train_config["dataset"], 8192, seed)
    out_dir = Path(out_dir)

    checkpoints = tuple(params["checkpoints"])
    injected = [(f"linear:{s:g}:1.0", ScaleSchedule("linear", s, 1.0))
                for s in params["s_start"] if s != 1.0]
    schedules = [("baseline", ScaleSchedule("linear", 1.0, 1.0)), *injected,
                 ("linear:1.0:1.1", ScaleSchedule("linear", 1.0, 1.1)),
                 ("linear:1.05:1.05", ScaleSchedule("linear", 1.05, 1.05))]

    def run_cell(nfe, schedule):
        spec = SolverSpec(method=params["method"], nfe=nfe, schedule=schedule,
                          checkpoints=checkpoints)
        traj = integrate(ck.net.forward, spec, dim=ck.net.dim,
                         n_particles=params["particles"], seed=seed, interp=interp)
        return track_fld(traj, reference, reference_id=ref_id)

    floor_report = run_cell(params["floor_nfe"], ScaleSchedule("linear", 1.0, 1.0))
    header = ["nfe", "label", "s_start", "s_end"] + [f"fld_at_{t:g}" for t in checkpoints]
    rows = [[params["floor_nfe"], "floor", 1.0, 1.0] + list(floor_report.values)]
    terminal = {}  # nfe -> label -> terminal distance
    for nfe in params["nfe"]:
        for label, schedule in schedules:
            report = run_cell(nfe, schedule)
            terminal.setdefault(nfe, {})[label] = report.terminal
            rows.append([nfe, label, schedule.s_start, schedule.s_end] + list(report.values))
    write_csv(out_dir / "lag_sweep.csv", header, rows)

    summary_lines = [f"reference: {ref_id}",
                     f"floor (nfe={params['floor_nfe']}): terminal FLD "
                     f"{floor_report.terminal:.6g}"]
    exit_code = EXIT_OK
    primary_nfe = params["nfe"][0]
    primary = terminal[primary_nfe]
    baseline = primary["baseline"]
    ratio = baseline / max(floor_report.terminal, 1e-300)
    summary_lines.append(f"baseline (nfe={primary_nfe}): terminal FLD "
                         f"{baseline:.6g} ({ratio:.2f}x the floor)")
    improving = [label for label in dict(injected) if primary[label] < baseline]
    best_label = min(primary, key=primary.get)
    summary_lines.append(f"best cell at nfe={primary_nfe}: {best_label} "
                         f"(terminal FLD {primary[best_label]:.6g})")
    if improving:
        summary_lines.append("improving s_start rows: " + ", ".join(improving))
    else:
        summary_lines.append(f"CAVEAT: {OVERSHOOT_CAVEAT}")
        exit_code = EXIT_OVERSHOOT
    (out_dir / "summary.txt").write_text("\n".join(summary_lines) + "\n")
    print("\n".join(summary_lines))
    print(f"wrote {out_dir / 'lag_sweep.csv'}")

    required = params["require_lag_ratio"]
    if required is not None and ratio < required:
        raise CheckFailedError(
            f"baseline terminal FLD is only {ratio:.2f}x the discretization floor "
            f"(required {required}x): no integration lag to correct")
    return exit_code


def _schedule_calibrate(params, seed, out) -> int:
    from .solver import ScaleSchedule, calibrate_s_start

    shape, s_end = params["shape"], params["s_end"]
    s_start = calibrate_s_start(shape, s_end=s_end, target_area=params["area"])
    check = ScaleSchedule(shape, s_start, s_end).area()
    print(f"s_start = {s_start:.10g}")
    print(f"area({shape}, {s_start:.10g} -> {s_end:g}) = {check:.10g}")
    return EXIT_OK


# -- the experiment table ---------------------------------------------------

_CHECKPOINT = Param("checkpoint", str)
_METHOD = Param("method", str, "euler", choices=("euler", "heun", "euler-maruyama"))
_PARTICLES = Param("particles", int, 8192)
_RECORD_TIMES = Param("checkpoints", float, (0.2, 0.4, 0.6, 0.8, 1.0),
                      help="comma-separated recording times", many=True)
_DIM = Param("dim", int)
_DATA_STD = Param("data_std", float, 1.0)
_N_MC = Param("n_mc", int, 100_000)
_SVG = Param("svg", str, None)

EXPERIMENTS = {exp.name: exp for exp in (
    Experiment("train", "train", "train a velocity network from a JSON config", _train,
               _train_params, out="dir"),
    Experiment("sample", "sample", "integrate particles from a trained checkpoint", _sample, (
        _CHECKPOINT, Param("nfe", int, 50),
        Param("schedule", str, "constant-one", help="shape:s_start:s_end, e.g. linear:1.1:1.0"),
        _METHOD, _PARTICLES, _RECORD_TIMES), out="bin"),
    Experiment("oracle-jensen", "oracle jensen", "learned vs target kinetic energy",
               _oracle_jensen, (
        _DIM, _DATA_STD, Param("path", str, "linear"),
        Param("t", float, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9), many=True), _N_MC)),
    Experiment("oracle-cross-term", "oracle cross-term",
               "conditional cross-term, closed form vs MC", _oracle_cross_term, (
        _DIM, _DATA_STD, Param("t", float, (0.25, 0.5, 0.75), many=True), _N_MC)),
    Experiment("rho-stats", "oracle rho", "relative cross-term concentration statistics",
               _rho_stats, (_DIM, Param("pairs", int, 50_000), _DATA_STD)),
    Experiment("diagnose-norm", "diagnose norm", "velocity-norm profile of a checkpoint",
               _diagnose_norm, (
        _CHECKPOINT, Param("grid", str, "0.05:0.95:19", help="start:stop:count"),
        Param("samples", int, 4096), _SVG)),
    Experiment("diagnose-fld", "diagnose fld", "distance to target at trajectory checkpoints",
               _diagnose_fld, (
        Param("traj", str),
        Param("reference", str, help="'gaussian:DIM:STD' or a dataset JSON block"),
        Param("reference_samples", int, 8192),
        Param("verify", bool, False, help="check sqrtm reconstructions at runtime"), _SVG)),
    Experiment("diagnose-lag", "diagnose lag", "relative improvement between two FLD reports",
               _diagnose_lag, (Param("baseline", str), Param("corrected", str)),
               seeded=False),
    # calls the module attribute, so a wrapper installed on cli.run_lag_sweep sees each sweep
    Experiment("lag-sweep", "lag-sweep", "terminal-distance sweep over injection scales",
               lambda params, seed, out: run_lag_sweep(params, seed, out), (
        _CHECKPOINT, Param("nfe", int, (10,), help="comma-separated step budgets", many=True),
        Param("s_start", float, (1.0, 1.05, 1.1, 1.15, 1.2), many=True), _METHOD, _PARTICLES,
        Param("floor_nfe", int, 500),
        Param("require_lag_ratio", float, None,
              help="fail (exit 3) unless baseline terminal distance exceeds the floor "
                   "by this factor"),
        _RECORD_TIMES), out="dir"),
    Experiment("schedule-calibrate", "schedule-calibrate", "solve s_start for a target area",
               _schedule_calibrate, (
        Param("shape", str), Param("area", float), Param("s_end", float, 1.0)),
               out=None, seeded=False),
)}

if __name__ == "__main__":
    sys.exit(main())
