"""Command-line entry point.

Subcommands: train, sample, oracle {jensen|cross-term|rho},
diagnose {norm|fld|lag}, lag-sweep, schedule-calibrate, and run (which
executes one experiment described by a JSON config).  Exit codes:

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
from pathlib import Path

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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowlag",
        description="Velocity-deficit experiments: train, sample, and measure integration lag.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("train", help="train a velocity network from a JSON config")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path, help="artifact directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sample", help="integrate particles from a trained checkpoint")
    p.add_argument("--checkpoint", required=True, type=Path)
    p.add_argument("--nfe", type=int, default=50)
    p.add_argument("--schedule", default="constant-one",
                   help="shape:s_start:s_end, e.g. linear:1.1:1.0")
    p.add_argument("--method", default="euler", choices=["euler", "heun", "euler-maruyama"])
    p.add_argument("--particles", type=int, default=8192)
    p.add_argument("--checkpoints", default="0.2,0.4,0.6,0.8,1.0",
                   help="comma-separated recording times")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, type=Path, help="trajectory file (binary)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("oracle", help="closed-form Gaussian oracle measurements")
    osub = p.add_subparsers(dest="oracle_command")

    q = osub.add_parser("jensen", help="learned vs target kinetic energy")
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--data-std", type=float, default=1.0)
    q.add_argument("--path", default="linear")
    q.add_argument("--t", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    q.add_argument("--n-mc", type=int, default=100_000)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", type=Path, default=None, help="CSV path (default: stdout)")
    q.set_defaults(func=_cmd_oracle_jensen)

    q = osub.add_parser("cross-term", help="conditional cross-term, closed form vs MC")
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--data-std", type=float, default=1.0)
    q.add_argument("--t", default="0.25,0.5,0.75")
    q.add_argument("--n-mc", type=int, default=100_000)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", type=Path, default=None)
    q.set_defaults(func=_cmd_oracle_cross_term)

    q = osub.add_parser("rho", help="relative cross-term concentration statistics")
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--pairs", type=int, default=50_000)
    q.add_argument("--data-std", type=float, default=1.0)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", type=Path, default=None)
    q.set_defaults(func=_cmd_oracle_rho)

    p = sub.add_parser("diagnose", help="norm profiles and distance tracking")
    dsub = p.add_subparsers(dest="diagnose_command")

    q = dsub.add_parser("norm", help="velocity-norm profile of a checkpoint")
    q.add_argument("--checkpoint", required=True, type=Path)
    q.add_argument("--grid", default="0.05:0.95:19", help="start:stop:count")
    q.add_argument("--samples", type=int, default=4096)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", type=Path, default=None)
    q.add_argument("--svg", type=Path, default=None)
    q.set_defaults(func=_cmd_diagnose_norm)

    q = dsub.add_parser("fld", help="distance to target at trajectory checkpoints")
    q.add_argument("--traj", required=True, type=Path)
    q.add_argument("--reference", required=True,
                   help="'gaussian:DIM:STD' or a dataset JSON block")
    q.add_argument("--reference-samples", type=int, default=8192)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--verify", action="store_true",
                   help="check sqrtm reconstructions at runtime")
    q.add_argument("--out", type=Path, default=None)
    q.add_argument("--svg", type=Path, default=None)
    q.set_defaults(func=_cmd_diagnose_fld)

    q = dsub.add_parser("lag", help="relative improvement between two FLD reports")
    q.add_argument("--baseline", required=True, type=Path)
    q.add_argument("--corrected", required=True, type=Path)
    q.add_argument("--out", type=Path, default=None)
    q.set_defaults(func=_cmd_diagnose_lag)

    p = sub.add_parser("lag-sweep", help="terminal-distance sweep over injection scales")
    p.add_argument("--checkpoint", required=True, type=Path)
    p.add_argument("--nfe", default="10", help="comma-separated step budgets")
    p.add_argument("--s-start", default="1.0,1.05,1.1,1.15,1.2")
    p.add_argument("--extra-rows", dest="extra_rows", action="store_true", default=True,
                   help="include the 1.0->1.1 and 1.05->1.05 schedule rows (default)")
    p.add_argument("--no-extra-rows", dest="extra_rows", action="store_false")
    p.add_argument("--method", default="euler", choices=["euler", "heun", "euler-maruyama"])
    p.add_argument("--particles", type=int, default=8192)
    p.add_argument("--floor-nfe", type=int, default=500)
    p.add_argument("--require-lag-ratio", type=float, default=None,
                   help="fail (exit 3) unless baseline terminal distance exceeds "
                        "the floor by this factor")
    p.add_argument("--checkpoints", default="0.2,0.4,0.6,0.8,1.0")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, type=Path, help="report directory")
    p.set_defaults(func=_cmd_lag_sweep)

    p = sub.add_parser("schedule-calibrate", help="solve s_start for a target area")
    p.add_argument("--shape", required=True)
    p.add_argument("--area", type=float, required=True)
    p.add_argument("--s-end", type=float, default=1.0)
    p.set_defaults(func=_cmd_schedule_calibrate)

    p = sub.add_parser("run", help="execute one experiment from a JSON config")
    p.add_argument("--config", required=True, type=Path)
    p.set_defaults(func=_cmd_run)

    return parser


# -- helpers ----------------------------------------------------------------


def _parse_floats(text: str):
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        from .errors import ConfigError

        raise ConfigError(f"bad float list {text!r}") from exc


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


def _emit(path, header, rows) -> None:
    from .reporting import format_value, write_csv

    if path is None:
        print(",".join(header))
        for row in rows:
            print(",".join(format_value(v) for v in row))
    else:
        write_csv(path, header, rows)
        print(f"wrote {path}")


def _sidecar_manifest(out_path, experiment: str, config: dict, seed: int) -> None:
    from .reporting import write_manifest

    if out_path is not None:
        write_manifest(Path(out_path).parent, experiment, config, seed)


def _args_config(args) -> dict:
    """JSON-safe view of parsed arguments for the manifest."""
    out = {}
    for key, value in vars(args).items():
        if key == "func":
            continue
        out[key] = str(value) if isinstance(value, Path) else value
    return out


# -- commands ----------------------------------------------------------------


def _cmd_train(args) -> int:
    from .reporting import write_manifest
    from .training import TrainConfig, train

    raw = json.loads(Path(args.config).read_text())
    config = TrainConfig.from_dict(raw)
    write_manifest(args.out, "train", config.to_dict(), config.seed)
    result = train(config, out_dir=args.out)
    final = result.history[-1]
    print(f"trained {config.steps} steps; final loss {final[3]:.6g} "
          f"(fm {final[1]:.6g}, magnitude {final[2]:.6g})")
    print(f"checkpoint: {result.checkpoint_path}")
    return EXIT_OK


def _cmd_sample(args) -> int:
    from .solver import SolverSpec, integrate, parse_schedule, save_trajectory

    ck, interp, train_config = _load_net(args.checkpoint)
    schedule = parse_schedule(args.schedule)
    spec = SolverSpec(method=args.method, nfe=args.nfe, schedule=schedule,
                      checkpoints=tuple(_parse_floats(args.checkpoints)))
    traj = integrate(ck.net.forward, spec, dim=ck.net.dim, n_particles=args.particles,
                     seed=args.seed, interp=interp)
    save_trajectory(args.out, traj)
    _sidecar_manifest(args.out, "sample",
                      {"checkpoint": str(args.checkpoint), "nfe": args.nfe,
                       "schedule": schedule.describe(), "method": args.method,
                       "particles": args.particles,
                       "checkpoints": list(spec.checkpoints),
                       "train_config": train_config},
                      args.seed)
    print(f"wrote {args.out} ({args.particles} particles, {len(spec.checkpoints)} checkpoints)")
    return EXIT_OK


def _cmd_oracle_jensen(args) -> int:
    from .errors import CheckFailedError
    from .gaussian_oracle import GaussianFlowSpec, jensen_gap, typical_shell_point
    from .interpolant import make_interpolant
    from .rng import rng_for

    spec = GaussianFlowSpec(dim=args.dim, data_std=args.data_std)
    interp = make_interpolant(args.path)
    rng = rng_for(args.seed, "oracle:jensen")
    rows, failures = [], []
    for t in _parse_floats(args.t):
        x = typical_shell_point(spec, interp, t)
        res = jensen_gap(spec, interp, x, t, args.n_mc, rng)
        rows.append((t, res.learned_energy, res.target_energy, res.mc_stderr))
        if not res.is_conclusive:
            failures.append(f"t={t}: inconclusive (gap {res.gap:.4g} vs 3*stderr "
                            f"{3 * res.mc_stderr:.4g})")
        elif not res.deficit_confirmed:
            failures.append(f"t={t}: learned energy did not undershoot the target")
    _emit(args.out, ("t", "learned_energy", "target_energy", "mc_stderr"), rows)
    _sidecar_manifest(args.out, "oracle-jensen", _args_config(args), args.seed)
    if failures:
        raise CheckFailedError("; ".join(failures))
    return EXIT_OK


def _cmd_oracle_cross_term(args) -> int:
    from .errors import CheckFailedError
    from .gaussian_oracle import (GaussianFlowSpec, conditional_pair_sample,
                                  cross_term_expectation, marginal_variance)
    from .interpolant import LinearPath
    from .rng import rng_for

    import numpy as np

    spec = GaussianFlowSpec(dim=args.dim, data_std=args.data_std)
    interp = LinearPath()
    rng = rng_for(args.seed, "oracle:cross-term")
    rows, failures = [], []
    for t in _parse_floats(args.t):
        x = rng.standard_normal(args.dim) * float(np.sqrt(marginal_variance(spec, interp, t)))
        closed = cross_term_expectation(spec, interp, x, t)
        if t in (0.0, 1.0):
            rows.append((t, closed, closed, 0.0))
            if closed != 0.0:
                failures.append(f"t={t}: boundary cross-term not exactly zero")
            continue
        x0, x1 = conditional_pair_sample(spec, interp, x, t, args.n_mc, rng)
        inner = np.einsum("ij,ij->i", x0, x1)
        est = float(inner.mean())
        se = float(inner.std(ddof=1) / np.sqrt(args.n_mc))
        rows.append((t, closed, est, se))
        if abs(est - closed) > 3.0 * se:
            failures.append(f"t={t}: closed form and MC disagree beyond 3 stderr")
    _emit(args.out, ("t", "closed_form", "mc_estimate", "mc_stderr"), rows)
    _sidecar_manifest(args.out, "oracle-cross-term", _args_config(args),
                      args.seed)
    if failures:
        raise CheckFailedError("; ".join(failures))
    return EXIT_OK


def _cmd_oracle_rho(args) -> int:
    from .gaussian_oracle import rho_statistics

    stats = rho_statistics(args.dim, args.pairs, data_std=args.data_std, seed=args.seed)
    _emit(args.out, ("dim", "mean_rho", "p99_rho", "max_rho"),
          [(stats.dim, stats.mean, stats.p99, stats.max)])
    _sidecar_manifest(args.out, "oracle-rho", _args_config(args), args.seed)
    return EXIT_OK


def _cmd_diagnose_norm(args) -> int:
    import numpy as np

    from .datasets import make_dataset
    from .diagnostics import norm_profile
    from .errors import ConfigError

    ck, interp, train_config = _load_net(args.checkpoint)
    dataset = make_dataset(train_config["dataset"])
    parts = args.grid.split(":")
    if len(parts) != 3:
        raise ConfigError("grid must look like start:stop:count")
    times = np.linspace(float(parts[0]), float(parts[1]), int(parts[2]))
    profile = norm_profile(ck.net.forward, interp, dataset, times,
                           n_samples=args.samples, seed=args.seed)
    stderr = profile.std / np.sqrt(args.samples)
    rows = list(zip(profile.times, profile.mean, stderr))
    _emit(args.out, ("t", "value", "stderr"), rows)
    _sidecar_manifest(args.out, "diagnose-norm", {
        "checkpoint": str(args.checkpoint), "grid": args.grid,
        "samples": args.samples}, args.seed)
    if args.svg is not None:
        from .svg import write_line_chart

        write_line_chart(args.svg, profile.times,
                         {"predicted": profile.mean, "target": profile.target_rms},
                         title="velocity norm profile", xlabel="t", ylabel="mean norm")
        print(f"wrote {args.svg}")
    return EXIT_OK


def _cmd_diagnose_fld(args) -> int:
    import hashlib

    from .diagnostics import split_half_fld, track_fld
    from .rng import rng_for
    from .solver import load_trajectory

    import numpy as np

    traj = load_trajectory(args.traj)
    reference, ref_id = _parse_reference(args.reference, args.reference_samples, args.seed)
    report = track_fld(traj, reference, reference_id=ref_id, verify=args.verify)
    # noise floor from a same-size synthetic draw against itself
    rng = rng_for(args.seed, "fld:floor")
    n = report.n_samples
    chol = np.linalg.cholesky(reference.cov + 1e-12 * np.eye(reference.dim))
    synth = reference.mean + rng.standard_normal((2 * n, reference.dim)) @ chol.T
    floor = split_half_fld(synth)
    rows = [(t, v, floor) for t, v in zip(report.times, report.values)]
    _emit(args.out, ("t", "value", "split_half_floor"), rows)
    if args.out is not None:
        # the reference travels with the CSV: a shared directory manifest can be overwritten
        digest = hashlib.sha256(reference.mean.tobytes() + reference.cov.tobytes()).hexdigest()
        meta = {"reference": args.reference, "reference_id": f"{ref_id}:{digest[:16]}"}
        Path(f"{args.out}.json").write_text(json.dumps(meta, indent=2) + "\n")
    _sidecar_manifest(args.out, "diagnose-fld", {
        "traj": str(args.traj), "reference": args.reference,
        "split_half_floor": floor}, args.seed)
    if args.svg is not None:
        from .svg import write_line_chart

        write_line_chart(args.svg, list(report.times), {"fld": list(report.values)},
                         title=f"distance to target ({ref_id})", xlabel="t", ylabel="FLD")
        print(f"wrote {args.svg}")
    return EXIT_OK


def _cmd_diagnose_lag(args) -> int:
    import numpy as np

    from .diagnostics import FldReport, lag_improvement
    from .errors import ConfigError
    from .reporting import read_csv

    def reference_of(path):
        try:
            return json.loads(Path(f"{path}.json").read_text())["reference_id"]
        except (OSError, ValueError, KeyError, TypeError):
            return None

    refs = [reference_of(path) for path in (args.baseline, args.corrected)]
    if None in refs or refs[0] != refs[1]:
        raise ConfigError(
            f"{args.baseline} and {args.corrected} must carry the same reference in their "
            f"'diagnose fld' sidecars ({args.baseline}.json, {args.corrected}.json); "
            f"found {refs[0]!r} and {refs[1]!r}")

    def load_report(path, reference_id):
        header, rows = read_csv(path)
        times = tuple(float(r[0]) for r in rows)
        values = np.array([float(r[1]) for r in rows])
        return FldReport(times=times, values=values, reference_id=reference_id, n_samples=0)

    baseline = load_report(args.baseline, refs[0])
    corrected = load_report(args.corrected, refs[1])
    deltas = lag_improvement(baseline, corrected)
    _emit(args.out, ("t", "value"), list(zip(baseline.times, deltas)))
    _sidecar_manifest(args.out, "diagnose-lag",
                      {"baseline": str(args.baseline), "corrected": str(args.corrected)}, 0)
    return EXIT_OK


def _cmd_lag_sweep(args) -> int:
    config = {
        "checkpoint": str(args.checkpoint),
        "nfe": [int(v) for v in _parse_floats(args.nfe)],
        "s_start": _parse_floats(args.s_start),
        "extra_rows": args.extra_rows,
        "method": args.method,
        "particles": args.particles,
        "floor_nfe": args.floor_nfe,
        "require_lag_ratio": args.require_lag_ratio,
        "checkpoints": _parse_floats(args.checkpoints),
        "seed": args.seed,
    }
    return run_lag_sweep(config, Path(args.out))


def run_lag_sweep(config: dict, out_dir: Path) -> int:
    """Cross product of step budgets and injection scales, with a
    high-step floor run; returns the overshoot exit code when no
    s_start > 1 strictly improves the terminal distance."""
    from .errors import CheckFailedError
    from .diagnostics import track_fld
    from .reporting import write_csv, write_manifest
    from .solver import ScaleSchedule, SolverSpec, integrate

    ck, interp, train_config = _load_net(config["checkpoint"])
    reference, ref_id = _reference_for(train_config["dataset"], 8192, config["seed"])
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(out_dir, "lag-sweep", config, config["seed"])

    checkpoints = tuple(config["checkpoints"])
    schedules = [("baseline", ScaleSchedule("linear", 1.0, 1.0))]
    schedules += [(f"linear:{s:g}:1.0", ScaleSchedule("linear", s, 1.0))
                  for s in config["s_start"] if s != 1.0]
    if config["extra_rows"]:
        schedules.append(("linear:1.0:1.1", ScaleSchedule("linear", 1.0, 1.1)))
        schedules.append(("linear:1.05:1.05", ScaleSchedule("linear", 1.05, 1.05)))

    def run_cell(nfe, schedule):
        spec = SolverSpec(method=config["method"], nfe=nfe, schedule=schedule,
                          checkpoints=checkpoints)
        traj = integrate(ck.net.forward, spec, dim=ck.net.dim,
                         n_particles=config["particles"], seed=config["seed"],
                         interp=interp)
        return track_fld(traj, reference, reference_id=ref_id)

    floor_report = run_cell(config["floor_nfe"], ScaleSchedule("linear", 1.0, 1.0))
    header = ["nfe", "label", "s_start", "s_end"] + [f"fld_at_{t:g}" for t in checkpoints]
    rows = [[config["floor_nfe"], "floor", 1.0, 1.0] + list(floor_report.values)]
    results = {}
    for nfe in config["nfe"]:
        for label, schedule in schedules:
            report = run_cell(int(nfe), schedule)
            results[(int(nfe), label)] = report
            rows.append([int(nfe), label, schedule.s_start, schedule.s_end]
                        + list(report.values))
    write_csv(out_dir / "lag_sweep.csv", header, rows)

    summary_lines = [f"reference: {ref_id}",
                     f"floor (nfe={config['floor_nfe']}): terminal FLD "
                     f"{floor_report.terminal:.6g}"]
    exit_code = EXIT_OK
    primary_nfe = int(config["nfe"][0])
    baseline = results[(primary_nfe, "baseline")]
    ratio = baseline.terminal / max(floor_report.terminal, 1e-300)
    summary_lines.append(f"baseline (nfe={primary_nfe}): terminal FLD "
                         f"{baseline.terminal:.6g} ({ratio:.2f}x the floor)")
    improving = [(label, r.terminal) for (nfe, label), r in results.items()
                 if nfe == primary_nfe and label.startswith("linear:")
                 and label.endswith(":1.0") and r.terminal < baseline.terminal]
    best_label, best_terminal = min(
        ((label, r.terminal) for (nfe, label), r in results.items() if nfe == primary_nfe),
        key=lambda kv: kv[1])
    summary_lines.append(f"best cell at nfe={primary_nfe}: {best_label} "
                         f"(terminal FLD {best_terminal:.6g})")
    if improving:
        summary_lines.append("improving s_start rows: "
                             + ", ".join(label for label, _ in improving))
    else:
        summary_lines.append(f"CAVEAT: {OVERSHOOT_CAVEAT}")
        exit_code = EXIT_OVERSHOOT
    (out_dir / "summary.txt").write_text("\n".join(summary_lines) + "\n")
    print("\n".join(summary_lines))
    print(f"wrote {out_dir / 'lag_sweep.csv'}")

    required = config.get("require_lag_ratio")
    if required is not None and ratio < required:
        raise CheckFailedError(
            f"baseline terminal FLD is only {ratio:.2f}x the discretization floor "
            f"(required {required}x): no integration lag to correct")
    return exit_code


def _cmd_schedule_calibrate(args) -> int:
    from .solver import ScaleSchedule, calibrate_s_start

    s_start = calibrate_s_start(args.shape, s_end=args.s_end, target_area=args.area)
    check = ScaleSchedule(args.shape, s_start, args.s_end).area()
    print(f"s_start = {s_start:.10g}")
    print(f"area({args.shape}, {s_start:.10g} -> {args.s_end:g}) = {check:.10g}")
    return EXIT_OK


EXPERIMENTS = ("train", "sample", "oracle-jensen", "oracle-cross-term", "rho-stats",
               "diagnose-norm", "diagnose-fld", "diagnose-lag", "lag-sweep",
               "schedule-calibrate")


def _cmd_run(args) -> int:
    """Dispatch one experiment from a JSON document (strict schema)."""
    from .errors import ConfigError

    raw = json.loads(Path(args.config).read_text())
    if not isinstance(raw, dict):
        raise ConfigError("experiment config must be a JSON object")
    allowed = {"experiment", "name", "out_dir", "seed", "verify", "spec"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown experiment fields: {sorted(unknown)}")
    for required in ("experiment", "out_dir", "spec"):
        if required not in raw:
            raise ConfigError(f"experiment config requires {required!r}")
    experiment = raw["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
    out_dir = Path(raw["out_dir"])
    seed = int(raw.get("seed", 0))
    spec = raw["spec"]
    if not isinstance(spec, dict):
        raise ConfigError("'spec' must be a JSON object")

    argv_map = {
        "sample": "sample", "oracle-jensen": "oracle jensen",
        "oracle-cross-term": "oracle cross-term", "rho-stats": "oracle rho",
        "diagnose-norm": "diagnose norm", "diagnose-fld": "diagnose fld",
        "diagnose-lag": "diagnose lag", "schedule-calibrate": "schedule-calibrate",
    }
    if experiment == "train":
        from .reporting import write_manifest
        from .training import TrainConfig, train

        config = TrainConfig.from_dict({**spec, "seed": seed})
        write_manifest(out_dir, "train", config.to_dict(), seed)
        result = train(config, out_dir=out_dir)
        print(f"checkpoint: {result.checkpoint_path}")
        return EXIT_OK
    if experiment == "lag-sweep":
        defaults = {"nfe": [10], "s_start": [1.0, 1.05, 1.1, 1.15, 1.2],
                    "extra_rows": True, "method": "euler", "particles": 8192,
                    "floor_nfe": 500, "require_lag_ratio": None,
                    "checkpoints": [0.2, 0.4, 0.6, 0.8, 1.0]}
        unknown = set(spec) - set(defaults) - {"checkpoint"}
        if unknown:
            raise ConfigError(f"unknown lag-sweep fields: {sorted(unknown)}")
        if "checkpoint" not in spec:
            raise ConfigError("lag-sweep requires 'checkpoint'")
        return run_lag_sweep({**defaults, **spec, "seed": seed}, out_dir)

    # remaining experiments reuse the flag-based entry points
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = argv_map[experiment].split()
    for key, value in spec.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif isinstance(value, list):
            argv.extend([flag, ",".join(str(v) for v in value)])
        else:
            argv.extend([flag, str(value)])
    no_seed = {"schedule-calibrate", "diagnose-lag"}
    no_out = {"schedule-calibrate"}
    if experiment not in no_seed:
        argv.extend(["--seed", str(seed)])
    if experiment not in no_out and "out" not in spec:
        argv.extend(["--out", str(out_dir / f"{experiment}.csv")])
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects unknown spec fields with code 2
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
