"""End-to-end command behavior: artifacts, exit codes, manifests."""

import dataclasses
import json
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import flowlag
from flowlag import cli
from flowlag.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_OK, EXIT_OVERSHOOT, EXIT_RUNTIME, main
from flowlag.errors import CheckFailedError
from flowlag.reporting import read_csv
from flowlag.solver import load_trajectory


def run_cli(*argv):
    return main(list(argv))


class TestScheduleCalibrate:
    def test_quad_in_value(self, capsys):
        assert run_cli("schedule-calibrate", "--shape", "quad-in", "--area", "1.05") == EXIT_OK
        out = capsys.readouterr().out
        assert "s_start = 1.075" in out

    def test_infeasible_area_is_runtime_error(self):
        code = run_cli("schedule-calibrate", "--shape", "linear", "--area", "-5.0")
        assert code == 4

    @pytest.mark.parametrize("error,code", [(CheckFailedError, EXIT_CHECK),
                                            (AssertionError, EXIT_RUNTIME)])
    def test_only_failed_checks_exit_3(self, monkeypatch, capsys, error, code):
        """A failed verification exits 3; an internal assertion is a fault, exit 4."""
        def fail(params, seed, out):
            raise error("boom")

        entry = cli.EXPERIMENTS["schedule-calibrate"]
        monkeypatch.setitem(cli.EXPERIMENTS, entry.name, dataclasses.replace(entry, func=fail))
        assert run_cli("schedule-calibrate", "--shape", "linear", "--area", "1.05") == code
        assert "boom" in capsys.readouterr().err


class TestOracleCommands:
    def test_jensen_rows_confirm_deficit(self, tmp_path, capsys):
        out = tmp_path / "jensen.csv"
        code = run_cli("oracle", "jensen", "--dim", "16", "--t", "0.25,0.5,0.75",
                       "--n-mc", "20000", "--out", str(out))
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["t", "learned_energy", "target_energy", "mc_stderr"]
        for row in rows:
            assert float(row[1]) < float(row[2])
        assert (tmp_path / "manifest.json").exists()

    def test_jensen_stdout_when_no_out(self, capsys):
        code = run_cli("oracle", "jensen", "--dim", "8", "--t", "0.5", "--n-mc", "5000")
        assert code == EXIT_OK
        assert "learned_energy" in capsys.readouterr().out

    def test_cross_term_with_boundaries(self, tmp_path):
        out = tmp_path / "ct.csv"
        code = run_cli("oracle", "cross-term", "--dim", "16",
                       "--t", "0.0,0.25,0.5,0.75,1.0", "--n-mc", "20000",
                       "--out", str(out))
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert float(rows[0][1]) == 0.0
        assert float(rows[-1][1]) == 0.0

    def test_rho_csv(self, tmp_path):
        out = tmp_path / "rho.csv"
        code = run_cli("oracle", "rho", "--dim", "256", "--pairs", "10000",
                       "--out", str(out))
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["dim", "mean_rho", "p99_rho", "max_rho"]
        assert abs(float(rows[0][1]) - np.sqrt(2 / (np.pi * 256))) < 0.005

    def test_rho_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("oracle", "rho", "--dim", "64", "--pairs", "10000", "--out", str(a))
        run_cli("oracle", "rho", "--dim", "64", "--pairs", "10000", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestTrainAndSample:
    def test_train_writes_artifacts(self, tiny_config_file, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli("train", "--config", str(tiny_config_file), "--out", str(out))
        assert code == EXIT_OK
        assert (out / "loss.csv").exists()
        assert (out / "checkpoint.npz").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "train"
        assert manifest["seed"] == 7
        assert "checkpoint" in capsys.readouterr().out

    def test_sample_roundtrip(self, tiny_run, tmp_path):
        traj_path = tmp_path / "traj.bin"
        code = run_cli("sample", "--checkpoint", str(tiny_run.checkpoint_path),
                       "--nfe", "10", "--schedule", "linear:1.1:1.0",
                       "--particles", "128", "--seed", "3", "--out", str(traj_path))
        assert code == EXIT_OK
        times, states = load_trajectory(traj_path)
        assert times == (0.2, 0.4, 0.6, 0.8, 1.0)
        assert states[0].shape == (128, 4)

    def test_older_checkpoint_version_exits_4(self, tiny_run, tmp_path):
        with np.load(tiny_run.checkpoint_path) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta_json"]).decode("utf-8"))
        meta["version"] -= 1
        arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        old = tmp_path / "old.npz"
        np.savez(old, **arrays)
        code = run_cli("sample", "--checkpoint", str(old), "--nfe", "2",
                       "--particles", "8", "--out", str(tmp_path / "traj.bin"))
        assert code == 4
        assert not (tmp_path / "traj.bin").exists()

    def test_bad_train_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"dataset": {"kind": "gaussian", "dim": 4},
                                   "unknown_knob": 1}))
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_CONFIG
        assert not (tmp_path / "o" / "loss.csv").exists()

    def test_train_has_no_seed_flag(self, tiny_config_file, tmp_path):
        """train's seed is a field of its config file; a --seed flag is refused."""
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--config", str(tiny_config_file), "--out", str(out),
                    "--seed", "7")
        assert exc.value.code == EXIT_CONFIG
        assert not out.exists()


class TestDiagnoseCommands:
    def test_norm_profile_csv_and_svg(self, tiny_run, tmp_path):
        out = tmp_path / "norm.csv"
        svg = tmp_path / "norm.svg"
        code = run_cli("diagnose", "norm", "--checkpoint", str(tiny_run.checkpoint_path),
                       "--grid", "0.1:0.9:5", "--samples", "1000",
                       "--out", str(out), "--svg", str(svg))
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["t", "value", "stderr"]
        assert len(rows) == 5
        assert svg.read_text().startswith("<svg")

    def test_fld_and_lag(self, tiny_run, tmp_path):
        base_traj = tmp_path / "base.bin"
        run_cli("sample", "--checkpoint", str(tiny_run.checkpoint_path), "--nfe", "10",
                "--particles", "512", "--seed", "5", "--out", str(base_traj))
        corr_traj = tmp_path / "corr.bin"
        run_cli("sample", "--checkpoint", str(tiny_run.checkpoint_path), "--nfe", "10",
                "--schedule", "linear:1.1:1.0", "--particles", "512", "--seed", "5",
                "--out", str(corr_traj))
        base_csv, corr_csv = tmp_path / "base.csv", tmp_path / "corr.csv"
        assert run_cli("diagnose", "fld", "--traj", str(base_traj), "--reference",
                       "gaussian:4:1.0", "--out", str(base_csv)) == EXIT_OK
        assert run_cli("diagnose", "fld", "--traj", str(corr_traj), "--reference",
                       "gaussian:4:1.0", "--verify", "--out", str(corr_csv)) == EXIT_OK
        lag_csv = tmp_path / "lag.csv"
        assert run_cli("diagnose", "lag", "--baseline", str(base_csv),
                       "--corrected", str(corr_csv), "--out", str(lag_csv)) == EXIT_OK
        header, rows = read_csv(lag_csv)
        assert header == ["t", "value"]
        assert len(rows) == 5
        header, _ = read_csv(base_csv)
        assert header == ["t", "value", "split_half_floor"]
        refs = {json.loads(Path(f"{csv}.json").read_text())["reference_id"]
                for csv in (base_csv, corr_csv)}
        assert len(refs) == 1 and refs.pop().startswith("gaussian:analytic:")

    def test_lag_refuses_reports_against_different_references(self, tiny_run, tmp_path, capsys):
        traj = tmp_path / "traj.bin"
        run_cli("sample", "--checkpoint", str(tiny_run.checkpoint_path), "--nfe", "10",
                "--particles", "512", "--seed", "5", "--out", str(traj))
        one, two = tmp_path / "std1" / "fld.csv", tmp_path / "std2" / "fld.csv"
        for csv, reference in ((one, "gaussian:4:1.0"), (two, "gaussian:4:2.0")):
            csv.parent.mkdir()
            assert run_cli("diagnose", "fld", "--traj", str(traj), "--reference", reference,
                           "--out", str(csv)) == EXIT_OK
        capsys.readouterr()
        lag = ("diagnose", "lag", "--baseline", str(one), "--corrected", str(two))
        assert run_cli(*lag) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{one}.json" in err and f"{two}.json" in err
        # a report without its sidecar is refused too, also against itself
        Path(f"{two}.json").unlink()
        assert run_cli("diagnose", "lag", "--baseline", str(two), "--corrected", str(two)) \
            == EXIT_CONFIG
        assert run_cli(*lag) == EXIT_CONFIG


class TestLagSweep:
    def test_sweep_report_complete(self, tiny_run, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli("lag-sweep", "--checkpoint", str(tiny_run.checkpoint_path),
                       "--nfe", "10", "--particles", "512", "--floor-nfe", "80",
                       "--seed", "2", "--out", str(out))
        assert code in (EXIT_OK, EXIT_OVERSHOOT)
        header, rows = read_csv(out / "lag_sweep.csv")
        assert header[:4] == ["nfe", "label", "s_start", "s_end"]
        labels = {r[1] for r in rows}
        assert {"floor", "baseline", "linear:1.1:1.0", "linear:1.0:1.1",
                "linear:1.05:1.05"} <= labels
        summary = (out / "summary.txt").read_text()
        if code == EXIT_OVERSHOOT:
            assert "overshoot" in summary
        else:
            assert "improving s_start rows" in summary
        assert (out / "manifest.json").exists()

    def test_require_lag_ratio_can_fail(self, tiny_run, tmp_path):
        code = run_cli("lag-sweep", "--checkpoint", str(tiny_run.checkpoint_path),
                       "--nfe", "10", "--particles", "256", "--floor-nfe", "40",
                       "--s-start", "1.0,1.1", "--require-lag-ratio", "1e9",
                       "--out", str(tmp_path / "s"))
        assert code == EXIT_CHECK


class TestRunExperiment:
    def test_schedule_calibrate_via_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "experiment": "schedule-calibrate", "out_dir": str(tmp_path / "o"),
            "spec": {"shape": "quad-out", "area": 1.05}}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_OK
        assert "s_start = 1.15" in capsys.readouterr().out

    def test_rho_via_config(self, tmp_path):
        cfg = tmp_path / "exp.json"
        out_dir = tmp_path / "rho_out"
        cfg.write_text(json.dumps({
            "experiment": "rho-stats", "out_dir": str(out_dir), "seed": 1,
            "spec": {"dim": 64, "pairs": 10000}}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_OK
        assert (out_dir / "rho-stats.csv").exists()

    def test_unknown_experiment_exits_2(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"experiment": "evaluate", "out_dir": "x", "spec": {}}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG

    def test_missing_field_exits_2_without_artifacts(self, tmp_path):
        cfg = tmp_path / "exp.json"
        out_dir = tmp_path / "never"
        cfg.write_text(json.dumps({"experiment": "rho-stats", "spec": {"dim": 8}}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
        assert not out_dir.exists()

    def test_unknown_top_level_field_exits_2(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"experiment": "rho-stats", "out_dir": "x",
                                   "spec": {}, "threads": 4}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG

    def test_malformed_json_exits_2(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text("{not json")
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG

    @pytest.mark.parametrize("experiment", ["train", "lag-sweep", "rho-stats"])
    def test_seed_inside_spec_exits_2(self, tiny_run, tmp_path, experiment):
        """The envelope holds the only seed; a spec that carries one is refused."""
        spec = {"train": {"dataset": {"kind": "gaussian", "dim": 4}, "steps": 5},
                "lag-sweep": {"checkpoint": str(tiny_run.checkpoint_path)},
                "rho-stats": {"dim": 8}}[experiment]
        cfg = tmp_path / "exp.json"
        out_dir = tmp_path / "never"
        cfg.write_text(json.dumps({"experiment": experiment, "out_dir": str(out_dir),
                                   "spec": {**spec, "seed": 5}}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
        assert not out_dir.exists()

    @pytest.mark.parametrize("experiment", ["diagnose-lag", "schedule-calibrate"])
    def test_seed_for_unseeded_experiment_exits_2(self, fld_inputs, tmp_path, experiment):
        """An experiment that draws no random numbers refuses a seed it would only record."""
        spec = {"diagnose-lag": {"baseline": fld_inputs[1][0], "corrected": fld_inputs[1][1]},
                "schedule-calibrate": {"shape": "quad-in", "area": 1.05}}[experiment]
        cfg = tmp_path / "exp.json"
        out_dir = tmp_path / "never"
        cfg.write_text(json.dumps({"experiment": experiment, "out_dir": str(out_dir),
                                   "seed": 3, "spec": spec}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
        assert not out_dir.exists()

    @pytest.mark.parametrize("field", ["verify", "name"])
    def test_dropped_envelope_fields_exit_2(self, tmp_path, field):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"experiment": "rho-stats", "out_dir": str(tmp_path / "o"),
                                   "spec": {"dim": 8}, field: True}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad", [{"steps": "10"}, {"steps": 10.5}, {"learning_rate": "1e-3"},
                                     {"batch_size": True}, {"seed": 7.9}, {"hidden": [4.7]},
                                     {"lam0": True}, {"decay": 0.1}])
    @pytest.mark.parametrize("door", ["train", "run"])
    def test_bad_train_fields_exit_2(self, tmp_path, door, bad):
        """An ill-typed or unknown train config field is refused before anything is written."""
        out_dir = tmp_path / "train"
        spec = {"dataset": {"kind": "gaussian", "dim": 4}, "steps": 5, **bad}
        cfg = tmp_path / "cfg.json"
        if door == "train":
            cfg.write_text(json.dumps(spec))
            argv = ["train", "--config", str(cfg), "--out", str(out_dir)]
        else:
            seed = {"seed": spec.pop("seed")} if "seed" in spec else {}
            cfg.write_text(json.dumps({"experiment": "train", "out_dir": str(out_dir),
                                       "spec": spec, **seed}))
            argv = ["run", "--config", str(cfg)]
        assert run_cli(*argv) == EXIT_CONFIG
        assert not out_dir.exists()

    @pytest.mark.parametrize("door", ["sample", "run"])
    def test_failure_after_validation_leaves_manifest(self, tmp_path, door):
        """Valid parameters are recorded before the run, so a run that then fails
        still leaves its manifest, from flags and from run alike."""
        out_dir = tmp_path / "new" / "dir"
        if door == "sample":
            argv = ["sample", "--checkpoint", str(tmp_path / "missing.npz"),
                    "--out", str(out_dir / "sample.bin")]
        else:
            cfg = tmp_path / "exp.json"
            cfg.write_text(json.dumps({"experiment": "sample", "out_dir": str(out_dir),
                                       "spec": {"checkpoint": str(tmp_path / "missing.npz")}}))
            argv = ["run", "--config", str(cfg)]
        assert run_cli(*argv) == EXIT_CONFIG
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["experiment"] == "sample"
        assert manifest["config"]["nfe"] == 50
        assert not (out_dir / "sample.bin").exists()

    @pytest.mark.parametrize("bad", [{"nfe": "25"}, {"s_start": 1.1}, {"nfe": [10.7]},
                                     {"particles": True}, ["--nfe", "10.7"]])
    def test_ill_typed_lag_sweep_fields_exit_2(self, tiny_run, tmp_path, bad):
        """A spec field of the wrong JSON type, or a flag that does not parse as its type."""
        out_dir = tmp_path / "sweep"
        spec = {"checkpoint": str(tiny_run.checkpoint_path), "particles": 64, "floor_nfe": 10}
        if isinstance(bad, list):
            argv = ["lag-sweep", "--checkpoint", spec["checkpoint"], *bad, "--out", str(out_dir)]
        else:
            cfg = tmp_path / "exp.json"
            cfg.write_text(json.dumps({"experiment": "lag-sweep", "out_dir": str(out_dir),
                                       "spec": {**spec, **bad}}))
            argv = ["run", "--config", str(cfg)]
        try:
            code = run_cli(*argv)
        except SystemExit as exc:  # argparse rejects a bad flag value
            code = exc.code
        assert code == EXIT_CONFIG
        assert not out_dir.exists()


@pytest.fixture(scope="module")
def fld_inputs(tiny_run, tmp_path_factory):
    """A trajectory and two 'diagnose fld' reports of the tiny run, with their sidecars."""
    root = tmp_path_factory.mktemp("fld_inputs")
    ck = str(tiny_run.checkpoint_path)
    reports = []
    for name, schedule in (("base", "constant-one"), ("corr", "linear:1.1:1.0")):
        traj, csv = root / f"{name}.bin", root / f"{name}.csv"
        assert main(["sample", "--checkpoint", ck, "--nfe", "6", "--schedule", schedule,
                     "--particles", "64", "--out", str(traj)]) == EXIT_OK
        assert main(["diagnose", "fld", "--traj", str(traj), "--reference", "gaussian:4:1.0",
                     "--out", str(csv)]) == EXIT_OK
        reports.append(str(csv))
    return str(root / "base.bin"), reports


def _flag_argv(spec: dict) -> list:
    argv = []
    for key, value in spec.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, ",".join(str(v) for v in value)]
        else:
            argv += [flag, str(value)]
    return argv


def _artifacts(root: Path) -> dict:
    """Relative path -> bytes; a checkpoint by its members, since zip entries carry a time."""
    found = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.suffix == ".npz":
            with zipfile.ZipFile(path) as z:
                found[str(path.relative_to(root))] = {n: z.read(n) for n in z.namelist()}
        else:
            found[str(path.relative_to(root))] = path.read_bytes()
    return found


class TestFlagsMatchRun:
    """Every experiment writes the same artifacts from flags and from a run spec."""

    @staticmethod
    def specs(ck, traj, reports):
        return {
            "train": {"dataset": {"kind": "gaussian", "dim": 4}, "steps": 20, "batch_size": 16,
                      "hidden": [8], "log_every": 10, "loss": "mafm"},
            "sample": {"checkpoint": ck, "nfe": 4, "schedule": "linear:1.1:1.0",
                       "method": "heun", "particles": 32, "checkpoints": [0.5, 1]},
            "oracle-jensen": {"dim": 4, "t": [0.5], "n_mc": 20000},
            "oracle-cross-term": {"dim": 4, "t": [0.0, 0.5], "n_mc": 2000},
            "rho-stats": {"dim": 16, "pairs": 10000, "data_std": 2},
            "diagnose-norm": {"checkpoint": ck, "grid": "0.2:0.8:3", "samples": 1000},
            "diagnose-fld": {"traj": traj, "reference": "gaussian:4:1.0", "verify": True},
            "diagnose-lag": {"baseline": reports[0], "corrected": reports[1]},
            "lag-sweep": {"checkpoint": ck, "nfe": [4, 6], "s_start": [1.0, 1.1],
                          "particles": 32, "floor_nfe": 8, "checkpoints": [0.5, 1.0]},
            "schedule-calibrate": {"shape": "quad-in", "area": 1.05},
        }

    @pytest.mark.parametrize("name", list(cli.EXPERIMENTS))
    def test_same_artifacts(self, name, tiny_run, fld_inputs, tmp_path, capsys):
        exp = cli.EXPERIMENTS[name]
        spec = self.specs(str(tiny_run.checkpoint_path), *fld_inputs)[name]
        seed = 3 if exp.seeded else 0  # an unseeded experiment refuses a seed
        flag_dir, run_dir = tmp_path / "flags", tmp_path / "run"  # neither exists yet
        if callable(exp.params):
            config = tmp_path / "train.json"
            config.write_text(json.dumps({**spec, "seed": seed}))
            argv = ["--config", str(config)]
        else:
            argv = _flag_argv(spec) + (["--seed", str(seed)] if exp.seeded else [])
        if exp.out == "dir":
            argv += ["--out", str(flag_dir)]
        elif exp.out is not None:
            argv += ["--out", str(flag_dir / f"{name}.{exp.out}")]
        flag_code = main([*exp.command.split(), *argv])
        flag_stdout = capsys.readouterr().out.replace(str(flag_dir), "OUT")

        cfg = tmp_path / "exp.json"
        envelope = {"experiment": name, "out_dir": str(run_dir), "spec": spec}
        cfg.write_text(json.dumps({**envelope, "seed": seed} if exp.seeded else envelope))
        assert main(["run", "--config", str(cfg)]) == flag_code
        assert capsys.readouterr().out.replace(str(run_dir), "OUT") == flag_stdout
        assert flag_code in (EXIT_OK, EXIT_OVERSHOOT)

        if exp.out is None:
            assert not run_dir.exists()
            return
        artifacts = _artifacts(flag_dir)
        assert _artifacts(run_dir) == artifacts
        manifest = json.loads(artifacts["manifest.json"])
        assert manifest["experiment"] == name
        assert manifest["seed"] == seed
        if exp.out in ("bin", "csv"):
            assert f"{name}.{exp.out}" in artifacts


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "flowlag.cli",
                               "schedule-calibrate", "--shape", "cosine", "--area", "1.05"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "s_start = 1.1" in proc.stdout

    def test_thread_cap_env(self):
        # a minimal environment, except that the child must import the same
        # flowlag as this process, installed or not
        package_root = str(Path(flowlag.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-m", "flowlag.cli", "oracle", "rho",
                               "--dim", "32", "--pairs", "10000"],
                              capture_output=True, text=True,
                              env={"PATH": "/usr/bin:/bin", "FLOWLAG_THREADS": "1",
                                   "PYTHONPATH": package_root})
        assert proc.returncode == 0
        assert "mean_rho" in proc.stdout
