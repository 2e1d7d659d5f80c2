"""End-to-end command behavior: artifacts, exit codes, manifests."""

import json
import subprocess
import sys
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
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "_cmd_schedule_calibrate", fail)
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
        assert header == ["t", "value", "stderr"]
        assert len(rows) == 5
        header, _ = read_csv(base_csv)
        assert header == ["t", "value", "split_half_floor"]


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
