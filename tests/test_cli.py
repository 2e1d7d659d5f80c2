"""End-to-end command behavior: artifacts, exit codes, manifests."""

import ast
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest

import flowlag
from flowlag import cli, solver
from flowlag.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_OK, EXIT_OVERSHOOT, EXIT_RUNTIME, main
from flowlag.datasets import DATASETS, make_dataset
from flowlag.diagnostics import lag_improvement, reference_from_dataset, track_fld
from flowlag.errors import CheckFailedError
from flowlag.interpolant import PATH_KINDS, make_interpolant
from flowlag.nn import load_checkpoint, save_checkpoint
from flowlag.reporting import read_csv, write_csv
from flowlag.schema import REQUIRED, params_of
from flowlag.solver import (IDENTITY_SCHEDULE, SolverSpec, Trajectory, integrate,
                            load_trajectory, parse_schedule, save_trajectory)
from flowlag.training import TrainConfig, train


def run_cli(*argv):
    return main(list(argv))


class TestScheduleCalibrate:
    def test_quad_in_value(self, capsys):
        assert run_cli("schedule-calibrate", "--shape", "quad-in", "--area", "1.05") == EXIT_OK
        out = capsys.readouterr().out
        assert "s_start = 1.075" in out

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
        assert json.loads((tmp_path / "jensen.csv.json").read_text())["experiment"] \
            == "oracle-jensen"

    def test_jensen_stdout_when_no_out(self, capsys):
        code = run_cli("oracle", "jensen", "--dim", "8", "--t", "0.5", "--n-mc", "5000")
        assert code == EXIT_OK
        assert "learned_energy" in capsys.readouterr().out

    @pytest.mark.parametrize("dim", [4, 64])
    @pytest.mark.parametrize("path", PATH_KINDS)
    def test_jensen_boundary_identities(self, path, dim, capsys):
        """README's boundary-identities row passes on every path, vp's zero gap at t=1 too."""
        code = run_cli("oracle", "jensen", "--path", path, "--dim", str(dim),
                       "--t", "0.0,1.0", "--n-mc", "2000")
        assert code == EXIT_OK, capsys.readouterr().err

    def test_jensen_underpowered_interior_point_exits_3(self, capsys):
        code = run_cli("oracle", "jensen", "--dim", "4", "--data-std", "100", "--t", "0.9",
                       "--n-mc", "1000")
        assert code == EXIT_CHECK
        assert "inconclusive" in capsys.readouterr().err

    def test_cross_term_with_boundaries(self, tmp_path, path="linear"):
        out = tmp_path / "ct.csv"
        code = run_cli("oracle", "cross-term", "--dim", "16", "--path", path,
                       "--t", "0.0,0.25,0.5,0.75,1.0", "--n-mc", "20000",
                       "--out", str(out))
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert float(rows[0][1]) == 0.0
        assert float(rows[-1][1]) == 0.0

    @pytest.mark.parametrize("path", ["vp", "gvp"])
    def test_cross_term_with_boundaries_on_path(self, tmp_path, path):
        """The closed form holds on every path, and --path reaches it."""
        self.test_cross_term_with_boundaries(tmp_path, path)

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

    @pytest.mark.parametrize("command", [["sample", "--nfe", "2", "--particles", "8"],
                                         ["lag-sweep", "--nfe", "2", "--particles", "8",
                                          "--floor-nfe", "4"],
                                         ["diagnose", "norm", "--samples", "8"]],
                             ids=["sample", "lag-sweep", "diagnose-norm"])
    def test_unreadable_meta_exits_4_naming_the_file(self, tiny_run, tmp_path, capsys, command):
        """meta_json that is not JSON makes a bad checkpoint (exit 4), not a bad config."""
        with np.load(tiny_run.checkpoint_path) as data:
            arrays = dict(data)
        arrays["meta_json"] = np.frombuffer(b"{not json", dtype=np.uint8)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        assert run_cli(*command, "--checkpoint", str(bad),
                       "--out", str(tmp_path / "out")) == EXIT_RUNTIME
        assert f"checkpoint {bad} has unreadable meta_json" in capsys.readouterr().err

    def test_mixed_parameter_dtypes_exit_4_naming_the_file(self, tiny_run, tmp_path, capsys):
        """The arrays set the net's dtype, so one float32 weight in a float64 net is refused
        rather than run in mixed precision."""
        with np.load(tiny_run.checkpoint_path) as data:
            arrays = dict(data)
        assert arrays["param_W0"].dtype == np.float64
        arrays["param_W1"] = arrays["param_W1"].astype(np.float32)
        bad = tmp_path / "mixed.npz"
        np.savez(bad, **arrays)
        assert run_cli("sample", "--checkpoint", str(bad), "--nfe", "2", "--particles", "8",
                       "--out", str(tmp_path / "traj.bin")) == EXIT_RUNTIME
        assert f"checkpoint {bad} mixes parameter dtypes ['float32', 'float64']" \
            in capsys.readouterr().err
        assert not (tmp_path / "traj.bin").exists()

    def test_file_that_also_records_the_architecture_loads_the_same(self, tiny_run, tmp_path):
        """A version-2 file whose meta also holds the net's shape, dtype, time base frequency,
        has_optimizer and Adam's beta1/beta2/eps, as earlier builds wrote it, loads to a net
        and optimizer bit-equal to the file without them and samples the same trajectory."""
        with np.load(tiny_run.checkpoint_path) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta_json"]).decode("utf-8"))
        train_config = meta["extra"]["train_config"]
        earlier = {"version": 2, "dim": 4, "hidden": train_config["hidden"],
                   "n_time_pairs": train_config["n_time_pairs"], "time_base_freq": np.pi,
                   "dtype": "float64", "step": meta["step"], "rng_state": meta["rng_state"],
                   "extra": meta["extra"], "has_optimizer": True,
                   "optimizer": {"lr": meta["optimizer"]["lr"], "beta1": 0.9, "beta2": 0.999,
                                 "eps": 1e-8, "step_count": meta["optimizer"]["step_count"]}}
        arrays["meta_json"] = np.frombuffer(json.dumps(earlier).encode("utf-8"), dtype=np.uint8)
        old = tmp_path / "earlier.npz"
        np.savez(old, **arrays)
        new, got = load_checkpoint(tiny_run.checkpoint_path), load_checkpoint(old)
        assert (got.step, got.rng_state, got.extra) == (new.step, new.rng_state, new.extra)
        assert (got.net.dim, got.net.dtype, got.net.time_embedding.n_pairs) == \
            (new.net.dim, new.net.dtype, new.net.time_embedding.n_pairs)
        assert (got.optimizer.lr, got.optimizer.step_count) == \
            (new.optimizer.lr, new.optimizer.step_count)
        pairs = [(got.net.parameters(), new.net.parameters()),
                 (got.optimizer.m, new.optimizer.m), (got.optimizer.v, new.optimizer.v)]
        for have, want in pairs:
            assert have.keys() == want.keys()
            for k in want:
                assert (have[k].dtype, have[k].shape) == (want[k].dtype, want[k].shape)
                assert have[k].tobytes() == want[k].tobytes()
        for name, checkpoint in (("new", tiny_run.checkpoint_path), ("old", old)):
            assert run_cli("sample", "--checkpoint", str(checkpoint), "--nfe", "5",
                           "--method", "euler-maruyama", "--particles", "64", "--seed", "4",
                           "--out", str(tmp_path / f"{name}.bin")) == EXIT_OK
        assert (tmp_path / "old.bin").read_bytes() == (tmp_path / "new.bin").read_bytes()

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
    def test_norm_profile_csv(self, tiny_run, tmp_path):
        """The profile's one layout, shared with training's norm_profile_<step>.csv."""
        out = tmp_path / "norm.csv"
        code = run_cli("diagnose", "norm", "--checkpoint", str(tiny_run.checkpoint_path),
                       "--grid", "0.1:0.9:5", "--samples", "1000", "--out", str(out))
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["t", "value", "stderr", "target_rms"]
        assert len(rows) == 5
        assert all(float(row[3]) > 0 for row in rows)

    def test_fld_and_lag(self, tiny_run, tmp_path):
        base_traj = tmp_path / "base.bin"
        run_cli("sample", "--checkpoint", str(tiny_run.checkpoint_path), "--nfe", "10",
                "--particles", "512", "--seed", "5", "--out", str(base_traj))
        corr_traj = tmp_path / "corr.bin"
        run_cli("sample", "--checkpoint", str(tiny_run.checkpoint_path), "--nfe", "10",
                "--schedule", "linear:1.1:1.0", "--particles", "512", "--seed", "5",
                "--out", str(corr_traj))
        base_csv = tmp_path / "base.csv"
        assert run_cli("diagnose", "fld", "--traj", str(base_traj), "--reference",
                       "gaussian:4:1.0", "--out", str(base_csv)) == EXIT_OK
        lag_csv = tmp_path / "lag.csv"
        assert run_cli("diagnose", "lag", "--baseline", str(base_traj),
                       "--corrected", str(corr_traj), "--reference", "gaussian:4:1.0",
                       "--seed", "2", "--out", str(lag_csv)) == EXIT_OK
        header, rows = read_csv(lag_csv)
        assert header == ["t", "value"]
        assert len(rows) == 5
        header, _ = read_csv(base_csv)
        assert header == ["t", "value", "sampling_floor"]
        manifest = json.loads(Path(f"{base_csv}.json").read_text())
        assert manifest["experiment"] == "diagnose-fld"
        assert manifest["config"]["reference"] == "gaussian:4:1.0"
        manifest = json.loads(Path(f"{lag_csv}.json").read_text())
        assert manifest["experiment"] == "diagnose-lag"
        assert manifest["config"] == {"baseline": str(base_traj), "corrected": str(corr_traj),
                                      "reference": "gaussian:4:1.0"}
        assert manifest["seed"] == 2

    def test_lag_accepts_the_same_reference_in_either_form(self, fld_inputs, tmp_path):
        """'gaussian:4:1.0' and its dataset block give the same bytes."""
        block = '{"kind": "gaussian", "dim": 4, "std": 1.0}'
        csvs = []
        for name, reference in (("short", "gaussian:4:1.0"), ("block", block)):
            csvs.append(tmp_path / f"{name}.csv")
            assert run_cli("diagnose", "lag", "--baseline", fld_inputs[0],
                           "--corrected", fld_inputs[1], "--reference", reference,
                           "--out", str(csvs[-1])) == EXIT_OK
        assert csvs[0].read_bytes() == csvs[1].read_bytes()

    @pytest.mark.parametrize("block,seeds", [
        ({"kind": "gaussian", "dim": 4, "std": 2.0}, (0,)),
        ({"kind": "gaussian-mixture", "dim": 4}, (0,)),
        ({"kind": "two-moons"}, (0, 4))], ids=["analytic", "mixture", "empirical"])
    def test_lag_is_the_lag_improvement_of_the_two_trajectories(self, tmp_path, block, seeds):
        """The CSV holds lag_improvement of the two track_fld reports bit for bit, against
        the reference resolved at the run's seed: analytic moments, or a fit on draws
        (two-moons), which differs by seed."""
        dataset = make_dataset(block)
        rng = np.random.default_rng(1)
        paths = (tmp_path / "base.bin", tmp_path / "corr.bin")
        for path, scale in zip(paths, (0.8, 0.9)):
            save_trajectory(path, Trajectory((0.5, 1.0), [
                scale * t * rng.standard_normal((64, dataset.dim)) for t in (0.5, 1.0)]))
        rows_by_seed = []
        for seed in seeds:
            out = tmp_path / f"lag{seed}.csv"
            assert run_cli("diagnose", "lag", "--baseline", str(paths[0]),
                           "--corrected", str(paths[1]), "--reference", json.dumps(block),
                           "--seed", str(seed), "--out", str(out)) == EXIT_OK
            reference = reference_from_dataset(dataset, seed=seed)
            base, corr = (track_fld(load_trajectory(path), reference) for path in paths)
            _, rows = read_csv(out)
            assert [[float(v) for v in row] for row in rows] \
                == [[t, d] for t, d in zip(base.times, lag_improvement(base, corr))]
            rows_by_seed.append(rows)
        assert len(seeds) == 1 or rows_by_seed[0] != rows_by_seed[1]

    @pytest.mark.parametrize("bad", ["baseline", "corrected"])
    def test_lag_of_a_non_finite_trajectory_exits_4(self, fld_inputs, tmp_path, capsys, bad):
        """A non-finite state in either trajectory is a numerical fault naming its node time."""
        paths = {"baseline": fld_inputs[0], "corrected": fld_inputs[1]}
        data = bytearray(Path(paths[bad]).read_bytes())   # 5 nodes of 64 x 4
        at = 24 + 40 + 2 * 64 * 4 * 4   # the first value at t = 0.6
        data[at:at + 4] = np.float32(np.nan).tobytes()
        paths[bad] = tmp_path / "bad.bin"
        paths[bad].write_bytes(bytes(data))
        out = tmp_path / "lag.csv"
        assert run_cli("diagnose", "lag", "--baseline", str(paths["baseline"]),
                       "--corrected", str(paths["corrected"]), "--reference", "gaussian:4:1.0",
                       "--out", str(out)) == EXIT_RUNTIME
        assert "non-finite moments at node t=0.6" in capsys.readouterr().err
        assert not out.exists()

    def test_shared_directory_keeps_each_outputs_manifest(self, tiny_run, tmp_path):
        """Two samples and two FLD reports in one directory: each output's manifest
        records its own run."""
        ck = str(tiny_run.checkpoint_path)
        samples = {"base": (64, "constant-one"), "ssc": (96, "linear:1.1:1.0")}
        references = {"base": "gaussian:4:1.0", "ssc": "gaussian:4:2.0"}
        for name, (particles, schedule) in samples.items():
            assert run_cli("sample", "--checkpoint", ck, "--nfe", "6", "--schedule", schedule,
                           "--particles", str(particles),
                           "--out", str(tmp_path / f"{name}.bin")) == EXIT_OK
        for name, reference in references.items():
            assert run_cli("diagnose", "fld", "--traj", str(tmp_path / f"{name}.bin"),
                           "--reference", reference,
                           "--out", str(tmp_path / f"{name}_fld.csv")) == EXIT_OK
        assert not (tmp_path / "manifest.json").exists()
        for name, (particles, schedule) in samples.items():
            manifest = json.loads((tmp_path / f"{name}.bin.json").read_text())
            assert manifest["experiment"] == "sample"
            config = manifest["config"]
            assert (config["checkpoint"], config["particles"], config["schedule"]) \
                == (ck, particles, schedule)
        for name, reference in references.items():
            manifest = json.loads((tmp_path / f"{name}_fld.csv.json").read_text())
            assert manifest["experiment"] == "diagnose-fld"
            assert (manifest["config"]["traj"], manifest["config"]["reference"]) \
                == (str(tmp_path / f"{name}.bin"), reference)

    def test_sampling_floor_is_the_node_sampling_bias(self, tmp_path):
        """n reference draws are scored as the nodes are: against the analytic reference
        their distance averages D(D+1)sd^2/4n + D sd^2/n, within 3 standard errors."""
        dim, sd, n = 16, 1.0, 4096
        traj = tmp_path / "t.bin"
        batch = np.random.default_rng(0).standard_normal((n, dim))
        save_trajectory(traj, Trajectory((1.0,), [batch]))
        floors = []
        for seed in range(8):
            out = tmp_path / f"fld{seed}.csv"
            assert run_cli("diagnose", "fld", "--traj", str(traj), "--reference",
                           f"gaussian:{dim}:{sd}", "--seed", str(seed),
                           "--out", str(out)) == EXIT_OK
            header, rows = read_csv(out)
            assert header[2] == "sampling_floor"
            floors.append(float(rows[0][2]))
        closed = dim * (dim + 1) * sd**2 / (4 * n) + dim * sd**2 / n
        stderr = np.std(floors, ddof=1) / np.sqrt(len(floors))
        assert abs(np.mean(floors) - closed) < 3 * stderr

    @pytest.mark.parametrize("command", ["fld", "lag"])
    def test_fld_refuses_a_reference_of_another_dimension(self, fld_inputs, tmp_path, capsys,
                                                           command):
        out = tmp_path / "out.csv"
        inputs = (["--traj", fld_inputs[0]] if command == "fld"
                  else ["--baseline", fld_inputs[0], "--corrected", fld_inputs[1]])
        assert run_cli("diagnose", command, *inputs, "--reference", "gaussian:8:1.0",
                       "--out", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "dimension 4" in err and "dimension 8" in err
        assert not out.exists()

    @pytest.mark.parametrize("wide", ["baseline", "corrected"])
    def test_lag_refuses_either_trajectory_of_another_dimension(self, fld_inputs, tmp_path,
                                                                capsys, wide):
        """Each trajectory is checked against the reference, not only the first."""
        paths = {"baseline": fld_inputs[0], "corrected": fld_inputs[1]}
        paths[wide] = tmp_path / "wide.bin"
        rng = np.random.default_rng(0)
        save_trajectory(paths[wide], Trajectory((0.5, 1.0), [
            rng.standard_normal((64, 8)) for _ in range(2)]))
        out = tmp_path / "lag.csv"
        assert run_cli("diagnose", "lag", "--baseline", str(paths["baseline"]),
                       "--corrected", str(paths["corrected"]), "--reference", "gaussian:4:1.0",
                       "--out", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{paths[wide]} has dimension 8" in err and "dimension 4" in err
        assert not out.exists()

    def test_lag_of_a_trajectory_against_itself_is_zero(self, fld_inputs, tmp_path):
        """The same file as baseline and corrected improves by exactly 0 at every node."""
        out = tmp_path / "lag.csv"
        assert run_cli("diagnose", "lag", "--baseline", fld_inputs[1], "--corrected",
                       fld_inputs[1], "--reference", "gaussian:4:1.0",
                       "--out", str(out)) == EXIT_OK
        _, rows = read_csv(out)
        assert [float(t) for t, _ in rows] == list(load_trajectory(fld_inputs[1]).node_times)
        assert [float(v) for _, v in rows] == [0.0] * len(rows)

    @pytest.mark.parametrize("fault", ["trailing bytes", "zero nodes", "non-finite states",
                                       "infinite states", "decreasing node times"])
    def test_fld_of_a_malformed_trajectory_exits_4(self, fld_inputs, tmp_path, capsys, fault):
        """A file that does not match its header is an IO fault naming the file; a
        non-finite state is a numerical fault naming its node time, with no warning first."""
        data = bytearray(Path(fld_inputs[0]).read_bytes())   # 5 nodes of 64 x 4
        if fault == "trailing bytes":
            data += data[24 + 40:]
        elif fault == "zero nodes":
            data = data[:20] + bytes(4)
        elif fault == "decreasing node times":
            data[24:32] = np.float64(0.7).tobytes()   # 0.7 before 0.4
        else:
            at = 24 + 40 + 2 * 64 * 4 * 4   # the first value at t = 0.6
            data[at:at + 4] = np.float32(np.inf if fault == "infinite states" else np.nan).tobytes()
        traj, out = tmp_path / "bad.bin", tmp_path / "fld.csv"
        traj.write_bytes(bytes(data))
        assert run_cli("diagnose", "fld", "--traj", str(traj), "--reference", "gaussian:4:1.0",
                       "--out", str(out)) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "non-finite moments at node t=0.6" in err if fault.endswith("states") \
            else str(traj) in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("how", ["truncated", "appended", "replaced"])
    @pytest.mark.parametrize("changed", ["fld", "lag-baseline", "lag-corrected"])
    def test_fld_of_a_trajectory_changed_while_read_exits_4(self, fld_inputs, tmp_path, capsys,
                                                             monkeypatch, change_file, changed,
                                                             how):
        """Only the named input changes after it is loaded; the other stays intact."""
        base, corr = tmp_path / "base.bin", tmp_path / "corr.bin"   # copies of the fixtures
        base.write_bytes(Path(fld_inputs[0]).read_bytes())
        corr.write_bytes(Path(fld_inputs[1]).read_bytes())
        traj, out = (corr if changed == "lag-corrected" else base), tmp_path / "out.csv"

        def load_then_change(path):
            loaded = load_trajectory(path)
            if str(path) == str(traj):
                change_file(path, how)
            return loaded

        monkeypatch.setattr(cli, "load_trajectory", load_then_change)
        command, inputs = (("fld", ["--traj", str(traj)]) if changed == "fld"
                           else ("lag", ["--baseline", str(base), "--corrected", str(corr)]))
        assert run_cli("diagnose", command, *inputs, "--reference", "gaussian:4:1.0",
                       "--out", str(out)) == EXIT_RUNTIME
        assert f"{traj} changed since it was loaded" in capsys.readouterr().err
        assert not out.exists()

    def test_fld_whose_square_root_fails_its_check_exits_3(self, fld_inputs, tmp_path, capsys,
                                                            monkeypatch):
        """Every matrix square root is checked: a slightly scaled eigenbasis fails the check."""
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (eigh(m)[0], eigh(m)[1] * (1 + 1e-6)))
        out = tmp_path / "fld.csv"
        assert run_cli("diagnose", "fld", "--traj", fld_inputs[0], "--reference",
                       "gaussian:4:1.0", "--out", str(out)) == EXIT_CHECK
        assert "sqrtm reconstruction error" in capsys.readouterr().err
        assert not out.exists()

    def test_fld_reads_each_node_once(self, fld_inputs, tmp_path, monkeypatch):
        """The trajectory's shape comes from its header; each node batch is read once."""
        reads = []
        node = solver.TrajectoryFile.node
        monkeypatch.setattr(solver.TrajectoryFile, "node",
                            lambda self, i: reads.append(i) or node(self, i))
        assert run_cli("diagnose", "fld", "--traj", fld_inputs[0], "--reference",
                       "gaussian:4:1.0", "--out", str(tmp_path / "fld.csv")) == EXIT_OK
        assert sorted(reads) == list(range(len(load_trajectory(fld_inputs[0]).node_times)))

    def test_lag_refuses_trajectories_on_different_checkpoint_times(self, tiny_run, fld_inputs,
                                                                   tmp_path, capsys):
        traj = tmp_path / "half.bin"
        assert run_cli("sample", "--checkpoint", str(tiny_run.checkpoint_path), "--nfe", "6",
                       "--particles", "64", "--checkpoints", "0.5,1.0",
                       "--out", str(traj)) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "lag.csv"
        assert run_cli("diagnose", "lag", "--baseline", fld_inputs[0], "--corrected", str(traj),
                       "--reference", "gaussian:4:1.0", "--out", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert fld_inputs[0] in err and str(traj) in err
        assert not out.exists()


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

    def test_rows_are_track_fld_of_each_cell(self, tiny_run, tmp_path):
        """Each CSV row is track_fld of its cell integrated directly, and the improving rows
        are the s_start > 1 ones with a positive terminal lag_improvement."""
        out = tmp_path / "sweep"
        code = run_cli("lag-sweep", "--checkpoint", str(tiny_run.checkpoint_path),
                       "--nfe", "6", "--particles", "256", "--floor-nfe", "40",
                       "--s-start", "1.0,1.05,1.3", "--seed", "3", "--out", str(out))
        _, rows = read_csv(out / "lag_sweep.csv")
        ck = load_checkpoint(tiny_run.checkpoint_path)
        train_config = ck.extra["train_config"]
        reference = reference_from_dataset(make_dataset(train_config["dataset"]), seed=3)
        reports = {}
        for row in rows:
            schedule = (IDENTITY_SCHEDULE if row[1] in ("floor", "baseline")
                        else parse_schedule(row[1]))
            spec = SolverSpec(method="euler", nfe=int(row[0]), schedule=schedule,
                              checkpoints=(0.2, 0.4, 0.6, 0.8, 1.0))
            traj = integrate(ck.net.forward, spec, dim=ck.net.dim, n_particles=256, seed=3,
                             interp=make_interpolant(train_config["path"]))
            reports[row[1]] = track_fld(traj, reference)
            assert [float(v) for v in row[4:]] == reports[row[1]].values.tolist()
        improving = [label for label in ("linear:1.05:1.0", "linear:1.3:1.0")
                     if lag_improvement(reports["baseline"], reports[label])[-1] > 0]
        summary = (out / "summary.txt").read_text()
        assert code == (EXIT_OK if improving else EXIT_OVERSHOOT)
        assert ("improving s_start rows: " + ", ".join(improving) in summary) == bool(improving)

    def test_require_lag_ratio_can_fail(self, tiny_run, tmp_path):
        code = run_cli("lag-sweep", "--checkpoint", str(tiny_run.checkpoint_path),
                       "--nfe", "10", "--particles", "256", "--floor-nfe", "40",
                       "--s-start", "1.0,1.1", "--require-lag-ratio", "1e9",
                       "--out", str(tmp_path / "s"))
        assert code == EXIT_CHECK

    def test_only_s_start_above_one_counts_as_improving(self, tiny_run, tmp_path):
        """s_start = 0.8 beats the baseline here and 1.2 does not: no injection
        improved, so the sweep exits with the overshoot caveat."""
        out = tmp_path / "sweep"
        code = run_cli("lag-sweep", "--checkpoint", str(tiny_run.checkpoint_path),
                       "--nfe", "4", "--particles", "512", "--floor-nfe", "50",
                       "--s-start", "0.8,1.2", "--out", str(out))
        assert code == EXIT_OVERSHOOT
        _, rows = read_csv(out / "lag_sweep.csv")
        terminal = {r[1]: float(r[-1]) for r in rows if r[0] == "4"}
        assert terminal["linear:0.8:1.0"] < terminal["baseline"] < terminal["linear:1.2:1.0"]
        assert "CAVEAT" in (out / "summary.txt").read_text()

    def test_s_start_values_sharing_a_label_exit_2(self, tiny_run, tmp_path, monkeypatch,
                                                   capsys):
        """Two rows may not share a label, so a repeated value is refused before any cell
        is integrated, and the message names the values."""
        calls = []
        monkeypatch.setattr(cli, "integrate", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "sweep"
        assert run_cli("lag-sweep", "--checkpoint", str(tiny_run.checkpoint_path),
                       "--s-start", "1.05,1.2,1.2", "--out", str(out)) == EXIT_CONFIG
        assert calls == []
        assert not (out / "lag_sweep.csv").exists()
        err = capsys.readouterr().err
        assert "('linear:1.2:1.0', 1.2), ('linear:1.2:1.0', 1.2)" in err and "1.05" not in err

    def test_memory_does_not_grow_with_checkpoints(self, tiny_run, tmp_path):
        """The sweep keeps each node's moments, not its batch: twice the checkpoints
        raise the traced allocation peak by less than one batch."""
        n, dim = 4096, 4

        def peak(k):
            times = ",".join(f"{j / k:g}" for j in range(1, k + 1))
            tracemalloc.start()
            try:
                code = run_cli("lag-sweep", "--checkpoint", str(tiny_run.checkpoint_path),
                               "--nfe", "10", "--floor-nfe", "20", "--s-start", "1.0,1.1",
                               "--particles", str(n), "--checkpoints", times,
                               "--out", str(tmp_path / str(k)))
                assert code in (EXIT_OK, EXIT_OVERSHOOT)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(5)   # warm: one-time allocations count in neither run below
        grown = peak(10) - peak(5)
        assert grown < n * dim * 8, grown / (n * dim * 8)

    @pytest.mark.parametrize("bad", [["--nfe", "0"], ["--floor-nfe", "0"],
                                     ["--checkpoints", "0.2,0.4"], ["--nfe", "10,10"]])
    def test_invalid_cell_exits_2_before_any_integration(self, tiny_run, tmp_path, monkeypatch,
                                                          capsys, bad):
        """Every cell is checked before the first is integrated, and the terminal
        distance is taken at t = 1, so the checkpoints must end there; a repeated step
        budget would write each of its rows twice."""
        calls = []
        monkeypatch.setattr(cli, "integrate", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "sweep"
        assert run_cli("lag-sweep", "--checkpoint", str(tiny_run.checkpoint_path),
                       "--particles", "64", "--floor-nfe", "20", *bad,
                       "--out", str(out)) == EXIT_CONFIG
        assert calls == []
        assert not (out / "lag_sweep.csv").exists()
        if bad[0] == "--checkpoints":
            assert "end at 1.0" in capsys.readouterr().err


class TestFloorMemo:
    """The lag-sweep floor is integrated once per process for sweeps that share checkpoint
    bytes, floor SolverSpec, particles and seed, and kept as its one read-only memo entry."""

    FLOOR_NFE = 40
    BASE = ("--particles", "256", "--floor-nfe", str(FLOOR_NFE), "--s-start", "1.0,1.1")

    @pytest.fixture
    def floor_calls(self, monkeypatch):
        """The floor SolverSpecs (nfe >= FLOOR_NFE; the sweeps' --nfe are lower) that reach
        cli.integrate, which still runs."""
        calls, integrate = [], cli.integrate

        def counted(field, spec, *args, **kwargs):
            if spec.nfe >= self.FLOOR_NFE:
                calls.append(spec)
            return integrate(field, spec, *args, **kwargs)

        monkeypatch.setattr(cli, "integrate", counted)
        return calls

    def sweep(self, checkpoint, out, *argv) -> dict:
        """Run one sweep; its lag_sweep.csv and summary.txt bytes."""
        options = dict(zip(self.BASE[::2], self.BASE[1::2]))
        options.update(zip(argv[::2], argv[1::2]))
        code = run_cli("lag-sweep", "--checkpoint", str(checkpoint),
                       *(word for pair in options.items() for word in pair), "--out", str(out))
        assert code in (EXIT_OK, EXIT_OVERSHOOT)
        return {name: (out / name).read_bytes() for name in ("lag_sweep.csv", "summary.txt")}

    def test_one_floor_for_repeated_sweeps(self, tiny_run, tmp_path, floor_calls):
        """--nfe 10, 20, 10 integrate the floor once, and each sweep writes the bytes
        of the same sweep run with the memo emptied."""
        budgets = ("10", "20", "10")
        kept = [self.sweep(tiny_run.checkpoint_path, tmp_path / f"kept{i}", "--nfe", nfe)
                for i, nfe in enumerate(budgets)]
        assert len(floor_calls) == 1
        for i, nfe in enumerate(budgets):
            cli._floor_memo.clear()
            fresh = self.sweep(tiny_run.checkpoint_path, tmp_path / f"fresh{i}", "--nfe", nfe)
            assert kept[i] == fresh
        assert len(floor_calls) == 1 + len(budgets)
        assert kept[0] == kept[2] and kept[0] != kept[1]

    @pytest.mark.parametrize("change,floors", [
        ("retrained", 2), ("--seed", 2), ("--particles", 2), ("--method", 2),
        ("--floor-nfe", 2), ("--checkpoints", 2),
        ("copied", 1), ("--nfe", 1), ("--s-start", 1)])
    def test_key_fields_decide_a_hit(self, tmp_path, floor_calls, change, floors):
        """A change of checkpoint bytes (retrained in place), seed, particles, method, floor
        budget or recording times recomputes the floor; a byte-equal copy of the checkpoint
        at another path, another --nfe or another --s-start reuses it."""
        def trained(seed):
            config = TrainConfig(dataset={"kind": "gaussian", "dim": 4}, steps=50,
                                 batch_size=64, hidden=(16, 16), log_every=50, seed=seed)
            return train(config, out_dir=tmp_path / "net").checkpoint_path

        checkpoint = trained(1)
        first = self.sweep(checkpoint, tmp_path / "first")
        argv = {"--seed": ("--seed", "3"), "--particles": ("--particles", "300"),
                "--method": ("--method", "heun"), "--floor-nfe": ("--floor-nfe", "41"),
                "--checkpoints": ("--checkpoints", "0.5,1.0"), "--nfe": ("--nfe", "12"),
                "--s-start": ("--s-start", "1.0,1.2")}.get(change, ())
        if change == "retrained":
            assert trained(2) == checkpoint
        elif change == "copied":
            checkpoint = tmp_path / "copy.npz"
            checkpoint.write_bytes((tmp_path / "net" / "checkpoint.npz").read_bytes())
        second = self.sweep(checkpoint, tmp_path / "second", *argv)
        assert len(floor_calls) == floors
        if change == "copied":
            assert second == first
        cli._floor_memo.clear()
        assert self.sweep(checkpoint, tmp_path / "fresh", *argv) == second

    def test_floor_fault_stores_nothing(self, tiny_run, tmp_path, capsys):
        """A floor that raises NonFiniteVelocityError exits 4 and leaves the memo empty."""
        path = tmp_path / "nan.npz"
        ck = load_checkpoint(tiny_run.checkpoint_path)
        ck.net.parameters()[f"b{len(ck.net.weights) - 1}"][0] = np.nan
        save_checkpoint(path, ck.net, extra=ck.extra)
        assert run_cli("lag-sweep", "--checkpoint", str(path), *self.BASE,
                       "--out", str(tmp_path / "s")) == EXIT_RUNTIME
        assert "NonFiniteVelocityError" in capsys.readouterr().err
        assert cli._floor_memo == {}

    def test_kept_moments_are_read_only(self, tiny_run, tmp_path):
        self.sweep(tiny_run.checkpoint_path, tmp_path / "s")
        ((_, spec, _, _), traj), = cli._floor_memo.items()
        assert spec.nfe == self.FLOOR_NFE and len(traj.states) == len(spec.checkpoints)
        for stats in traj.states:
            assert not stats.mean.flags.writeable and not stats.cov.flags.writeable
            with pytest.raises(ValueError):
                stats.cov[0, 0] = 0.0


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
            "experiment": "oracle-rho", "out_dir": str(out_dir), "seed": 1,
            "spec": {"dim": 64, "pairs": 10000}}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_OK
        assert (out_dir / "oracle-rho.csv").exists()

    def test_unknown_experiment_exits_2(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"experiment": "evaluate", "out_dir": "x", "spec": {}}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG

    def test_missing_field_exits_2_without_artifacts(self, tmp_path):
        cfg = tmp_path / "exp.json"
        out_dir = tmp_path / "never"
        cfg.write_text(json.dumps({"experiment": "oracle-rho", "spec": {"dim": 8}}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
        assert not out_dir.exists()

    def test_unknown_top_level_field_exits_2(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"experiment": "oracle-rho", "out_dir": "x",
                                   "spec": {}, "threads": 4}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG

    def test_malformed_json_exits_2(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text("{not json")
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG

    @pytest.mark.parametrize("experiment", ["train", "lag-sweep", "oracle-rho"])
    def test_seed_inside_spec_exits_2(self, tiny_run, tmp_path, experiment):
        """The envelope holds the only seed; a spec that carries one is refused."""
        spec = {"train": {"dataset": {"kind": "gaussian", "dim": 4}, "steps": 5},
                "lag-sweep": {"checkpoint": str(tiny_run.checkpoint_path)},
                "oracle-rho": {"dim": 8}}[experiment]
        cfg = tmp_path / "exp.json"
        out_dir = tmp_path / "never"
        cfg.write_text(json.dumps({"experiment": experiment, "out_dir": str(out_dir),
                                   "spec": {**spec, "seed": 5}}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
        assert not out_dir.exists()

    def test_seed_for_unseeded_experiment_exits_2(self, tmp_path):
        """An experiment that draws no random numbers refuses a seed it would only record."""
        cfg = tmp_path / "exp.json"
        out_dir = tmp_path / "never"
        cfg.write_text(json.dumps({"experiment": "schedule-calibrate", "out_dir": str(out_dir),
                                   "seed": 3, "spec": {"shape": "quad-in", "area": 1.05}}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
        assert not out_dir.exists()

    @pytest.mark.parametrize("door", ["flag", "run", "train"])
    def test_negative_seed_exits_2_without_manifest(self, tmp_path, capsys, door):
        """Flags, run's envelope and train's config file all refuse a negative seed
        before the manifest is written."""
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        if door == "flag":
            argv = ["oracle", "rho", "--dim", "4", "--pairs", "10000", "--seed", "-1",
                    "--out", str(out / "oracle-rho.csv")]
        elif door == "run":
            cfg.write_text(json.dumps({"experiment": "oracle-rho", "out_dir": str(out),
                                       "seed": -2, "spec": {"dim": 4, "pairs": 10000}}))
            argv = ["run", "--config", str(cfg)]
        else:
            cfg.write_text(json.dumps({"dataset": {"kind": "gaussian", "dim": 4}, "steps": 5,
                                       "seed": -3}))
            argv = ["train", "--config", str(cfg), "--out", str(out)]
        assert run_cli(*argv) == EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_reference_samples_spec_key_exits_2(self, fld_inputs, tmp_path, capsys):
        """An empirical reference is fit on 8192 draws only: the count is no parameter."""
        cfg = tmp_path / "exp.json"
        out_dir = tmp_path / "never"
        cfg.write_text(json.dumps({"experiment": "diagnose-fld", "out_dir": str(out_dir),
                                   "spec": {"traj": fld_inputs[0], "reference": "gaussian:4:1.0",
                                            "reference_samples": 8192}}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
        assert "unknown" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_verify_spec_key_exits_2(self, fld_inputs, tmp_path, capsys):
        """The square-root check always runs: verify is no parameter."""
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"experiment": "diagnose-fld", "out_dir": str(tmp_path / "o"),
                                   "spec": {"traj": fld_inputs[0], "reference": "gaussian:4:1.0",
                                            "verify": True}}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
        assert "unknown" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment", ["diagnose-norm", "diagnose-fld"])
    def test_svg_spec_key_exits_2(self, tiny_run, fld_inputs, tmp_path, capsys, experiment):
        """CSV is the only output: a chart path in a spec is an unknown field."""
        spec = {"diagnose-norm": {"checkpoint": str(tiny_run.checkpoint_path)},
                "diagnose-fld": {"traj": fld_inputs[0], "reference": "gaussian:4:1.0"}}
        cfg = tmp_path / "exp.json"
        out_dir = tmp_path / "never"
        cfg.write_text(json.dumps({"experiment": experiment, "out_dir": str(out_dir),
                                   "spec": {**spec[experiment], "svg": "chart.svg"}}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
        assert "unknown" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("field", ["verify", "name"])
    def test_dropped_envelope_fields_exit_2(self, tmp_path, field):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"experiment": "oracle-rho", "out_dir": str(tmp_path / "o"),
                                   "spec": {"dim": 8}, field: True}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad", [{"steps": "10"}, {"steps": 10.5}, {"learning_rate": "1e-3"},
                                     {"batch_size": True}, {"seed": 7.9}, {"hidden": [4.7]},
                                     {"lam0": True}, {"decay": 0.1}, {"loss": "mse"},
                                     {"path": "LINEAR"}, {"precision": "float16"},
                                     {"hidden": []}])
    @pytest.mark.parametrize("door", ["train", "run"])
    def test_bad_train_fields_exit_2(self, tmp_path, door, bad):
        """An ill-typed or unknown train config field, or a value outside its field's
        choices, is refused before anything is written."""
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

    @pytest.mark.parametrize("dataset", [{"kind": "gaussian", "dim": 4.7},
                                         {"kind": "two-moons", "noise": "0.1"}])
    def test_bad_dataset_fields_exit_2(self, tmp_path, dataset):
        """A dataset block is checked against its kind's constructor: the run
        leaves its manifest, then exits 2 without training."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": dataset, "steps": 5}))
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_CONFIG
        assert not (tmp_path / "o" / "loss.csv").exists()

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
        manifest = json.loads((out_dir / "sample.bin.json").read_text())
        assert manifest["experiment"] == "sample"
        assert manifest["config"]["nfe"] == 50
        assert not (out_dir / "sample.bin").exists()

    @pytest.mark.parametrize("argv", [
        ["diagnose", "fld", "--traj", "{dir}", "--reference", "gaussian:4:1.0", "--out", "{out}"],
        ["diagnose", "fld", "--traj", "{file}/x", "--reference", "gaussian:4:1.0",
         "--out", "{out}"],
        ["diagnose", "norm", "--checkpoint", "{dir}", "--out", "{out}"],
        ["lag-sweep", "--checkpoint", "{dir}", "--nfe", "4", "--particles", "16", "--out", "{out}"],
        ["sample", "--checkpoint", "{dir}", "--nfe", "4", "--out", "{out}"],
        ["oracle", "rho", "--dim", "4", "--pairs", "10000", "--out", "{file}/x.csv"],
        ["sample", "--checkpoint", "{ckpt}", "--nfe", "4", "--particles", "16",
         "--out", "{file}/t.bin"],
        ["lag-sweep", "--checkpoint", "{ckpt}", "--nfe", "4", "--particles", "16",
         "--floor-nfe", "10", "--out", "{file}"]],
        ids=["fld-dir", "fld-under-a-file", "norm-dir", "lag-sweep-dir", "sample-dir",
             "csv-out-under-a-file", "bin-out-under-a-file", "dir-out-is-a-file"])
    def test_path_of_the_wrong_kind_exits_2(self, tiny_run, tmp_path, capsys, argv):
        """A directory where a file is read, or a path through a file, read or written
        (one output of each kind: csv, bin and directory), is a config problem, as a
        missing file is; it names the path and leaves the file as it was."""
        (tmp_path / "file").write_text("x")
        (tmp_path / "dir").mkdir()
        argv = [a.format(dir=tmp_path / "dir", file=tmp_path / "file", out=tmp_path / "out",
                         ckpt=tiny_run.checkpoint_path) for a in argv]
        assert run_cli(*argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(tmp_path) in err
        assert (tmp_path / "file").read_text() == "x"

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


@pytest.mark.parametrize("argv", [
    ["oracle", "rho", "--dim", "8", "--pairs", "50"],
    ["oracle", "rho", "--dim", "0", "--pairs", "10000"],
    ["oracle", "rho", "--dim", "4", "--pairs", "10000", "--data-std", "-2"],
    ["oracle", "rho", "--dim", "4", "--pairs", "10000", "--data-std", "0"],
    ["diagnose", "norm", "--checkpoint", "CK", "--svg", "norm.svg"],
    ["diagnose", "fld", "--traj", "TRAJ", "--reference", "gaussian:4:1.0", "--svg", "fld.svg"],
    ["sample", "--checkpoint", "CK", "--schedule", "linear:nan:1.0"],
    ["sample", "--checkpoint", "CK", "--schedule", "linear:1.1:inf"],
    ["diagnose", "norm", "--checkpoint", "CK", "--samples", "500"],
    ["diagnose", "norm", "--checkpoint", "CK", "--grid", "0.5:0.1:3"],
    ["diagnose", "norm", "--checkpoint", "CK", "--grid", "a:b:c"],
    ["oracle", "jensen", "--dim", "4", "--n-mc", "10"],
    ["oracle", "jensen", "--dim", "0"],
    ["oracle", "jensen", "--dim", "4", "--path", "LINEAR"],
    ["oracle", "jensen", "--dim", "4", "--path", "foo"],
    ["oracle", "jensen", "--dim", "4", "--t", ","],
    ["schedule-calibrate", "--shape", "linear", "--area", "-5.0"],
    ["diagnose", "fld", "--traj", "TRAJ", "--reference", "gaussian:x:1"],
    ["diagnose", "fld", "--traj", "TRAJ", "--reference", '{"kind": "gaussian", "dim": 4.5}'],
    ["lag-sweep", "--checkpoint", "CK", "--nfe", ",", "--particles", "64"],
    ["oracle", "jensen", "--dim", "4", "--t", "1.5"],
    ["oracle", "jensen", "--dim", "4", "--t", "nan"],
    ["oracle", "cross-term", "--dim", "4", "--n-mc", "1"],
    ["oracle", "cross-term", "--dim", "4", "--t", "1.5"],
    ["oracle", "cross-term", "--dim", "4", "--t", "nan"],
    ["diagnose", "fld", "--traj", "TRAJ", "--reference", '{"kind": "gaussian-mixture", "dim": 4}',
     "--reference-samples", "10"],
    ["sample", "--checkpoint", "CK", "--particles", "0"],
    ["sample", "--checkpoint", "CK", "--particles", "1"],
    ["sample", "--checkpoint", "CK", "--particles", "-3"],
    ["lag-sweep", "--checkpoint", "CK", "--particles", "1"],
    ["oracle", "rho", "--dim", "4", "--pairs", "10000", "--seed", "-1"],
    ["lag-sweep", "--checkpoint", "CK", "--s-start", "1.1,1.1000001", "--particles", "64"],
    ["diagnose", "fld", "--traj", "TRAJ", "--reference", "gaussian:4:1.0", "--verify"],
])
def test_argument_problems_exit_2(argv, tiny_run, fld_inputs, tmp_path):
    """An argument the experiment refuses exits 2, whether argparse or the
    experiment refuses it, and leaves no result."""
    names = {"CK": str(tiny_run.checkpoint_path), "TRAJ": fld_inputs[0]}
    out = tmp_path / "out" / ("sweep" if argv[0] == "lag-sweep" else "result.csv")
    out_flag = [] if argv[0] == "schedule-calibrate" else ["--out", str(out)]
    try:
        code = run_cli(*[names.get(a, a) for a in argv], *out_flag)
    except SystemExit as exc:  # argparse refuses a value outside a flag's type or choices
        code = exc.code
    assert code == EXIT_CONFIG
    assert not out.is_file() and not (out / "lag_sweep.csv").exists()


def test_readme_cli_commands_parse():
    """Every command in README's CLI block parses with the real parser; none is run."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = block.replace("\\\n", " ").splitlines()
    assert commands
    parser = cli._build_parser()
    for line in commands:
        argv = shlex.split(line)
        assert argv[0] == "flowlag", line
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_sources_parse_at_the_declared_python_floor():
    """Every flowlag module parses as the oldest Python that pyproject.toml's
    requires-python admits.  This guards syntax only: a call into a newer standard
    library, such as hashlib.file_digest (new in 3.11), still passes."""
    root = Path(__file__).resolve().parents[1]
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (root / "pyproject.toml").read_text())
    sources = sorted((root / "src" / "flowlag").glob("*.py"))
    assert floor and sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, int(floor[1])))


@pytest.mark.parametrize("spec", [{"nfe": []}, {"s_start": []}, {"checkpoints": []}])
def test_empty_list_in_spec_exits_2(spec, tiny_run, tmp_path):
    """A list-valued parameter needs at least one value in a run spec too."""
    cfg = tmp_path / "exp.json"
    out_dir = tmp_path / "never"
    cfg.write_text(json.dumps({"experiment": "lag-sweep", "out_dir": str(out_dir), "spec": {
        "checkpoint": str(tiny_run.checkpoint_path), "particles": 64, **spec}}))
    assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
    assert not out_dir.exists()


_PLACEHOLDERS = {int: 2, float: 1.0, str: "x", dict: {"kind": "gaussian", "dim": 2}}


def _required(params) -> dict:
    """A well-typed value for each parameter in ``params`` that has no default."""
    return {p.name: [_PLACEHOLDERS[p.type]] if p.many else _PLACEHOLDERS[p.type]
            for p in params if p.default is REQUIRED}


# (owner, parameter) for every float parameter: each experiment's, train's (the
# fields of TrainConfig) and each dataset kind's; one added later is covered too
_FLOAT_PARAMS = (
    [(name, p) for name, exp in cli.EXPERIMENTS.items() for p in exp.params if p.type is float]
    + [(kind, p) for kind, cls in DATASETS.items() for p in params_of(cls) if p.type is float])


@pytest.mark.parametrize("door", ["flag", "json"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("owner,param", _FLOAT_PARAMS,
                         ids=[f"{owner}.{p.name}" for owner, p in _FLOAT_PARAMS])
def test_non_finite_float_exits_2(owner, param, bad, door, tmp_path, capsys):
    """NaN and the infinities are refused with exit 2, as a flag and in a JSON spec,
    before any result is written.  A train config or a dataset block is JSON behind
    either door: train's one flag is its config file."""
    value = [float(bad)] if param.many else float(bad)
    if owner in DATASETS:
        dataset = {"kind": owner, **_required(params_of(DATASETS[owner])), param.name: value}
        exp, spec = cli.EXPERIMENTS["train"], {"dataset": dataset}
    else:
        exp = cli.EXPERIMENTS[owner]
        spec = {**_required(exp.params), param.name: value}
    if exp.name == "train":  # a short run, should the value get through
        spec.update(steps=1, hidden=[4])
    out_dir = tmp_path / "out"
    if door == "json":
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"experiment": exp.name, "out_dir": str(out_dir),
                                   "spec": spec}))
        argv = ["run", "--config", str(cfg)]
    elif exp.name == "train":
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(spec))
        argv = ["train", "--config", str(cfg), "--out", str(out_dir)]
    else:
        spec.pop(param.name)
        argv = [*cli._words(exp.name), *_flag_argv(spec),
                f"--{param.name.replace('_', '-')}={bad}"]
        if exp.out is not None:
            argv += ["--out", str(out_dir if exp.out == "dir" else out_dir / f"r.{exp.out}")]
    try:
        code = run_cli(*argv)
    except SystemExit as exc:  # argparse refuses the flag value
        code = exc.code
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert bad in err and (f"'{param.name}'" in err
                           or f"--{param.name.replace('_', '-')}" in err), err
    assert not [p for p in out_dir.rglob("*") if p.suffix != ".json"]


def test_write_csv_writes_numpy_floats_as_float64(tmp_path):
    """A float32 value gets the same 17 significant digits as a Python float."""
    out = tmp_path / "values.csv"
    write_csv(out, ("a", "b", "c"), [(np.float32(0.1), np.float64(0.1), 0.1)])
    assert out.read_text().splitlines()[1] == \
        "0.10000000149011612,0.10000000000000001,0.10000000000000001"


@pytest.fixture(scope="module")
def fld_inputs(tiny_run, tmp_path_factory):
    """The tiny run's baseline and SSC-corrected trajectories: 5 nodes of 64 x 4 each."""
    root = tmp_path_factory.mktemp("fld_inputs")
    ck = str(tiny_run.checkpoint_path)
    for name, schedule in (("base", "constant-one"), ("corr", "linear:1.1:1.0")):
        assert main(["sample", "--checkpoint", ck, "--nfe", "6", "--schedule", schedule,
                     "--particles", "64", "--out", str(root / f"{name}.bin")]) == EXIT_OK
    return str(root / "base.bin"), str(root / "corr.bin")


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
    def specs(ck, baseline, corrected):
        return {
            "train": {"dataset": {"kind": "gaussian", "dim": 4}, "steps": 20, "batch_size": 16,
                      "hidden": [8], "log_every": 10, "loss": "mafm"},
            "sample": {"checkpoint": ck, "nfe": 4, "schedule": "linear:1.1:1.0",
                       "method": "heun", "particles": 32, "checkpoints": [0.5, 1]},
            "oracle-jensen": {"dim": 4, "t": [0.5], "n_mc": 20000},
            "oracle-cross-term": {"dim": 4, "t": [0.0, 0.5], "n_mc": 2000},
            "oracle-rho": {"dim": 16, "pairs": 10000, "data_std": 2},
            "diagnose-norm": {"checkpoint": ck, "grid": "0.2:0.8:3", "samples": 1000},
            "diagnose-fld": {"traj": baseline, "reference": "gaussian:4:1.0"},
            "diagnose-lag": {"baseline": baseline, "corrected": corrected,
                             "reference": '{"kind": "gaussian-mixture", "dim": 4}'},
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
        if name == "train":  # its flags are one config file
            config = tmp_path / "train.json"
            config.write_text(json.dumps({**spec, "seed": seed}))
            argv = ["--config", str(config)]
        else:
            argv = _flag_argv(spec) + (["--seed", str(seed)] if exp.seeded else [])
        if exp.out == "dir":
            argv += ["--out", str(flag_dir)]
        elif exp.out is not None:
            argv += ["--out", str(flag_dir / f"{name}.{exp.out}")]
        flag_code = main([*cli._words(name), *argv])
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
        if exp.out == "dir":
            manifest = json.loads(artifacts["manifest.json"])
        else:
            assert f"{name}.{exp.out}" in artifacts
            manifest = json.loads(artifacts[f"{name}.{exp.out}.json"])
        assert manifest["experiment"] == name
        assert manifest["seed"] == seed


class TestConsoleScript:
    def test_installed_entry_point(self):
        # the child imports the same flowlag as this process, installed or not
        env = {**os.environ, "PYTHONPATH": str(Path(flowlag.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "flowlag.cli",
                               "schedule-calibrate", "--shape", "cosine", "--area", "1.05"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "s_start = 1.1" in proc.stdout

    CHILDREN = {
        # flowlag.cli run as `python -m flowlag.cli` runs it
        "cli": "import runpy, sys\n"
               "sys.argv = ['flowlag', 'oracle', 'rho', '--dim', '32', '--pairs', '10000']\n"
               "try:\n"
               "    runpy.run_module('flowlag.cli', run_name='__main__', alter_sys=True)\n"
               "except SystemExit as exc:\n"
               "    assert exc.code == 0\n",
        "library": "import flowlag.training\n",
    }

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
    @pytest.mark.parametrize("child", list(CHILDREN))
    def test_thread_cap_env(self, child):
        """FLOWLAG_THREADS caps the pools of any process that imports flowlag before
        numpy: the child counts its own threads after the work."""
        code = self.CHILDREN[child] + "import os\nprint(len(os.listdir('/proc/self/task')))\n"

        def threads(extra_env):
            # a minimal environment, except that the child must import the same
            # flowlag as this process, installed or not
            env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(flowlag.__file__).parents[1]),
                   **extra_env}
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            if child == "cli":
                assert "mean_rho" in proc.stdout
            return int(proc.stdout.split()[-1])

        uncapped = threads({})
        if uncapped < 2:
            pytest.skip("numpy starts no worker threads here even uncapped")
        assert threads({"FLOWLAG_THREADS": "1"}) < uncapped
