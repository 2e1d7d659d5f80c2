"""Span recording, self-time arithmetic and the per-layer reductions built on them."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowlag import nn, rng
from perfbench import layers
from perfbench.spans import Tracer, self_times

# root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 7]
NESTED = [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 5.0, 9.0, 0), ("c", 6.0, 7.0, 2)]


def test_self_time_subtracts_direct_children_only():
    assert self_times(NESTED).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_self_times_add_up_to_top_level_durations():
    spans = NESTED + [("top2", 11.0, 12.5, -1), ("d", 11.5, 12.0, 4)]
    assert self_times(spans).sum() == pytest.approx(10.0 + 1.5)


def test_unattributed_share_of_wall_time():
    tab = layers.SpanTable(NESTED)
    assert layers.unattributed_pct(tab, 12.5) == pytest.approx(20.0)
    assert layers.unattributed_pct(tab, 10.0) == pytest.approx(0.0)


def test_instrument_records_nesting_and_restores_originals():
    original_rng_for, original_seed_for = rng.rng_for, rng.seed_for
    tracer = Tracer()
    with tracer.instrument([rng]):
        assert rng.rng_for is not original_rng_for
        rng.rng_for(0, "x")
        with tracer.paused():
            rng.rng_for(0, "y")
    assert rng.rng_for is original_rng_for and rng.seed_for is original_seed_for
    names = [s[0] for s in tracer.spans]
    assert names == ["rng.rng_for", "rng.seed_for"]
    assert tracer.spans[0][3] == -1 and tracer.spans[1][3] == 0
    rng.rng_for(0, "z")
    assert len(tracer.spans) == 2


def test_instrument_wraps_methods_and_classmethods():
    raw_create = vars(nn.Mlp)["create"]
    raw_forward = vars(nn.Mlp)["forward"]
    tracer = Tracer()
    with tracer.instrument([nn]):
        net = nn.Mlp.create(3, hidden=(4,))
        net.forward(np.zeros((2, 3)), 0.5)
    assert vars(nn.Mlp)["create"] is raw_create and vars(nn.Mlp)["forward"] is raw_forward
    names = [s[0] for s in tracer.spans]
    assert names[0] == "nn.Mlp.create"
    assert "nn.Mlp.forward" in names and "nn.TimeEmbedding.__call__" in names


def test_train_steps_and_loss_self_time():
    spans = [("training.train", 0.0, 10.0, -1)]
    for k in range(3):
        base = 1.0 + 3.0 * k
        spans.append(("training.sample_batch", base, base + 0.5, 0))
        spans.append(("training.fm_loss", base + 0.5, base + 2.0, 0))
        loss = len(spans) - 1
        spans.append(("nn.Mlp.forward_cached", base + 0.6, base + 1.0, loss))
        spans.append(("nn.Mlp.backward", base + 1.0, base + 1.8, loss))
        spans.append(("nn.Adam.step", base + 2.0, base + 2.5, 0))
    m = layers.layer_metrics(spans, {}, traced_wall=10.0, overhead_pct=0.0, rank_warnings=0)
    assert m["training.steps"] == 3
    assert m["training.step_ms_p50"] == pytest.approx(3000.0)
    assert m["training.step_ms_p99"] == pytest.approx(3000.0)
    assert m["training.loss_self_ms"] == pytest.approx(300.0)
    assert m["nn.forward_calls"] == 0 and m["solver.field_share"] == 0
    assert set(m) == set(layers.UNITS)


def test_field_share_counts_the_field_under_scaled_velocity():
    spans = [("solver.integrate", 0.0, 10.0, -1),
             ("solver.euler_step", 0.0, 5.0, 0),
             ("solver.scaled_velocity", 0.0, 4.0, 1),
             ("nn.Mlp.forward", 0.0, 3.0, 2),
             ("solver.ScaleSchedule.gamma", 3.0, 3.5, 2),
             ("solver.euler_step", 5.0, 10.0, 0),
             ("solver.scaled_velocity", 5.0, 9.0, 5),
             ("nn.Mlp.forward", 5.0, 8.0, 6)]
    m = layers.layer_metrics(spans, {"forward_flop_per_call": 1e9}, 10.0, 0.0, 0)
    assert m["solver.field_evals"] == 2
    assert m["solver.field_share"] == pytest.approx(0.6)
    assert m["solver.self_ms_per_step"] == pytest.approx(2000.0)
    assert m["nn.forward_gflops"] == pytest.approx(2 / 6)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    root = Path(__file__).resolve().parents[2]
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_the_reported_metrics():
    import json

    from perfbench import run

    root = Path(__file__).resolve().parents[2]
    doc = json.loads((root / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.UNITS
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
