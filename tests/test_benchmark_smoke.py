"""The benchmark's workloads at toy scale: one traced round, every op's own check passes.

The benchmark reaches flowlag through calls no other test makes (each
oracle-sweep op label calls ``ScaleSchedule.describe``, for one), so a
change under src/ could pass every other test and still fail each
benchmark run.  The round runs under the benchmark's tracer, as a
``--trace 1`` run does, and its span counts must match their computed
twins: a renamed or unnested span would read 0 there.  These runs take
a few seconds.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import flowlag

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers, workloads  # noqa: E402  (needs the repository root on sys.path)
from perfbench.spans import Tracer  # noqa: E402

MODULES = [importlib.import_module(f"flowlag.{m.name}")
           for m in pkgutil.iter_modules(flowlag.__path__)]

# span counts of one toy round, each equal to its computed twin where the workload has one;
# lag-sweep's fld_checkpoints is left out: it reads 0 against its computed 40
TRACED_COUNTS = {
    "oracle-sweep": {"solver.field_evals": 96.0, "solver.field_evals_computed": 96.0,
                     "diagnostics.fld_checkpoints": 180.0,
                     "diagnostics.fld_checkpoints_computed": 180.0},
    "lag-sweep": {"solver.field_evals": 48.0, "solver.field_evals_computed": 48.0,
                  "nn.forward_calls": 48.0},
    "train": {"training.steps": 350.0},
}


class ToyOracleSweep(workloads.OracleSweepWorkload):
    PARTICLES = 256
    NFES = (4,)


class ToyLagSweep(workloads.LagSweepWorkload):
    PARTICLES = 256
    NFES = (4,)
    FLOOR_NFE = 20
    CKPT_STEPS = 20


class ToyTrain(workloads.TrainWorkload):
    """50 steps a share: each job's mean logged loss still sits below its zero-field loss."""
    STEPS_PER_SHARE = 50
    WARMUP_STEPS = 2


@pytest.mark.parametrize("workload", [ToyOracleSweep, ToyLagSweep, ToyTrain],
                         ids=["oracle-sweep", "lag-sweep", "train"])
def test_one_round_passes_its_checks(workload, tmp_path):
    """Each op's check passes, run untraced as the benchmark runs it, and the
    round's span counts equal their computed twins."""
    bench = workload(seed=0, work_dir=tmp_path)
    bench.setup()
    ops = bench.ops()
    assert ops
    tracer = Tracer()
    with tracer.instrument(MODULES):
        for op in ops:
            result = op.run()
            with tracer.paused():
                assert op.check(result) == [], op.label
    metrics = layers.layer_metrics(tracer.spans, bench.layer_context(), 0.0, 0.0, 0)
    counts = TRACED_COUNTS[bench.name]
    assert {name: metrics[name] for name in counts} == counts


def test_train_setup(tmp_path):
    bench = workloads.TrainWorkload(seed=0, work_dir=tmp_path)
    bench.setup()
    assert [label for label, *_ in bench.jobs] == [label for label, *_ in bench.MIX]
