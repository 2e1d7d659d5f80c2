"""The benchmark's workloads at toy scale: one round, every op's own check passes.

The benchmark reaches flowlag through calls no other test makes (each
oracle-sweep op label calls ``ScaleSchedule.describe``, for one), so a
change under src/ could pass every other test and still fail each
benchmark run.  These runs take a few seconds.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402  (needs the repository root on sys.path)


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
    bench = workload(seed=0, work_dir=tmp_path)
    bench.setup()
    ops = bench.ops()
    assert ops
    for op in ops:
        assert op.check(op.run()) == [], op.label


def test_train_setup(tmp_path):
    bench = workloads.TrainWorkload(seed=0, work_dir=tmp_path)
    bench.setup()
    assert [label for label, *_ in bench.jobs] == [label for label, *_ in bench.MIX]
