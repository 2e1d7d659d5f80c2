"""Shared fixtures: small trained checkpoints reused across test modules."""

import json
import os

import pytest

from flowlag import cli
from flowlag.training import TrainConfig, train


def pytest_collection_modifyitems(items):
    """Mark the acceptance gate's tests, so that ``-m acceptance`` selects them."""
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.acceptance)


@pytest.fixture(autouse=True)
def empty_floor_memo():
    """Every test starts with no lag-sweep floor kept, so test order decides no cell and a
    test that replaces cli.integrate leaves nothing for a later one."""
    cli._floor_memo.clear()


@pytest.fixture(scope="session")
def tiny_run(tmp_path_factory):
    """A quick D=4 training run with artifacts on disk."""
    out = tmp_path_factory.mktemp("tiny_run")
    config = TrainConfig(dataset={"kind": "gaussian", "dim": 4}, steps=300,
                         batch_size=64, hidden=(16, 16), log_every=50, seed=11)
    result = train(config, out_dir=out)
    return result


@pytest.fixture(scope="session")
def tiny_config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "train.json"
    path.write_text(json.dumps({
        "dataset": {"kind": "gaussian", "dim": 4},
        "steps": 200, "batch_size": 64, "hidden": [16, 16],
        "log_every": 50, "seed": 7,
    }))
    return path


@pytest.fixture
def change_file():
    """change(path, how): truncate it by 4 bytes, append 4 bytes, or replace it with
    a byte-equal copy (same size, another inode)."""
    def change(path, how):
        if how == "truncated":
            os.truncate(path, os.path.getsize(path) - 4)
        elif how == "appended":
            with open(path, "ab") as fh:
                fh.write(bytes(4))
        else:
            copy = f"{path}.copy"
            with open(path, "rb") as src, open(copy, "wb") as dst:
                dst.write(src.read())
            os.replace(copy, path)
    return change
