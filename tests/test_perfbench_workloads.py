"""Smoke run of the benchmark's workloads: set-up plus two steps each.

``perfbench/workloads.py`` drives the package through its public calls
(``trainer.train_step``, ``evaluate.*``, ``gradsuite.*``), so an API change
that breaks the benchmark fails here. Its train workloads copy the loop of
``trainer.Run``, and their metrics rows are checked against a ``Run``'s. The
module is loaded from its source file and writes no bytecode next to it.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("name", ["train-toy", "train-wide", "verify"])
def test_workload_sets_up_and_steps_without_failure(workloads, tmp_path, name):
    assert set(workloads.WORKLOADS) == {"train-toy", "train-wide", "verify"}
    workload = workloads.WORKLOADS[name](3, str(tmp_path))
    workload.prepare_inputs()
    workload.setup()
    for _ in range(2):
        assert workload.step() > 0.0
    assert workload.attempted > 0
    assert workload.failed == 0, workload.notes


@pytest.mark.parametrize("name", ["train-toy", "train-wide"])
def test_train_workload_logs_the_rows_of_a_run(workloads, tmp_path, name):
    # the workload steps its own copy of Run.step's loop, and hashes its rows as train_run's metrics CSV
    from infogan_lab.trainer import Run

    workload = workloads.WORKLOADS[name](3, str(tmp_path))
    workload.prepare_inputs()
    workload.setup()
    for _ in range(2):
        workload.step()
    run = Run(dataclasses.replace(workload.cfg, log_every=1))
    for _ in range(workload.iteration):
        run.step()
    assert len(run.trace.rows) == workload.iteration == workloads.WARMUP_ITERS + 2
    assert workload.metrics.rows == run.trace.rows
