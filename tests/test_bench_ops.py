"""The benchmark's operation lists, run through the CLI in tier-1.

``bench/workloads.py`` is imported read-only.  Every op of every workload at
seed 1 runs twice in this process: both runs exit 0, their outputs are
byte-identical (so no result depends on what the memos hold), and the
workload's own check accepts each output.
"""

import types
from pathlib import Path

import pytest

from korobov.cli import main

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _workloads():
    # compiled from its source, so no byte code is written next to it
    module = types.ModuleType("bench_workloads")
    exec(compile(WORKLOADS_PY.read_text(encoding="utf-8"), str(WORKLOADS_PY), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name", ["search", "scan", "certify", "bounds"])
def test_bench_ops_run_twice_alike_and_pass_their_checks(name, tmp_path):
    workloads = _workloads()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    ops = workloads.build(name, 1, inputs)
    runs = [tmp_path / "run1", tmp_path / "run2"]
    for run in runs:
        run.mkdir()
        for op in ops:
            assert main(op["argv"] + ["--out", str(run / op["out"])]) == 0, op["argv"]
    for op in ops:
        first, second = (run / op["out"] for run in runs)
        assert first.read_bytes() == second.read_bytes(), op["out"]
        outputs = {o["out"]: runs[0] / o["out"] for o in ops}
        assert workloads.check(op, first, outputs) is None, op["out"]
