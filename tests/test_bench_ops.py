"""The benchmark's operation lists, run through the CLI in tier-1, and the
package names that the bench's tracer reads.

``bench/workloads.py`` is imported read-only.  Every op of every workload at
seed 1 runs twice in this process: both runs exit 0, their outputs are
byte-identical (so no result depends on what the memos hold), and the
workload's own check accepts each output.  The largest search op also runs
with the two-thread override of the traced bench run, and gives the bytes
of its one-thread run.  ``bench/run.py`` is read with
``ast`` and not imported: each of its ``IMPORT_SITES`` resolves in the
package, so a deleted import there fails here and not only in the bench.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import korobov.wce
from korobov import KorobovParam, dual_enum_work_estimate, korobov_vector, wce2_dual_enum, wce2_theta_product
from korobov.cli import main

from conftest import make_model

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS_PY = BENCH / "workloads.py"


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


def test_largest_search_at_two_threads_matches_one_thread(tmp_path):
    # traced bench runs time the search workload's largest op once more with
    # its --threads value set to 2, as bench/worker.py --threads does
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    [op] = [op for op in _workloads().build("search", 1, inputs) if op["check"].get("largest")]
    outputs = []
    for threads in ("1", "2"):
        argv = list(op["argv"])
        argv[argv.index("--threads") + 1] = threads
        out = tmp_path / f"threads{threads}.json"
        assert main(argv + ["--out", str(out)]) == 0, argv
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _import_sites() -> tuple[str, ...]:
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "IMPORT_SITES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no IMPORT_SITES")


def test_bench_names_resolve_in_the_package():
    sites = _import_sites()
    assert sites
    for site in sites:
        module, name = site.rsplit(".", 1)
        assert hasattr(importlib.import_module(module), name), site
    # bench/layertrace.py wraps these, and reads the memo's statistics
    assert callable(korobov.wce.theta_table.cache_info)
    assert callable(korobov.wce.ThetaTable.__init__) and callable(korobov.wce.ThetaTable.eval_vectors)
    # bench/workloads.py and bench/layertrace.py pass (rule, model, lam, tol) by position
    rule, model = korobov_vector(KorobovParam(n=7, g=3, d=2)), make_model()
    for fn in (wce2_theta_product, wce2_dual_enum, dual_enum_work_estimate):
        assert fn(rule, model, 1.0, 1e-14) is not None, fn.__name__
