"""Benchmark of the ``korobov`` command line: four workloads, end to end and per layer.

Each workload (see ``workloads.py``) is an operation list of CLI calls built
from ``--seed``.  One iteration runs the whole list through
``korobov.cli.main`` in a fresh interpreter (``worker.py``); iterations repeat
until ``--seconds`` have passed and the medians are reported.

End-to-end metrics (``--trace 0``): ``wall_s`` (median wall time of the op
list), ``setup_s`` (median time from spawning a fresh interpreter to
``korobov.cli`` imported and the inputs loaded), ``peak_rss_mb`` (median peak
resident memory of the worker processes).  Failures are reported as
``attempted``/``failed``: an operation fails when it exits non-zero, its output
fails its check, or its output bytes differ from the first iteration's.

Per-layer metrics (``--trace 1``): one traced iteration with the layer
wrappers of ``layertrace.py`` installed, compared against untraced
iterations for ``trace.overhead_s``; its outputs must be byte-identical.

Usage, from the repository root:

    python3 bench/run.py --workload search --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --all [--seed 1] [--seconds 12] [--trace 1] [--save results.json]
    python3 bench/run.py --compare base.json results.json
    python3 bench/run.py --self-test

The last line printed for ``--workload`` is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"

# Workers are killed this many seconds into a run, which leaves time for the
# checks within the three minutes a run may take whatever the program does.
HARD_LIMIT_S = 150.0
# Set-up is sampled at least this often per run (extra set-up-only spawns).
MIN_SETUP_SAMPLES = 7
# Two-thread runs of the largest search op behind ``search.speedup_2t``.
SPEEDUP_REPEATS = 3


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program or specification)."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def environment(seed: int) -> dict:
    """Machine, versions and source revision recorded with every result."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f).strip() for f in ("level", "type", "size"))
        caches[f"L{level}{kind[:1].lower() if kind != 'Unified' else ''}"] = size
    import numpy

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "seed": seed,
    }


def _loadavg() -> str:
    return " ".join(_read("/proc/loadavg").split()[:3])


class Run:
    """One workload run: inputs, iterations, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        import workloads

        self.workloads = workloads
        self.name = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        SCRATCH.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
        self.inputs = self.tmp / "inputs"
        self.inputs.mkdir()
        self.ops = workloads.build(workload, seed, self.inputs)
        self.reference: dict[str, bytes] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.setup: list[float] = []
        self.reference_dir: Path | None = None
        self.failed_checks: set[str] = set()
        self.wrapped_sites: dict[str, list[str]] = {}

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it, or files were left behind

    # -- workers -------------------------------------------------------------

    def _worker(self, out_dir: Path | None, *flags: str) -> dict | None:
        remaining = HARD_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            self.errors.append("time limit reached before the iteration started")
            return None
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--inputs", str(self.inputs),
               "--out-dir", str(out_dir or self.tmp), *flags]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        env.pop("KOROBOV_MAX_ENUM", None)  # the enumeration cap is part of the program
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())], env=env,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            self.errors.append("worker killed at the run's time limit")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.errors.append(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        if proc.stderr.strip():
            sys.stderr.write(proc.stderr)
        report = json.loads(lines[-1])
        self.setup.append(report["setup_s"])
        return report

    def _iteration(self, tag: str, *flags: str, ops=None) -> dict | None:
        """Run the op list (or the ``ops`` subset) once; count failed operations.

        The first output of each op is checked and kept as the reference;
        every later output of that op must equal it byte for byte.
        """
        ops = self.ops if ops is None else ops
        out_dir = self.tmp / tag
        out_dir.mkdir()
        report = self._worker(out_dir, *flags)
        self.attempted += len(ops)
        if report is None:
            self.failed += len(ops)
            return None
        ok, new = [], []
        for op, code in zip(ops, report["codes"]):
            path = out_dir / op["out"]
            if code != 0 or not path.is_file():
                self.errors.append(f"{tag}: {op['argv'][0]} -> {op['out']} exited {code}")
                continue
            data = path.read_bytes()
            ref = self.reference.setdefault(op["out"], data)
            if ref is data:
                new.append(op)
            elif data != ref:
                self.errors.append(f"{tag}: {op['out']} differs from the first output")
                continue
            ok.append(op)
        if new:
            self.reference_dir = self.reference_dir or out_dir
            for op in new:
                self._check(op, out_dir)
        self.failed += len(ops) - sum(op["out"] not in self.failed_checks for op in ok)
        if out_dir != self.reference_dir:
            shutil.rmtree(out_dir, ignore_errors=True)
        return report

    def _check(self, op: dict, out_dir: Path) -> None:
        outputs = {o["out"]: self.reference_dir / o["out"] for o in self.ops}
        try:
            problem = self.workloads.check(op, out_dir / op["out"], outputs)
        except Exception as exc:  # a broken program may break its own checker
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self.failed_checks.add(op["out"])
            self.errors.append(f"check {op['out']}: {problem}")

    # -- the run -------------------------------------------------------------

    def execute(self) -> dict:
        load_start = _loadavg()
        self._worker(None, "--setup-only")  # warm the file cache and byte code
        self.setup.clear()
        traced = self._iteration("traced", "--trace") if self.trace else None
        untraced = []
        while True:
            report = self._iteration(f"iter{len(untraced)}")
            if report is None:
                break
            untraced.append(report)
            if time.monotonic() - self.started >= self.seconds:
                break
        while untraced and len(self.setup) < MIN_SETUP_SAMPLES:
            if self._worker(None, "--setup-only") is None:
                break

        values = {}
        if untraced:
            values["wall_s"] = _median([r["wall_s"] for r in untraced])
            values["setup_s"] = _median(self.setup)
            values["peak_rss_mb"] = _median([r["peak_rss_mb"] for r in untraced])
        if traced is not None and untraced:
            values.update(self._layer_values(traced, untraced))
        values["error_rate"] = self.failed / self.attempted
        correct = bool(untraced) and self.failed == 0 and not self.errors
        return {
            "workload": self.name,
            "seed": self.seed,
            "trace": int(self.trace),
            "seconds": self.seconds,
            "iteration_walls": [round(r["wall_s"], 4) for r in untraced],
            "env": dict(environment(self.seed), loadavg_start=load_start, loadavg_end=_loadavg()),
            "errors": self.errors,
            "wrapped_sites": self.wrapped_sites,
            "values": values,
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
        }

    def _layer_values(self, traced: dict, untraced: list[dict]) -> dict:
        values = dict(traced["layers"])
        wall = _median([r["wall_s"] for r in untraced])
        values["trace.wall_s"] = traced["wall_s"]
        values["trace.overhead_s"] = traced["wall_s"] - wall
        for layer in ("wce.eval_vectors", "wce.dual_enum", "space.a_lambda"):
            values[f"{layer}.share"] = values[f"{layer}.s"] / traced["wall_s"]
        self.wrapped_sites = traced["sites"]
        if traced["leftover_sites"]:
            self.errors.append(f"unwrapped import sites: {traced['leftover_sites']}")
        values["search.speedup_2t"] = 1.0  # no search op in this workload
        for idx, op in enumerate(self.ops):
            if op["check"].get("largest"):
                reports = [self._iteration(f"two_threads{k}", "--only", str(idx),
                                           "--threads", "2", ops=[op])
                           for k in range(SPEEDUP_REPEATS)]
                two = [r["op_s"][0] for r in reports if r is not None]
                if two:
                    one = _median([r["op_s"][idx] for r in untraced])
                    values["search.speedup_2t"] = one / _median(two)
        sys.stderr.write(f"[{self.name}] traced functions (calls, union seconds):\n")
        for name, calls, secs in traced["functions"][:15]:
            sys.stderr.write(f"  {name:40s} {calls:8d} {secs:9.4f}\n")
        return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed, seconds, trace)
    try:
        return run.execute()
    finally:
        run.close()


def result_line(record: dict, spec: dict) -> dict:
    """The contract's last line: every end-to-end (or per-layer) metric."""
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        if metric["name"] not in record["values"]:
            raise BenchError(f"metric {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": record["values"][metric["name"]],
                                   "unit": metric["unit"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def _units(spec: dict) -> dict:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_summary(record: dict, spec: dict) -> None:
    units = dict(_units(spec), error_rate="failed/attempted")
    print(f"[{record['workload']}] seed={record['seed']} "
          f"iteration walls={record['iteration_walls']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    for name, value in record["values"].items():
        print(f"  {name:36s} {value:14.6g} {units.get(name, '')}")
    for error in record["errors"]:
        print(f"  error: {error}")


def compare(base_path: str, new_path: str, spec: dict) -> None:
    base = json.loads(Path(base_path).read_text(encoding="utf-8"))["records"]
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))["records"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = base[0]["env"] if base else {}
    print(f"base: {base_path} (git {env.get('git_sha')}, seed {env.get('seed')}, "
          f"{env.get('cpu_model')}, {env.get('nproc')} cpus, python {env.get('python')}, "
          f"numpy {env.get('numpy')}); ratio = new / base")
    index = {(r["workload"], r["trace"]): r for r in base}
    for rec in new:
        old = index.get((rec["workload"], rec["trace"]))
        if old is None:
            print(f"[{rec['workload']}] trace={rec['trace']}: no base record")
            continue
        print(f"[{rec['workload']}] trace={rec['trace']}")
        for name, value in rec["values"].items():
            ref = old["values"].get(name)
            if ref is None:
                print(f"  {name:36s} not in the base")
                continue
            ratio = f"{value / ref:8.3f}" if ref else "     n/a"
            print(f"  {name:36s} base {ref:12.6g} new {value:12.6g} ratio {ratio} "
                  f"({better.get(name, '?')} is better)")


# Import sites that a wrapper installed only in the defining module would miss.
IMPORT_SITES = ("korobov.search.theta_table", "korobov.bounds.search_korobov",
                "korobov.bounds.a_lambda", "korobov.tract.empirical_info_complexity")


def self_test(spec: dict) -> bool:
    """Traced outputs equal untraced ones, wrappers reach every import site,
    and the count metrics repeat exactly."""
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "ratio", "B", "MB")
              and not m["name"].endswith(".share")]
    ok = True
    for workload in spec_workloads(spec):
        first = run_workload(workload, 0, 0, True)
        second = run_workload(workload, 0, 0, True)
        problems = list(first["errors"])
        sites = {site for names in first["wrapped_sites"].values() for site in names}
        missing = [site for site in IMPORT_SITES if site not in sites]
        if missing:
            problems.append(f"wrappers missing at {missing}")
        if not first["correct"]:
            problems.append("first traced run not correct")
        drift = [n for n in counts if first["values"][n] != second["values"][n]]
        if drift:
            problems.append(f"count metrics differ between runs: {drift}")
        print(f"[{workload}] {'PASS' if not problems else 'FAIL'} "
              f"({first['attempted']} op runs, traced outputs compared with untraced)")
        for problem in problems:
            print(f"  {problem}")
        ok = ok and not problems
    return ok


def spec_workloads(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--all", action="store_true", help="run every workload and print a table")
    mode.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                      help="print each metric's ratio between two --save files")
    mode.add_argument("--self-test", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write the full records (metrics and machine) here")
    args = parser.parse_args(argv)

    try:
        if not (SRC / "korobov" / "__init__.py").is_file():
            raise BenchError(f"the korobov sources are missing under {SRC}")
        spec = _spec()
        sys.path.insert(0, str(SRC))
        import korobov

        if SRC not in Path(korobov.__file__).resolve().parents:
            raise BenchError(f"korobov imported from {korobov.__file__}, not from {SRC}")
        if args.compare:
            compare(*args.compare, spec)
            return 0
        if args.self_test:
            return 0 if self_test(spec) else 1
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        names = spec_workloads(spec) if args.all else [args.workload]
        if args.workload is not None and args.workload not in spec_workloads(spec):
            raise BenchError(f"unknown workload {args.workload!r}")
        records = [run_workload(name, args.seed, seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    unmeasured = [rec for rec in records if "wall_s" not in rec["values"]]
    for rec in unmeasured:
        print(f"bench: {rec['workload']}: no iteration completed", file=sys.stderr)
        for error in rec["errors"]:
            print(f"  {error}", file=sys.stderr)
    if unmeasured:
        return 1
    if args.save:
        Path(args.save).write_text(json.dumps({"records": records}, indent=1) + "\n",
                                   encoding="utf-8")
    for rec in records:
        print(json.dumps({"env": rec["env"]}))
        print_summary(rec, spec)
    if args.all:
        return 0 if all(rec["correct"] for rec in records) else 1
    print(json.dumps(result_line(records[0], spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
