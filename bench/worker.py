"""One benchmark iteration in a fresh interpreter.

Imports ``korobov.cli`` (numpy included) and loads the workload's input
files, which is the set-up every CLI invocation pays, then runs the operation
list through ``korobov.cli.main`` and prints one JSON report line: set-up
time, per-operation wall time and exit code, the iteration's wall time and
the process's peak resident memory.  With ``--trace`` the layer wrappers are
installed after set-up and the report carries the per-layer metrics.

Run by ``run.py``; the ``korobov`` package must be importable from ``src``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", required=True, help="workload input directory")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--only", type=int, default=None, help="run this op index alone")
    parser.add_argument("--threads", default=None, help="override --threads of the op")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import korobov.cli

    src = Path(__file__).resolve().parents[1] / "src"
    if src not in Path(korobov.cli.__file__).resolve().parents:
        print(f"korobov imported from {korobov.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    inputs = Path(args.inputs)
    loaded = {p.name: json.loads(p.read_text(encoding="utf-8"))
              for p in sorted(inputs.glob("*.json"))}
    ops = loaded["ops.json"]
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.only is not None:
        ops = [ops[args.only]]
    if args.threads is not None:
        for op in ops:
            argv = op["argv"]
            argv[argv.index("--threads") + 1] = args.threads

    tracer = None
    if args.trace:
        from layertrace import CLI_SPAN, Tracer

        tracer = Tracer()
        tracer.install()

    out_dir = Path(args.out_dir)
    op_s, codes = [], []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            code = korobov.cli.main(op["argv"] + ["--out", str(out_dir / op["out"])])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # report the failed op and keep running the list
            traceback.print_exc()
            code = 1
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.record(CLI_SPAN, t0, t1)
        op_s.append(t1 - t0)
        codes.append(code)
    wall_s = time.perf_counter() - start

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s": op_s,
        "codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.measure_peaks()
        report["layers"] = tracer.metrics()
        report["functions"] = tracer.function_table()
        report["leftover_sites"] = tracer.leftover_sites()
        report["sites"] = tracer.sites
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
