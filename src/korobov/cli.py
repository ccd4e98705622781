"""Batch command-line front end.

Subcommands: wce, search, bound, nofe, tract, integrate, convergence.
Every subcommand takes --model, --tol and --out (``integrate`` reads --tol
only with --model, which it makes optional, and ``tract --mode alg`` does
not read --tol); ``search`` also takes --threads, and ``search``,
``tract`` and ``convergence`` take --format (json or csv; the others always
write JSON).  Outputs are written atomically (temp file + rename) and embed
the resolved configuration (tol only where it is read) plus a schema
version string.  Identical inputs produce byte-identical outputs,
independent of --threads (execution knobs are therefore not part of the
echoed configuration).

The parser declares the whole argument contract: required flags, the
exclusive pairs --g/--g-scalar and --primes/--primes-up-to, and the
combinations it rejects (``_check_combinations``), among them every tract
flag that the chosen --mode does not read.  A flag is honoured or
rejected, never accepted and then ignored.  Handlers only compute: a rule
document is read by ``LatticeRule.from_dict``, and the family names and
the general-family layout are those of ``search``.

Exit codes: 0 success, 2 configuration error (argument errors and an --out
that cannot be written included), 3 size cap exceeded, 4 numerical
certificate failure (``CertificateError``: an uncertifiable series, or a
scanned prime whose certified interval straddles eps^2).  Errors are reported as one JSON object on stderr.  The
parser is built once per process, on the first call of ``main``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import os
import sys
import tempfile

import numpy as np

from . import bounds, qmc, search, tract, wce
from .errors import CapExceededError, CertificateError
from .lattice import KorobovParam, LatticeRule, is_prime, korobov_vector
from .space import DEFAULT_TOL, WeightModel

SCHEMA = "korobov/2"

EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_CERTIFICATE = 4

# The tract modes that read each flag not every mode reads; the others reject it.
_TRACT_FLAG_MODES = {
    "tol": ("wt", "st"),
    "format": ("wt", "st"),
    "d_list": ("wt", "st"),
    "eps_list": ("wt", "st"),
    "source": ("wt", "st"),
    "s": ("st",),
    "t": ("st",),
    "d_max": ("alg",),
}


def _cells(column: list) -> list[str]:
    """CSV cells of one column: '.' decimal point, 17 significant digits for floats."""
    return [f"{x:.17g}" if isinstance(x, float) else str(x) for x in column]


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON from {path}: {exc}") from exc


def _load_model(path: str) -> WeightModel:
    try:
        return WeightModel.from_dict(_load_json(path))
    except ValueError as exc:
        raise ValueError(f"invalid weight model: {exc}") from exc


def _atomic_write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".korobov-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:  # named without the temp file's random name
        raise ValueError(f"cannot write output to {path}: {exc.strerror or exc}") from exc


def _emit(args, config: dict, result, header: list[str] | None = None) -> None:
    """Write the JSON payload, or, given a ``header``, ``result`` as CSV: the
    table's columns in the header's order, each a list of cells or one
    value that every row shares, formatted once (at least one column is a
    list).  Only CSV cells that hold a comma, a quote or a line break are
    quoted."""
    if header is None:
        payload = {"schema": SCHEMA, "config": config, "result": result}
        _atomic_write(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return
    text = io.StringIO()
    text.write(f"# schema: {SCHEMA}\n# config: {json.dumps(config, sort_keys=True)}\n")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    columns = [_cells(col) if isinstance(col, list) else itertools.repeat(_cells([col])[0]) for col in result]
    writer.writerows(zip(*columns))
    _atomic_write(args.out, text.getvalue())


def _emit_rows(args, config: dict, rows: list[dict], header: list[str]) -> None:
    """``rows`` as the JSON payload under --format json, else the CSV table
    of their values under the header's keys."""
    if args.format == "json":
        _emit(args, config, rows)
    else:
        _emit(args, config, [[row[col] for row in rows] for col in header], header)


def _parse_list(raw: str, kind: type, name: str) -> list:
    try:
        return [kind(part) for part in raw.split(",") if part != ""]
    except ValueError as exc:
        raise ValueError(f"{name} must be a comma-separated {kind.__name__} list") from exc


# ---------------------------------------------------------------------------
# Subcommand handlers: each adds its own keys to the echoed configuration,
# which main starts with command, tol and (when given) model; the two runs
# that read no tolerance drop tol.
# ---------------------------------------------------------------------------

def _cmd_wce(args, model: WeightModel, config: dict) -> None:
    if args.g is not None:
        rule = LatticeRule(n=args.n, g=tuple(_parse_list(args.g, int, "--g")))
    else:
        rule = korobov_vector(KorobovParam(n=args.n, g=args.g_scalar, d=args.d))
    config.update({"n": rule.n, "g": list(rule.g), "lambda": args.lam, "method": args.method})
    est = getattr(wce, f"wce2_{args.method}")(rule, model.scaled(args.lam), tol=args.tol)
    _emit(args, config, {"n": rule.n, "g": list(rule.g), **est.to_dict()})


def _cmd_search(args, model: WeightModel, config: dict) -> None:
    config.update({"n": args.n, "d": args.d, "variant": args.variant})
    if args.format == "csv":
        e2, bound = search.family_errors(args.n, args.d, model, args.tol, args.variant, args.threads)
        if args.variant == "korobov":
            labels = list(range(e2.size))
        else:
            vectors = search.general_vectors(args.n, args.d, np.arange(e2.size)).tolist()
            labels = [";".join(map(str, g)) for g in vectors]
        _emit(args, config, [labels, e2.tolist(), bound], ["g", "e2", "trunc_bound"])
        return
    fn = search.search_korobov if args.variant == "korobov" else search.search_general
    res = fn(args.n, args.d, model, args.tol, threads=args.threads)
    _emit(args, config, res.to_dict())


def _cmd_bound(args, model: WeightModel, config: dict) -> None:
    config.update({"n": args.n, "d": args.d, "variant": args.variant, "lambda": args.lam})
    if args.lam is not None:
        report = bounds.bound_report(args.n, args.d, args.lam, model, args.variant, args.tol)
    else:
        report = bounds.error_bound_min(args.n, args.d, model, args.variant, args.tol)
    _emit(args, config, report.to_dict())


def _cmd_nofe(args, model: WeightModel, config: dict) -> None:
    config.update({"epsilon": args.epsilon, "d": args.d, "variant": args.variant})
    n_bound, lam_star = bounds.info_complexity_bound(
        args.epsilon, args.d, model, args.variant, args.tol
    )
    [n_upper] = bounds.empirical_info_complexity([args.epsilon], args.d, model, args.tol)
    result = {
        "epsilon": args.epsilon,
        "d": args.d,
        "n_lower": bounds.minkowski_start(args.epsilon, args.d, model),
        "n_upper": n_upper,
        "n_bound": n_bound,
        "lambda_star": lam_star,
    }
    _emit(args, config, result)


def _cmd_tract(args, model: WeightModel, config: dict) -> None:
    config["mode"] = args.mode
    if args.mode == "alg":
        del config["tol"]  # alg_classify reads no tolerance
        config["d_max"] = 1024 if args.d_max is None else args.d_max
        _emit(args, config, tract.alg_classify(model, config["d_max"]))
        return
    d_list = _parse_list(args.d_list, int, "--d-list")
    eps_list = _parse_list(args.eps_list, float, "--eps-list")
    source = "bound" if args.source is None else args.source
    config.update({"d_list": d_list, "eps_list": eps_list, "source": source})
    s = 1.0 if args.s is None else args.s
    t = 1.0 if args.t is None else args.t
    if args.mode == "st":
        config.update({"s": s, "t": t})
    rows = tract.st_ratio_trace(s, t, d_list, eps_list, model, source, args.tol).rows()
    _emit_rows(args, config, rows, ["d", "epsilon", "n", "ratio", "mode", "source"])


def _cmd_integrate(args, model: WeightModel | None, config: dict) -> None:
    poly = qmc.FourierPolynomial.from_dict(_load_json(args.poly))
    rule = LatticeRule.from_dict(_load_json(args.rule))
    config.update({"poly": poly.to_dict(), "rule": rule.to_dict()})
    q = qmc.qmc_apply(poly, rule)
    exact = poly.integral()
    err = qmc.exact_qmc_error(poly, rule)
    result = {
        "q_re": q.real,
        "q_im": q.imag,
        "integral_re": exact.real,
        "integral_im": exact.imag,
        "error_re": err.real,
        "error_im": err.imag,
        "error_abs": abs(err),
    }
    if model is not None:
        result["vs_wce"] = qmc.error_vs_wce(poly, rule, model, args.tol)
    else:
        del config["tol"]  # only vs_wce reads it
    _emit(args, config, result)


def _cmd_convergence(args, model: WeightModel, config: dict) -> None:
    if args.primes is not None:
        primes = _parse_list(args.primes, int, "--primes")
        bad = [p for p in primes if not is_prime(p)]
        if bad:
            raise ValueError(f"values {bad} are not prime")
    else:
        if args.primes_up_to > bounds.SCAN_N_CAP:  # before the prime list is built
            raise CapExceededError(f"--primes-up-to exceeds the scan cap {bounds.SCAN_N_CAP}")
        primes = [p for p in range(2, args.primes_up_to + 1) if is_prime(p)]
    config.update({"d": args.d, "primes": primes})
    rows = qmc.convergence_study(args.d, model, primes, args.tol)
    _emit_rows(args, config, rows, ["n", "e", "n_e", "n2_e", "n4_e", "bound"])


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors: one JSON object, exit 2."""

    def error(self, message: str):
        sys.exit(_fail(EXIT_CONFIG, "config", f"{self.prog}: {message}"))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="korobov",
        description="Lattice rules for integration of analytic periodic functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, summary: str, model: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--model", required=model, help="path to a weight-model JSON file")
        p.add_argument("--tol", type=float)
        p.add_argument("--out", help="output path (default: stdout)")
        p.set_defaults(fn=fn)
        return p

    p = add("wce", _cmd_wce, "worst-case error of one rule")
    p.add_argument("--n", type=int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--g", help="comma-separated generating vector")
    g.add_argument("--g-scalar", type=int, dest="g_scalar", help="Korobov parameter; needs --d")
    p.add_argument("--d", type=int, help="dimension of --g-scalar")
    p.add_argument("--lambda", type=float, default=1.0, dest="lam")
    p.add_argument(
        "--method",
        default="theta_product",
        choices=("theta_product", "dual_enum", "kernel_double_sum"),
    )

    p = add("search", _cmd_search, "exhaustive generating-vector search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--variant", choices=search.FAMILIES, default="korobov")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = add("bound", _cmd_bound, "existence bound on the minimal error")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lambda", type=float, default=None, dest="lam")
    p.add_argument("--variant", choices=search.FAMILIES, default="korobov")

    p = add("nofe", _cmd_nofe, "information-complexity bound and empirical value")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--variant", choices=search.FAMILIES, default="korobov")

    # mode-specific flags (--tol included) default to None so that
    # _check_combinations can tell a given flag from an absent one;
    # _cmd_tract and main fill in the defaults
    p = add("tract", _cmd_tract, "tractability traces and classification")
    p.add_argument("--mode", choices=("wt", "st", "alg"), default="wt")
    p.add_argument("--format", choices=("json", "csv"), help="wt/st (default csv)")
    p.add_argument("--d-list", dest="d_list", help="wt/st, required")
    p.add_argument("--eps-list", dest="eps_list", help="wt/st, required")
    p.add_argument("--source", choices=("bound", "empirical"), help="wt/st (default bound)")
    p.add_argument("--s", type=float, help="st (default 1)")
    p.add_argument("--t", type=float, help="st (default 1)")
    p.add_argument("--d-max", type=int, dest="d_max", help="alg (default 1024)")

    p = add("integrate", _cmd_integrate, "apply a rule to a Fourier polynomial", model=False)
    p.add_argument("--poly", required=True, help="path to a polynomial JSON file")
    p.add_argument("--rule", required=True, help="path to a rule JSON file")

    p = add("convergence", _cmd_convergence, "error decay along ascending primes")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--d", type=int, required=True)
    primes = p.add_mutually_exclusive_group(required=True)
    primes.add_argument("--primes", help="explicit comma-separated prime list")
    primes.add_argument("--primes-up-to", type=int, dest="primes_up_to")

    return parser


def _check_combinations(parser: argparse.ArgumentParser, args) -> None:
    """Reject the flag combinations that argparse cannot declare."""
    if args.command == "wce":
        if (args.g is None) == (args.d is None):
            parser.error("wce --d goes with --g-scalar (required there) and not with --g")
    elif args.command == "tract":
        unread = [
            f"--{name.replace('_', '-')}"
            for name, modes in _TRACT_FLAG_MODES.items()
            if args.mode not in modes and getattr(args, name) is not None
        ]
        if unread:
            parser.error(f"tract --mode {args.mode} does not read {', '.join(unread)}")
        if args.mode != "alg" and (args.d_list is None or args.eps_list is None):
            parser.error(f"tract --mode {args.mode} requires --d-list and --eps-list")
    elif args.command == "integrate" and args.model is None and args.tol is not None:
        parser.error("integrate --tol sets the tolerance of the vs_wce check and needs --model")


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _check_combinations(parser, args)
    if args.tol is None:
        args.tol = DEFAULT_TOL
    config = {"command": args.command, "tol": args.tol}
    model = None
    try:
        if args.model is not None:
            model = _load_model(args.model)
            config["model"] = model.to_dict()
        args.fn(args, model, config)
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))
    except CapExceededError as exc:
        return _fail(EXIT_CAP, "cap_exceeded", str(exc))
    except CertificateError as exc:
        return _fail(EXIT_CERTIFICATE, "certificate", str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
