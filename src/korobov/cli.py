"""Batch command-line front end.

Subcommands: wce, search, bound, nofe, tract, integrate, convergence.
Every subcommand takes --model, --tol and --out; ``search`` also takes
--threads, and ``search``, ``tract`` and ``convergence`` take --format
(json or csv; the others always write JSON).  Outputs are written
atomically (temp file + rename) and embed the resolved configuration plus a
schema version string.  Identical inputs produce byte-identical outputs,
independent of --threads (execution knobs are therefore not part of the
echoed configuration).

Exit codes: 0 success, 2 configuration error, 3 size cap exceeded,
4 numerical certificate failure.  Errors are reported as one JSON object
on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import bounds, qmc, search, tract, wce
from .errors import CapExceededError, OracleInfeasibleError, SummationCapError
from .lattice import KorobovParam, LatticeRule, korobov_vector
from .space import DEFAULT_TOL, WeightModel, a_lambda

SCHEMA = "korobov/2"

EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_CERTIFICATE = 4


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    """CSV cell: '.' decimal point, 17 significant digits for floats."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read JSON from {path}: {exc}") from exc


def _load_model(path: str | None) -> WeightModel:
    if path is None:
        raise ConfigError("--model is required for this command")
    try:
        return WeightModel.from_dict(_load_json(path))
    except ValueError as exc:
        raise ConfigError(f"invalid weight model: {exc}") from exc


def _atomic_write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".korobov-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_json(args, config: dict, result) -> None:
    payload = {"schema": SCHEMA, "config": config, "result": result}
    _atomic_write(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _emit_csv(args, config: dict, header: list[str], rows: list[list]) -> None:
    lines = [
        f"# schema: {SCHEMA}",
        f"# config: {json.dumps(config, sort_keys=True)}",
        ",".join(header),
    ]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    _atomic_write(args.out, "\n".join(lines) + "\n")


def _parse_int_list(raw: str, name: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part != ""]
    except ValueError as exc:
        raise ConfigError(f"{name} must be a comma-separated integer list") from exc


def _parse_float_list(raw: str, name: str) -> list[float]:
    try:
        return [float(part) for part in raw.split(",") if part != ""]
    except ValueError as exc:
        raise ConfigError(f"{name} must be a comma-separated number list") from exc


def _rule_from_args(args) -> LatticeRule:
    if args.n is None:
        raise ConfigError("--n is required")
    if args.g is not None:
        return LatticeRule(n=args.n, g=tuple(_parse_int_list(args.g, "--g")))
    if args.g_scalar is not None:
        if args.d is None:
            raise ConfigError("--g-scalar needs --d")
        return korobov_vector(KorobovParam(n=args.n, g=args.g_scalar, d=args.d))
    raise ConfigError("provide either --g or --g-scalar")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_wce(args) -> None:
    model = _load_model(args.model)
    rule = _rule_from_args(args)
    evaluators = {
        "theta_product": lambda: wce.wce2_theta_product(rule, model, args.lam, args.tol),
        "dual_enum": lambda: wce.wce2_dual_enum(rule, model, args.lam, args.tol),
        "kernel_double_sum": lambda: wce.wce2_kernel_double_sum(rule, model, args.tol),
    }
    if args.method not in evaluators:
        raise ConfigError(f"unknown method {args.method!r}")
    est = evaluators[args.method]()
    config = {
        "command": "wce",
        "model": model.to_dict(),
        "n": rule.n,
        "g": list(rule.g),
        "lambda": args.lam,
        "method": args.method,
        "tol": args.tol,
    }
    result = {"n": rule.n, "g": list(rule.g), **est.to_dict()}
    _emit_json(args, config, result)


def _cmd_search(args) -> None:
    model = _load_model(args.model)
    if args.n is None or args.d is None:
        raise ConfigError("--n and --d are required")
    config = {
        "command": "search",
        "model": model.to_dict(),
        "n": args.n,
        "d": args.d,
        "variant": args.variant,
        "tol": args.tol,
    }
    if args.format == "csv":
        e2, bound = search.candidate_errors(
            args.n, args.d, model, args.tol, args.variant, args.threads
        )

        if args.variant == "korobov":
            labels = range(e2.size)
        else:
            vectors = search._general_block(args.n, args.d, np.arange(e2.size)).tolist()
            labels = (";".join(map(str, g)) for g in vectors)
        rows = [[label, float(v), bound] for label, v in zip(labels, e2)]
        _emit_csv(args, config, ["g", "e2", "trunc_bound"], rows)
        return
    fn = search.search_korobov if args.variant == "korobov" else search.search_general
    res = fn(args.n, args.d, model, args.tol, threads=args.threads)
    _emit_json(args, config, res.to_dict())


def _cmd_bound(args) -> None:
    model = _load_model(args.model)
    if args.n is None or args.d is None:
        raise ConfigError("--n and --d are required")
    config = {
        "command": "bound",
        "model": model.to_dict(),
        "n": args.n,
        "d": args.d,
        "variant": args.variant,
        "lambda": args.lam,
        "tol": args.tol,
    }
    if args.lam is not None:
        report = bounds.BoundReport(
            lam=args.lam,
            a_lam=a_lambda(args.lam, model, args.tol),
            product_term=bounds.product_bound(args.d, args.lam, model, args.tol),
            bound_value=bounds.error_bound(args.n, args.d, args.lam, model, args.variant, args.tol),
            variant=args.variant,
        )
    else:
        report = bounds.error_bound_min(args.n, args.d, model, args.variant, args.tol)
    _emit_json(args, config, report.to_dict())


def _cmd_nofe(args) -> None:
    model = _load_model(args.model)
    if args.epsilon is None or args.d is None:
        raise ConfigError("--epsilon and --d are required")
    n_bound, lam_star = bounds.info_complexity_bound(
        args.epsilon, args.d, model, args.variant, args.tol
    )
    n_upper = bounds.empirical_info_complexity(args.epsilon, args.d, model, args.tol)
    config = {
        "command": "nofe",
        "model": model.to_dict(),
        "epsilon": args.epsilon,
        "d": args.d,
        "variant": args.variant,
        "tol": args.tol,
    }
    result = {
        "epsilon": args.epsilon,
        "d": args.d,
        "n_upper": n_upper,
        "n_bound": n_bound,
        "lambda_star": lam_star,
    }
    _emit_json(args, config, result)


def _cmd_tract(args) -> None:
    model = _load_model(args.model)
    config = {
        "command": "tract",
        "model": model.to_dict(),
        "mode": args.mode,
        "tol": args.tol,
    }
    if args.mode == "alg":
        config["d_max"] = args.d_max
        report = tract.alg_classify(model, args.d_max, args.tol)
        report["partial_sums"] = {
            repr(lam): rows for lam, rows in report["partial_sums"].items()
        }
        _emit_json(args, config, report)
        return
    if args.d_list is None or args.eps_list is None:
        raise ConfigError("--d-list and --eps-list are required for trace modes")
    d_list = _parse_int_list(args.d_list, "--d-list")
    eps_list = _parse_float_list(args.eps_list, "--eps-list")
    config.update({"d_list": d_list, "eps_list": eps_list, "source": args.source})
    if args.mode == "wt":
        trace = tract.wt_ratio_trace(d_list, eps_list, model, args.source, args.tol)
    elif args.mode == "st":
        config.update({"s": args.s, "t": args.t})
        trace = tract.st_ratio_trace(
            args.s, args.t, d_list, eps_list, model, args.source, args.tol
        )
    else:
        raise ConfigError(f"unknown tract mode {args.mode!r}")
    rows = [
        [r["d"], r["epsilon"], r["n"], r["ratio"], r["mode"], r["source"]]
        for r in trace.rows()
    ]
    if args.format == "json":
        _emit_json(args, config, trace.rows())
    else:
        _emit_csv(args, config, ["d", "epsilon", "n", "ratio", "mode", "source"], rows)


def _cmd_integrate(args) -> None:
    if args.poly is None or args.rule is None:
        raise ConfigError("--poly and --rule are required")
    try:
        poly = qmc.FourierPolynomial.from_dict(_load_json(args.poly))
        rule_data = _load_json(args.rule)
        if "g_scalar" in rule_data:
            rule = korobov_vector(KorobovParam.from_dict(rule_data))
        else:
            rule = LatticeRule.from_dict(rule_data)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
    config = {
        "command": "integrate",
        "poly": poly.to_dict(),
        "rule": rule.to_dict(),
        "tol": args.tol,
    }
    if args.model is not None:
        model = _load_model(args.model)
        config["model"] = model.to_dict()
        result["vs_wce"] = qmc.error_vs_wce(poly, rule, model, args.tol)
    _emit_json(args, config, result)


def _cmd_convergence(args) -> None:
    from .lattice import is_prime

    model = _load_model(args.model)
    if args.d is None:
        raise ConfigError("--d is required")
    if args.primes is not None:
        primes = _parse_int_list(args.primes, "--primes")
        bad = [p for p in primes if not is_prime(p)]
        if bad:
            raise ConfigError(f"values {bad} are not prime")
    elif args.primes_up_to is not None:
        primes = [p for p in range(2, args.primes_up_to + 1) if is_prime(p)]
    else:
        raise ConfigError("provide --primes or --primes-up-to")
    rows = qmc.convergence_study(args.d, model, primes, args.tol)
    config = {
        "command": "convergence",
        "model": model.to_dict(),
        "d": args.d,
        "primes": primes,
        "tol": args.tol,
    }
    table = [[r["n"], r["e"], r["n_e"], r["n2_e"], r["n4_e"], r["bound"]] for r in rows]
    if args.format == "json":
        _emit_json(args, config, rows)
    else:
        _emit_csv(args, config, ["n", "e", "n_e", "n2_e", "n4_e", "bound"], table)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="korobov",
        description="Lattice rules for integration of analytic periodic functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", help="path to a weight-model JSON file")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("wce", help="worst-case error of one rule")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--g", help="comma-separated generating vector")
    p.add_argument("--g-scalar", type=int, dest="g_scalar")
    p.add_argument("--d", type=int)
    p.add_argument("--lambda", type=float, default=1.0, dest="lam")
    p.add_argument(
        "--method",
        default="theta_product",
        choices=("theta_product", "dual_enum", "kernel_double_sum"),
    )
    p.set_defaults(fn=_cmd_wce)

    p = sub.add_parser("search", help="exhaustive generating-vector search")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--variant", choices=("general", "korobov"), default="korobov")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("bound", help="existence bound on the minimal error")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--lambda", type=float, default=None, dest="lam")
    p.add_argument("--variant", choices=("general", "korobov"), default="korobov")
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("nofe", help="information-complexity bound and empirical value")
    common(p)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--variant", choices=("general", "korobov"), default="korobov")
    p.set_defaults(fn=_cmd_nofe)

    p = sub.add_parser("tract", help="tractability traces and classification")
    common(p)
    # traces are CSV by default; the alg report is always JSON
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--mode", choices=("wt", "st", "alg"), default="wt")
    p.add_argument("--d-list", dest="d_list")
    p.add_argument("--eps-list", dest="eps_list")
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--source", choices=("bound", "empirical"), default="bound")
    p.add_argument("--d-max", type=int, default=1024, dest="d_max")
    p.set_defaults(fn=_cmd_tract)

    p = sub.add_parser("integrate", help="apply a rule to a Fourier polynomial")
    common(p)
    p.add_argument("--poly", help="path to a polynomial JSON file")
    p.add_argument("--rule", help="path to a rule JSON file")
    p.set_defaults(fn=_cmd_integrate)

    p = sub.add_parser("convergence", help="error decay along ascending primes")
    common(p)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--d", type=int)
    p.add_argument("--primes", help="explicit comma-separated prime list")
    p.add_argument("--primes-up-to", type=int, dest="primes_up_to")
    p.set_defaults(fn=_cmd_convergence)

    return parser


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.fn(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))
    except (CapExceededError, OracleInfeasibleError) as exc:
        return _fail(EXIT_CAP, "cap_exceeded", str(exc))
    except SummationCapError as exc:
        return _fail(EXIT_CERTIFICATE, "certificate", str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
