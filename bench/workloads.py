"""Workload definitions: seeded input generation and output checks.

``build(name, seed, inputs)`` writes every input file of a workload (weight
models, the ``certify`` rule corpus, grids) into ``inputs`` and returns the
operation list: CLI argument vectors whose ``--out`` the worker appends.
The seed only moves inputs within bands of equal cost (weight-model
parameters, which prime of a narrow window, which generator, a percent of
jitter on epsilon), so seeds differ in their inputs, not in the amount of
work.

``check(op, path, outputs)`` verifies one operation's output file (``outputs``
maps every op's output name to its file, for checks across operations) and
returns an error message or ``None``.  No check depends on which of several tied generators a
search picks.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from pathlib import Path

from korobov import (
    DEFAULT_TOL,
    KorobovParam,
    LatticeRule,
    WeightModel,
    dual_enum_work_estimate,
    korobov_vector,
    search_korobov,
    wce2_dual_enum,
    wce2_theta_product,
)

# The searches run on one thread: on a two-CPU machine that shares its host,
# two threads wait for the second CPU by a varying amount, which doubled the
# run-to-run spread.  Traced runs time the largest search on two threads too.
SEARCH_THREADS = 1

# Fixed slack on top of the two certificates when two evaluations of one rule
# are compared: acceptance criterion 1's value for the wce corpus, and the
# search's own tie slack (rounding of the character sum) for search results,
# whose errors lie far below 1e-10.
CERTIFY_SLACK = 1e-10
SEARCH_SLACK = 1e-13

# Dual enumeration is used as the independent re-evaluation when cheap.
CHECK_ENUM_WORK = 2e5


def _is_prime(n: int) -> bool:
    """Trial division, independent of the package's Miller-Rabin test."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _prime_in(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice([p for p in range(lo, hi) if _is_prime(p)])


def _model(omega: float, a_kind: str, b: float, a_kappa: float = 1.0) -> dict:
    return {
        "omega": omega,
        "a": {"kind": a_kind, "kappa": a_kappa},
        "b": {"kind": "constant", "kappa": b},
    }


class _Inputs:
    """Writes generated files into the workload's input directory."""

    def __init__(self, root: Path) -> None:
        self.root = root

    def json(self, name: str, data) -> str:
        path = self.root / name
        path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        return str(path)


def _op(argv: list, out: str, **check) -> dict:
    return {"argv": [str(a) for a in argv], "out": out, "check": check}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# search -- isolates wce.eval_vectors at large N; bypasses dual enumeration, bounds, scans.
# A few large exhaustive Korobov searches, O(N^2 d) in the character sum.  The
# seed moves the weight models only: the moduli stay fixed, so the scratch
# arrays, and with them the peak memory, have the same sizes for every seed.
def _build_search(rng: random.Random, files: _Inputs) -> list[dict]:
    def omega(lo, hi):
        return round(rng.uniform(lo, hi), 3)

    linear = files.json("linear.json",
                        _model(omega(0.48, 0.52), "linear", 1.0, round(rng.uniform(0.95, 1.05), 3)))
    linear_b2 = files.json("linear_b2.json", _model(omega(0.48, 0.52), "linear", 2.0))
    expo = files.json("exponential.json", _model(omega(0.09, 0.11), "constant", 1.0))
    t = ["--threads", SEARCH_THREADS]
    return [
        _op(["search", "--model", linear, "--n", 5003, "--d", 4, *t],
            "search_linear.json", kind="search", model=linear, largest=True),
        _op(["search", "--model", linear_b2, "--n", 5003, "--d", 4, *t],
            "search_b2.json", kind="search", model=linear_b2),
        _op(["search", "--model", linear, "--n", 4001, "--d", 3, "--format", "csv", *t],
            "search_candidates.csv", kind="search_csv", model=linear),
        _op(["search", "--model", expo, "--n", 4001, "--d", 2, *t],
            "search_exponential.json", kind="search", model=expo),
    ]


# scan -- isolates per-search costs at small N; bypasses the kernel double sum, large N.
# The paper's prime scans with a b = 1 model: hundreds of small-N searches,
# each with its own table build, next_prime step and (in convergence) dual
# enumeration rescoring and lambda-minimised bound.
def _build_scan(rng: random.Random, files: _Inputs) -> list[dict]:
    linear = files.json("linear.json", _model(0.5, "linear", 1.0))
    eps = 1e-4 * rng.uniform(0.99, 1.01)
    grid = {"d_list": [1, 2, 3], "eps_list": [1e-2 * rng.uniform(0.99, 1.01),
                                             1e-3 * rng.uniform(0.99, 1.01)]}
    files.json("grid.json", grid)
    return [
        _op(["nofe", "--model", linear, "--epsilon", repr(eps), "--d", 3],
            "nofe.json", kind="nofe", model=linear),
        _op(["convergence", "--model", linear, "--d", 2, "--primes-up-to", rng.randint(500, 520)],
            "convergence.csv", kind="convergence"),
        _op(["tract", "--model", linear, "--mode", "wt", "--source", "empirical",
             "--d-list", ",".join(map(str, grid["d_list"])),
             "--eps-list", ",".join(map(repr, grid["eps_list"]))],
            "tract_empirical.csv", kind="tract_empirical", model=linear),
    ]


# certify -- isolates wce.dual_enum (and the kernel double sum); bypasses search, bounds.
# A corpus of single-rule `wce` calls with almost no character-sum work.
# Cells: (omega, a family, b, d, lowest N, tolerance, methods).
_ALL = ("theta_product", "dual_enum", "kernel_double_sum")
_PAIR = ("theta_product", "dual_enum")
CERTIFY_CELLS = (
    (0.3, "constant", 1.0, 3, 37, 1e-14, _ALL),
    (0.3, "constant", 1.0, 3, 101, 1e-14, _ALL),
    (0.3, "constant", 1.0, 4, 1009, 1e-12, _PAIR),
    (0.3, "constant", 1.0, 4, 4001, 1e-12, _PAIR),
    (0.3, "linear", 0.5, 3, 101, 1e-10, _ALL),
    (0.3, "linear", 0.5, 2, 37, 1e-14, _ALL),
    (0.3, "constant", 0.5, 2, 37, 1e-14, _ALL),
    (0.3, "linear", 1.0, 4, 4001, 1e-14, _PAIR),
    (0.3, "constant", 2.0, 4, 1009, 1e-14, _ALL),
    (0.5, "constant", 1.0, 3, 37, 1e-14, _ALL),
    (0.5, "constant", 1.0, 3, 101, 1e-14, _ALL),
    (0.5, "constant", 1.0, 3, 1009, 1e-14, _ALL),
    (0.5, "linear", 1.0, 4, 1009, 1e-14, _ALL),
    (0.5, "linear", 1.0, 4, 4001, 1e-14, _PAIR),
    (0.5, "linear", 0.5, 2, 37, 1e-10, _ALL),
    (0.5, "linear", 2.0, 4, 4001, 1e-14, _PAIR),
    (0.5, "constant", 2.0, 4, 1009, 1e-14, _PAIR),
    (0.5, "linear", 1.0, 3, 101, 1e-14, _ALL),
    (0.5, "linear", 1.0, 3, 37, 1e-14, _ALL),
)


def _build_certify(rng: random.Random, files: _Inputs) -> list[dict]:
    corpus = []
    ops = []
    for idx, (omega, a_kind, b, d, n_lo, tol, methods) in enumerate(CERTIFY_CELLS):
        model = files.json(f"model_{idx:02d}.json", _model(omega, a_kind, b))
        n = _prime_in(rng, n_lo, n_lo + max(n_lo // 20, 12))
        if idx % 2 == 0:
            g = korobov_vector(KorobovParam(n, rng.randrange(2, n), d)).g
        else:
            g = (1,) + tuple(rng.randrange(1, n) for _ in range(d - 1))
        corpus.append({"model": model, "n": n, "g": list(g), "tol": tol, "methods": list(methods)})
        for method in methods:
            ops.append(_op(["wce", "--model", model, "--n", n, "--g", ",".join(map(str, g)),
                            "--method", method, "--tol", repr(tol)],
                           f"rule{idx:02d}_{method}.json", kind="wce", rule=idx, method=method))
    files.json("corpus.json", corpus)
    return ops


# bounds -- isolates space.a_lambda under lambda minimisation; bypasses search, wce.
# Closed-form bounds and tract traces on a slow-decay model (omega = 0.9,
# logarithmic a, b = 1/2).  The grid keeps every count below the 2**62
# overflow sentinel, so every value is finite.
def _build_bounds(rng: random.Random, files: _Inputs) -> list[dict]:
    slow = files.json("slow.json", _model(0.9, "logarithmic", 0.5))
    wt = {"d_list": [2, 4], "eps_list": [1e-2 * rng.uniform(0.99, 1.01)]}
    st = {"d_list": [3], "eps_list": [1e-2 * rng.uniform(0.99, 1.01)], "s": 0.5, "t": 1.0}
    files.json("grids.json", {"wt": wt, "st": st})

    def grid(g):
        return ["--d-list", ",".join(map(str, g["d_list"])),
                "--eps-list", ",".join(map(repr, g["eps_list"]))]

    return [
        _op(["tract", "--model", slow, "--mode", "wt", "--source", "bound", *grid(wt)],
            "tract_wt.csv", kind="tract_bound"),
        _op(["tract", "--model", slow, "--mode", "st", "--s", st["s"], "--t", st["t"],
             "--source", "bound", *grid(st)], "tract_st.csv", kind="tract_bound"),
        _op(["bound", "--model", slow, "--n", _prime_in(rng, 1000, 1100), "--d", 4],
            "bound.json", kind="bound"),
        _op(["tract", "--model", slow, "--mode", "alg"], "tract_alg.json", kind="alg"),
    ]


_GENERATORS = {
    "search": _build_search,
    "scan": _build_scan,
    "certify": _build_certify,
    "bounds": _build_bounds,
}


def build(name: str, seed: int, inputs: Path) -> list[dict]:
    """Write the workload's inputs for ``seed`` into ``inputs``; return its ops."""
    rng = random.Random(f"{name}:{seed}")
    ops = _GENERATORS[name](rng, _Inputs(inputs))
    (inputs / "ops.json").write_text(json.dumps(ops, indent=1) + "\n", encoding="utf-8")
    return ops


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _load_model(path: str) -> WeightModel:
    return WeightModel.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _csv_rows(text: str) -> list[dict]:
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def _independent_e2(rule: LatticeRule, model: WeightModel, tol: float):
    """Dual enumeration when affordable, else the character sum."""
    if dual_enum_work_estimate(rule, model, 1.0, tol) <= CHECK_ENUM_WORK:
        return wce2_dual_enum(rule, model, 1.0, tol)
    return wce2_theta_product(rule, model, 1.0, tol)


def _agree(v1: float, b1: float, v2: float, b2: float, slack: float) -> bool:
    return abs(v1 - v2) <= b1 + b2 + slack


def _check_rule(rule: LatticeRule, e2: float, bound: float, model: WeightModel, tol: float):
    est = _independent_e2(rule, model, tol)
    if not _agree(e2, bound, est.value, est.trunc_bound, SEARCH_SLACK):
        return (f"g={list(rule.g)}: reported e2 {e2:.6g} disagrees with {est.method} "
                f"{est.value:.6g} beyond certificates {bound:.3g}+{est.trunc_bound:.3g}")
    return None


def _positive(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) and v > 0 for v in values)


def _feasible(n: int, d: int, eps: float, model: WeightModel, tol: float) -> bool:
    """Some Korobov rule with modulus n reaches error eps (re-evaluated)."""
    best = search_korobov(n, d, model, tol).best_rule
    est = _independent_e2(best, model, tol)
    return est.value <= eps * eps + est.trunc_bound + SEARCH_SLACK


def _growth_class(label: str) -> tuple[str, float | None]:
    if label.startswith("polynomial(d^"):
        return "polynomial", float(label[len("polynomial(d^"):-1])
    return label, None


def check(op: dict, path: Path, outputs: dict[str, Path]) -> str | None:
    """Error message for a failed output check, or None."""
    spec = op["check"]
    kind = spec["kind"]
    text = path.read_text(encoding="utf-8")
    args = dict(zip(op["argv"], op["argv"][1:]))  # flag -> following value
    tol = float(args.get("--tol", DEFAULT_TOL))
    if kind == "search":
        res = json.loads(text)["result"]
        n, d = int(args["--n"]), int(args["--d"])
        if res["evaluated"] != n:
            return f"evaluated {res['evaluated']} != n {n}"
        rule = LatticeRule.from_dict(res["best_rule"])
        if rule.n != n or rule.d != d or not 1 <= res["ties"] <= n:
            return "best rule or tie count out of range"
        return _check_rule(rule, res["best_e2"]["e2"], res["best_e2"]["trunc_bound"],
                           _load_model(spec["model"]), tol)
    if kind == "search_csv":
        rows = _csv_rows(text)
        n, d = int(args["--n"]), int(args["--d"])
        if len(rows) != n or [int(r["g"]) for r in rows] != list(range(n)):
            return f"expected {n} candidate rows in order, got {len(rows)}"
        e2 = [float(r["e2"]) for r in rows]
        if not all(math.isfinite(v) for v in e2):
            return "non-finite candidate error"
        g = min(range(n), key=lambda i: e2[i])
        rule = korobov_vector(KorobovParam(n, g, d))
        return _check_rule(rule, e2[g], float(rows[g]["trunc_bound"]),
                           _load_model(spec["model"]), tol)
    if kind == "nofe":
        res = json.loads(text)["result"]
        n_up, d, eps = res["n_upper"], res["d"], res["epsilon"]
        if not _is_prime(n_up):
            return f"n_upper {n_up} is not prime"
        if not _positive([res["n_bound"], res["lambda_star"]]) or n_up > res["n_bound"]:
            return f"n_bound {res['n_bound']} not finite or below n_upper {n_up}"
        if not _feasible(n_up, d, eps, _load_model(spec["model"]), tol):
            return f"n_upper {n_up} is not feasible for eps {eps}"
        return None
    if kind == "convergence":
        rows = _csv_rows(text)
        primes = [p for p in range(2, int(args["--primes-up-to"]) + 1) if _is_prime(p)]
        if [int(r["n"]) for r in rows] != primes:
            return "convergence rows do not match the prime list"
        for r in rows:
            e, bound = float(r["e"]), float(r["bound"])
            if not (math.isfinite(e) and e >= 0.0 and _positive([bound])):
                return f"bad row at n={r['n']}"
        return None
    if kind == "tract_empirical":
        model = _load_model(spec["model"])
        for r in _csv_rows(text):
            n, d, eps = int(float(r["n"])), int(r["d"]), float(r["epsilon"])
            if not _is_prime(n) or not _feasible(n, d, eps, model, tol):
                return f"cell d={d} eps={eps}: n={n} not a feasible prime"
            want = math.log(n) / (d + math.log(1.0 / eps))
            if not math.isclose(float(r["ratio"]), want, rel_tol=1e-12):
                return f"cell d={d} eps={eps}: ratio {r['ratio']} != {want}"
        return None
    if kind == "tract_bound":
        rows = _csv_rows(text)
        if not rows or not _positive([float(r[k]) for r in rows for k in ("n", "ratio")]):
            return "trace has a non-finite or non-positive value"
        return None
    if kind == "bound":
        res = json.loads(text)["result"]
        if not _positive([res[k] for k in ("lambda", "a_lambda", "product_term", "bound_value")]):
            return "bound has a non-finite or non-positive value"
        return None
    if kind == "alg":
        res = json.loads(text)["result"]
        empirical = _growth_class(res["growth"]["empirical_class"])
        closed = _growth_class(res["growth"]["closed_form_class"])
        if empirical[0] != closed[0] or (
            empirical[1] is not None and abs(empirical[1] - closed[1]) > 0.05
        ):
            return f"growth class {empirical} != closed form {closed}"
        sums = [s for rows in res["partial_sums"].values() for _, s in rows]
        if not _positive(sums + [res["spt_eps_exponent_bound"]]):
            return "non-finite or non-positive partial sum"
        return None
    if kind == "wce":
        res = json.loads(text)["result"]
        if not math.isfinite(res["e2"]):
            return "non-finite e2"
        if spec["method"] == "theta_product":
            return None
        ref_path = outputs[f"rule{spec['rule']:02d}_theta_product.json"]
        ref = json.loads(ref_path.read_text(encoding="utf-8"))["result"]
        if not _agree(res["e2"], res["trunc_bound"], ref["e2"], ref["trunc_bound"], CERTIFY_SLACK):
            return (f"rule {spec['rule']}: {spec['method']} e2 {res['e2']:.6g} disagrees with "
                    f"theta_product {ref['e2']:.6g}")
        return None
    raise ValueError(f"unknown check kind {kind!r}")
