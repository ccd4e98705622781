"""Tractability diagnostics: ratio traces and growth classification.

Weak-tractability evidence is collected as traces of
log N(eps, d) / (d + log(1/eps)) over explicit (d, eps) grids, either from
the closed-form information-complexity bound or from the empirical Korobov
scan, which walks the primes once per d for the whole eps grid.  The (s, t)
generalization replaces the denominator by d**s + (log(1/eps))**t.  The
classifier reports the limit A of a_j / log j (symbolically, per weight
family), the resulting bound on the eps-exponent of strong polynomial
tractability, and a finite-range growth classification of the partial sums
S_lam(d) = sum_{j<=d} omega**(lam * a_j); these are finite sums of the
weight sequence, so the classifier takes no tolerance.

All asymptotic statements are recast as monotonicity checks on finite
grids; the reports carry an explicit disclaimer that finite data cannot
prove asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import (
    LAMBDA_GRID,
    empirical_info_complexity,
    exp_or_inf,
    log_info_complexity_bound,
)
from .errors import CapExceededError
from .lattice import check_dimension
from .space import DEFAULT_TOL, WeightModel

# Largest d_max of alg_classify: about 4 s of summation on a 2-vCPU Xeon.
ALG_D_MAX_CAP = 1_000_000

GROWTH_DISCLAIMER = (
    "growth classes are fitted on a finite d-range and are heuristic; "
    "finite data cannot prove asymptotic statements"
)


@dataclass(frozen=True)
class TraceRecord:
    d: int
    epsilon: float
    n_value: float
    ratio: float


@dataclass(frozen=True)
class TractTrace:
    """Sorted (d, eps, N, ratio) records for one mode and source."""

    records: tuple[TraceRecord, ...]
    mode: str
    source: str

    def rows(self) -> list[dict]:
        return [
            {
                "d": r.d,
                "epsilon": r.epsilon,
                "n": r.n_value,
                "ratio": r.ratio,
                "mode": self.mode,
                "source": self.source,
            }
            for r in self.records
        ]


def st_ratio_trace(
    s: float,
    t: float,
    d_list,
    eps_list,
    model: WeightModel,
    source: str = "bound",
    tol: float = DEFAULT_TOL,
) -> TractTrace:
    """Ratios log N / (d**s + log(1/eps)**t) over the (d, eps) grid.

    Requires t >= 1 (the eps-direction cannot be dampened below the first
    power without losing the bound).  s = t = 1 recovers the plain
    weak-tractability ratio.  The bound source reports N as the inf
    sentinel past 2**62 and keeps its ratio finite; the empirical source
    runs one prime scan per d for the whole eps grid.
    """
    if not (s > 0.0):
        raise ValueError(f"s must be positive, got {s}")
    if t < 1.0:
        raise ValueError(f"t must be >= 1, got {t}")
    if source not in ("bound", "empirical"):
        raise ValueError(f"source must be 'bound' or 'empirical', got {source!r}")
    eps_grid = sorted(set(float(v) for v in eps_list))
    records = []
    for d in sorted(set(int(v) for v in d_list)):
        check_dimension(d)
        if source == "bound":
            log_ns = [log_info_complexity_bound(e, d, model, "korobov", tol)[0] for e in eps_grid]
            n_vals = [float(exp_or_inf(log_n, count=True)) for log_n in log_ns]
        else:
            n_vals = [float(n) for n in empirical_info_complexity(eps_grid, d, model, tol)]
            log_ns = [math.log(n) for n in n_vals]
        for eps, log_n, n_val in zip(eps_grid, log_ns, n_vals):
            denom = float(d) ** s + math.log(1.0 / eps) ** t
            records.append(
                TraceRecord(d=d, epsilon=eps, n_value=n_val, ratio=log_n / denom)
            )
    mode = "exp_wt" if s == 1.0 and t == 1.0 else f"exp_st_wt(s={s:g},t={t:g})"
    return TractTrace(records=tuple(records), mode=mode, source=source)


def wt_ratio_trace(
    d_list,
    eps_list,
    model: WeightModel,
    source: str = "bound",
    tol: float = DEFAULT_TOL,
) -> TractTrace:
    """Weak-tractability ratios log N / (d + log(1/eps))."""
    return st_ratio_trace(1.0, 1.0, d_list, eps_list, model, source, tol)


def _a_log_limit(model: WeightModel) -> float:
    """A = lim_j a_j / log j, symbolically per weight family.

    The finite prefix never affects the limit.  Constant and explicit
    families (bounded tails) give 0; linear and positive-power growth give
    infinity; the logarithmic family gives its own kappa (natural log).
    """
    fam = model.a
    if fam.kind in ("constant", "explicit"):
        return 0.0
    if fam.kind == "linear":
        return math.inf
    if fam.kind == "logarithmic":
        return fam.kappa
    return math.inf if fam.p > 0 else 0.0  # power: j**p with p = 0 is constant


def _closed_form_growth(model: WeightModel) -> str:
    """Growth of S_1(d) = sum_{j<=d} omega**a_j in closed form, per family."""
    fam = model.a
    if fam.kind in ("constant", "explicit") or (fam.kind == "power" and fam.p == 0):
        return "linear"  # bounded a_j: terms do not decay
    if fam.kind in ("linear", "power"):
        return "bounded"  # omega**a_j summable
    beta = fam.kappa * model.rate  # terms (j+1)**(-beta)
    if beta > 1.0:
        return "bounded"
    if beta == 1.0:
        return "logarithmic"
    return f"polynomial(d^{1.0 - beta:g})"


_GROWTH_TO_TRACT = {
    "bounded": "alg_polynomial",
    "logarithmic": "alg_polynomial",
    "polylog": "alg_quasi_polynomial",
}


def _empirical_growth(s_values: list[tuple[int, float]]) -> str:
    """Finite-range classification of S_1(d) growth (heuristic).

    The power exponent is fitted on the last dyadic step; in the
    sub-polynomial regime the polylog degree is estimated from the growth
    of the per-octave increments (which are ~ (log d)**(t-1) for
    (log d)**t growth).
    """
    ds = [d for d, _ in s_values]
    ss = [s for _, s in s_values]
    if ss[-1] - ss[len(ss) // 2] < 1e-9:
        return "bounded"
    alpha = math.log(ss[-1] / ss[-2]) / math.log(ds[-1] / ds[-2])
    # log growth still shows alpha ~ 1/log(d) on finite ranges, so the
    # polynomial branch only fires above that scale
    if alpha >= 0.25:
        return "linear" if alpha > 0.9 else f"polynomial(d^{alpha:.2g})"
    increments = [max(b - a, 1e-300) for a, b in zip(ss, ss[1:])]
    t_est = 1.0 + math.log(increments[-1] / increments[0]) / math.log(
        math.log(ds[-1]) / math.log(ds[0])
    )
    return "logarithmic" if t_est <= 1.3 else "polylog"


def alg_classify(model: WeightModel, d_max: int = 1024) -> dict:
    """Algebraic-tractability report for the model's weight sequence.

    Contains the symbolic limit A of a_j / log j, the bound
    min(2, 2 / (A * log(1/omega))) on the eps-exponent of strong polynomial
    tractability, partial sums S_lam(d) for the lambda grid at d = 4, 8, 16,
    ... below d_max and at d_max, and a heuristic growth classification of
    S_1(d) with the closed form attached.  One pass over j = 1..d_max reads
    each a_j once; each S_lam is a left-to-right sum in coordinate order.
    d_max runs from 9 (the first grid with the three points the classifier
    reads) to ALG_D_MAX_CAP, above which CapExceededError is raised.
    """
    if d_max < 9:
        raise ValueError(f"d_max must be >= 9, got {d_max}")
    if d_max > ALG_D_MAX_CAP:
        raise CapExceededError(f"d_max {d_max} exceeds the cap {ALG_D_MAX_CAP}")
    a_limit = _a_log_limit(model)
    exponent_bound = 2.0 if a_limit == 0.0 else min(2.0, 2.0 / (a_limit * model.rate))

    omega = model.omega
    running = [0.0] * len(LAMBDA_GRID)
    partial_sums = {lam: [] for lam in LAMBDA_GRID}
    for j in range(1, d_max + 1):
        a = model.a_j(j)
        running = [s + omega ** (lam * a) for s, lam in zip(running, LAMBDA_GRID)]
        if j == d_max or (j >= 4 and j & (j - 1) == 0):
            for lam, s in zip(LAMBDA_GRID, running):
                partial_sums[lam].append((j, s))

    s1 = partial_sums[1.0]
    empirical = _empirical_growth(s1)
    closed = _closed_form_growth(model)
    tract_class = _GROWTH_TO_TRACT.get(empirical, "none_of_the_sufficient_conditions")
    return {
        "a_log_limit": a_limit,
        "spt_eps_exponent_bound": exponent_bound,
        "partial_sums": partial_sums,
        "growth": {
            "empirical_class": empirical,
            "closed_form_class": closed,
            "alg_tractability_class": tract_class,
            "s1_over_log_d": [(d, s / math.log(d)) for d, s in s1],
        },
        "disclaimer": GROWTH_DISCLAIMER,
    }
