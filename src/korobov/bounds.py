"""Closed-form error and information-complexity bounds.

For every lambda in (0, 1] the minimal error over general generating
vectors (and over Korobov vectors, for d >= 2) is dominated by

    [ c / N * prod_j (1 + 2 * A_lam * omega**(lam * a_j)) ] ** (1 / (2*lam)),

with c = 1 for general vectors and c = d - 1 for Korobov vectors.  Driving
this below a target eps gives the modulus threshold M_lam(eps, d) and, via
Bertrand's postulate, the information-complexity bound

    N(eps, d) <= 4 * c_d * eps**(-2*lam) * prod_j (1 + 2*A_lam*omega**(lam*a_j)),

with c_d = 1 (general) or c_d = d (Korobov).  All products are evaluated in
log space; values beyond 2**62 come back as a float('inf') sentinel instead
of saturating silently.  The empirical information complexity walks the
primes once for a whole list of eps, so a trace scans once per (model, d),
and it starts where Minkowski's convex body theorem stops excluding: every
modulus up to ``minkowski_start(eps, d, model)`` is infeasible for every
rank-1 rule.  Every prime takes one path: the Korobov sieve of ``wce``
drops every generator with a nonzero dual h of E(h) <= T', the exponent
that ``minkowski_start`` reads too; one g per surviving rule decides the prime.
The lambda minimisations check their inputs once; each of their lambda
probes is one ``log_product_bound`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .errors import CapExceededError, CertificateError, OracleInfeasibleError, SummationCapError
from .lattice import check_dimension, next_prime
from .space import DEFAULT_TOL, WeightModel, a_lambda, log_region_volume
# search_korobov is not called here: bench/run.py's self-test wraps this import site
from .search import check_family, family_errors, search_korobov
from .wce import ErrorEstimate, korobov_survivors

# Geometric lambda grid 1, 1/2, ..., 2**-20; a golden-section refinement
# around the grid minimum sharpens minimized bounds reproducibly.
LAMBDA_GRID = tuple(0.5**k for k in range(21))

_OVERFLOW_LOG = 62.0 * math.log(2.0)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Largest prime modulus the empirical information-complexity scan searches.
SCAN_N_CAP = 100_000

# Relative margin taken off the Minkowski volume before its floor.  The log
# of the volume sums d terms of a few ulps' error each, so while their sizes
# add up to less than 10**3 the volume is off by less than 1e-12 relative,
# and every modulus up to the margined floor is truly excluded.
MINKOWSKI_MARGIN = 1e-9

def _check_eps(eps: float) -> None:
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")


def _check_size(n: int, d: int) -> None:
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    check_dimension(d)


def exp_or_inf(log_val: float, count: bool = False) -> float:
    """exp(log_val), rounded up for counts; the float('inf') sentinel past 2**62."""
    if log_val > _OVERFLOW_LOG:
        return math.inf
    return math.ceil(math.exp(log_val)) if count else math.exp(log_val)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: its lambda, ingredients, and value."""

    lam: float
    a_lam: float
    product_term: float
    bound_value: float
    variant: str

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "a_lambda": self.a_lam,
            "product_term": self.product_term,
            "bound_value": self.bound_value,
            "variant": self.variant,
        }


def log_product_bound(d: int, lam: float, model: WeightModel, tol: float = DEFAULT_TOL) -> float:
    """log of prod_{j<=d} (1 + 2 * A_lam * omega**(lam * a_j))."""
    a_lam = a_lambda(lam, model, tol)
    return math.fsum(
        math.log1p(2.0 * a_lam * model.omega ** (lam * model.a_j(j)))
        for j in range(1, d + 1)
    )


def product_bound(d: int, lam: float, model: WeightModel, tol: float = DEFAULT_TOL) -> float:
    """prod_{j<=d} (1 + 2*A_lam*omega**(lam*a_j)); inf sentinel on overflow."""
    return exp_or_inf(log_product_bound(d, lam, model, tol))


def error_bound(
    n: int,
    d: int,
    lam: float,
    model: WeightModel,
    variant: str = "korobov",
    tol: float = DEFAULT_TOL,
) -> float:
    """The existence bound on the minimal worst-case error at one lambda.

    variant='general' uses c = 1; variant='korobov' uses c = d - 1 for
    d >= 2.  At d = 1 the Korobov factor d - 1 degenerates to zero, so the
    general-vector bound is used there (in d = 1 all Korobov vectors are
    (1), whose error equals the general minimum by scalar invariance).
    """
    check_family(variant)
    _check_size(n, d)
    return _error_bound(n, d, lam, variant, log_product_bound(d, lam, model, tol))


def _error_bound(n: int, d: int, lam: float, variant: str, log_product: float) -> float:
    c = 1.0 if variant == "general" or d == 1 else float(d - 1)
    log_val = (math.log(c / n) + log_product) / (2.0 * lam)
    return math.inf if log_val > 700.0 else math.exp(log_val)


def bound_report(
    n: int,
    d: int,
    lam: float,
    model: WeightModel,
    variant: str = "korobov",
    tol: float = DEFAULT_TOL,
) -> BoundReport:
    """The existence bound at one lambda, with A_lam and the product term."""
    check_family(variant)
    _check_size(n, d)
    return _report(n, d, lam, model, variant, tol, log_product_bound(d, lam, model, tol))


def _report(
    n: int, d: int, lam: float, model: WeightModel, variant: str, tol: float, log_product: float
) -> BoundReport:
    return BoundReport(
        lam=lam,
        a_lam=a_lambda(lam, model, tol),
        product_term=exp_or_inf(log_product),
        bound_value=_error_bound(n, d, lam, variant, log_product),
        variant=variant,
    )


def _minimize_lambda(fn):
    """Minimize fn over the lambda grid plus 32 golden-section steps.

    Each step keeps one interior point and its value and evaluates one new
    point, so fn runs at most 21 + 33 = 54 times, never twice at one lambda.
    Lambdas where fn raises SummationCapError count as inf (the others still
    give a valid upper bound).  Returns (best_value, best_lambda).
    """
    seen: list[tuple[float, float]] = []  # (value, lambda) of every evaluation

    def probe(lam: float) -> float:
        try:
            value = fn(lam)
        except SummationCapError:
            value = math.inf
        seen.append((value, lam))
        return value

    grid_vals = [(probe(lam), lam) for lam in LAMBDA_GRID]
    finite = [(v, lam) for v, lam in grid_vals if math.isfinite(v)]
    if not finite:
        return math.inf, grid_vals[0][1]
    _, lam_mid = min(finite, key=lambda pair: (pair[0], -pair[1]))
    idx = LAMBDA_GRID.index(lam_mid)
    hi = LAMBDA_GRID[idx - 1] if idx > 0 else lam_mid
    lo = LAMBDA_GRID[idx + 1] if idx + 1 < len(LAMBDA_GRID) else lam_mid
    m1 = m2 = None  # interior points; the one kept carries its value f1 or f2
    for _ in range(32):
        if hi - lo < 1e-12:
            break
        if m1 is None:
            m1 = hi - _GOLDEN * (hi - lo)
            f1 = probe(m1)
        if m2 is None:
            m2 = lo + _GOLDEN * (hi - lo)
            f2 = probe(m2)
        if f1 <= f2:
            hi = m2
            m2 = m1
            f2 = f1
            m1 = None
        else:
            lo = m1
            m1 = m2
            f1 = f2
            m2 = None
    return min(seen, key=lambda pair: (pair[0], -pair[1]))


def error_bound_min(
    n: int,
    d: int,
    model: WeightModel,
    variant: str = "korobov",
    tol: float = DEFAULT_TOL,
) -> BoundReport:
    """Smallest error bound over the lambda grid, reported at its lambda.

    The inputs are checked once; each lambda probe is one
    ``log_product_bound`` call, and the report reads the winning probe's.
    """
    check_family(variant)
    _check_size(n, d)
    log_product = cache(lambda lam: log_product_bound(d, lam, model, tol))
    value, lam = _minimize_lambda(lambda l: _error_bound(n, d, l, variant, log_product(l)))
    if math.isfinite(value):
        return _report(n, d, lam, model, variant, tol, log_product(lam))
    return BoundReport(
        lam=lam, a_lam=math.inf, product_term=math.inf, bound_value=value, variant=variant
    )


def _log_m(eps: float, d: int, lam: float, model: WeightModel, variant: str, tol: float) -> float:
    """log of c_d * eps**(-2*lam) * product term; its callers check the inputs."""
    c_d = 1.0 if variant == "general" else float(d)
    return (
        math.log(c_d)
        + 2.0 * lam * math.log(1.0 / eps)
        + log_product_bound(d, lam, model, tol)
    )


def m_lambda(
    eps: float,
    d: int,
    lam: float,
    model: WeightModel,
    variant: str = "korobov",
    tol: float = DEFAULT_TOL,
) -> float:
    """Modulus threshold ceil(c_d * eps**(-2*lam) * product term).

    Any prime N >= M_lam (e.g. next_prime(M_lam) < 2*M_lam by Bertrand's
    postulate) admits a rule with error <= eps.  Returns a float('inf')
    sentinel when the value would exceed 2**62.
    """
    _check_eps(eps)
    check_family(variant)
    check_dimension(d)
    return exp_or_inf(_log_m(eps, d, lam, model, variant, tol), count=True)


def log_info_complexity_bound(
    eps: float,
    d: int,
    model: WeightModel,
    variant: str = "korobov",
    tol: float = DEFAULT_TOL,
) -> tuple[float, float]:
    """log of the minimized information-complexity bound, with its lambda.

    Stays finite where the exponentiated count would overflow the 2**62
    sentinel threshold; ratio diagnostics are computed from this form.
    """
    _check_eps(eps)
    check_family(variant)
    check_dimension(d)

    def log_bound(lam: float) -> float:
        return math.log(4.0) + _log_m(eps, d, lam, model, variant, tol)

    return _minimize_lambda(log_bound)


def info_complexity_bound(
    eps: float,
    d: int,
    model: WeightModel,
    variant: str = "korobov",
    tol: float = DEFAULT_TOL,
) -> tuple[float, float]:
    """Smallest 4 * c_d * eps**(-2*lam) * product term over the lambda grid.

    Returns (bound, lambda_star); the bound is an integer, or the
    float('inf') sentinel when it would exceed 2**62.
    """
    log_val, lam = log_info_complexity_bound(eps, d, model, variant, tol)
    return exp_or_inf(log_val, count=True), lam


def _t_prime(eps: float, model: WeightModel) -> float:
    """T' = (2 log(1/eps) + log 2) / (-log omega): a nonzero dual h with
    E(h) < T' gives e^2 >= rho(h) + rho(-h) = 2 omega**E(h) > eps^2.  The
    Minkowski start and the Korobov sieve of the prime scan both read it."""
    return (2.0 * -math.log(eps) + math.log(2.0)) / model.rate


def minkowski_start(eps: float, d: int, model: WeightModel) -> int:
    """Largest modulus that Minkowski's convex body theorem excludes at eps.

    With T' = (2 log(1/eps) + log 2) / (-log omega), a nonzero dual h with
    E(h) <= T' gives e^2 >= rho(+-h) + rho(+-2h) > 2 omega**T' = eps^2.  The
    dual lattice of a rank-1 rule of modulus N has determinant at most N,
    so a convex symmetric body C whose integer points all have E(h) <= T'
    holds such an h once vol(C) >= 2**d N.  C is the larger of
    {sum_j a_j |x_j|**max(b_j, 1) <= T'} (for integer h and b_j < 1,
    |h_j|**b_j <= |h_j|) and the box |x_j| <= (T' / (d a_j))**(1/b_j).
    A dual h of the first d' coordinates, padded with zeros, is dual in d
    coordinates, so the start is the largest floor of vol(C) / 2**d' over
    d' <= d, with C in the first d' coordinates, taken under
    ``MINKOWSKI_MARGIN``; it does not decrease in d.
    Every N up to it is infeasible for every rank-1 rule.  The volumes are
    compared in log space; past 2**62 the float('inf') sentinel returns.
    """
    _check_eps(eps)
    check_dimension(d)
    t_prime = _t_prime(eps, model)
    weights = [(model.a_j(j), model.b_j(j)) for j in range(1, d + 1)]

    def log_volume(k: int) -> float:
        """log vol(C) / 2**k in the first k coordinates."""
        log_body = log_region_volume(t_prime, [(a, max(b, 1.0)) for a, b in weights[:k]])
        log_box = math.fsum(math.log(2.0) + math.log(t_prime / (k * a)) / b for a, b in weights[:k])
        return max(log_body, log_box) - k * math.log(2.0)

    log_start = max(map(log_volume, range(1, d + 1))) + math.log1p(-MINKOWSKI_MARGIN)
    return math.inf if log_start > _OVERFLOW_LOG else math.floor(math.exp(log_start))


def empirical_info_complexity(
    eps_list: list[float],
    d: int,
    model: WeightModel,
    tol: float = DEFAULT_TOL,
) -> list[int]:
    """Smallest prime N whose best Korobov rule reaches error <= eps, for
    each eps of ``eps_list`` in input order.

    One scan over the primes in increasing order answers every eps, and
    evaluates each prime at most once.  It skips the moduli up to
    :func:`minkowski_start`, which are infeasible for every rank-1 rule,
    not only for Korobov rules: the scan starts above the start of the
    largest eps still pending, and after answering one eps jumps to the
    later of the next prime and the first prime above the start of the
    next.  A prime is tested only against the eps whose start lies below
    it.  The returned moduli are the true minima over all primes below the
    first feasible ones (the error is not guaranteed monotone along primes,
    which rules out plain bisection).  The restriction to Korobov rules
    makes each an upper bound on the true information complexity.  A start
    above ``SCAN_N_CAP`` raises :class:`CapExceededError` before any
    search, and so does a scan that passes the cap without answering every
    eps.

    Every prime takes one path.  It is sieved (``wce.korobov_survivors``)
    at T'(1 - ``MINKOWSKI_MARGIN``), with T' of the largest pending eps,
    the exponent that the Minkowski start reads too: a generator with a
    nonzero dual h of E(h) at most that has e^2 > eps^2 for every pending
    eps.  A prime with no survivor is infeasible for all of them and is
    skipped before any theta table is built.  Otherwise the least e^2 of
    ``search.family_errors`` at ``members=survivors`` decides it: the
    sieve returns one g per distinct surviving rule.  A sieve walk over
    the enumeration cap raises
    :class:`OracleInfeasibleError` naming the prime and eps.

    Feasibility is decided on the certified interval value +- band of that
    least e^2 (``ErrorEstimate.band``, the tie band of the search): eps^2
    above the interval is feasible, below it infeasible, and an interval
    that straddles eps^2 raises :class:`CertificateError` naming the
    prime, the interval and eps.
    """
    start = {eps: minkowski_start(eps, d, model) for eps in eps_list}
    if (top := max(start.values(), default=0)) > SCAN_N_CAP:
        raise CapExceededError(f"Minkowski start {top} lies above the cap {SCAN_N_CAP}")
    pending = sorted(start)
    found: dict[float, int] = {}
    n = 1
    while pending:
        n = next_prime(max(n, start[pending[-1]]) + 1)
        if n > SCAN_N_CAP:
            raise CapExceededError(f"no feasible prime modulus below the cap {SCAN_N_CAP}")
        t_cut = _t_prime(pending[-1], model) * (1.0 - MINKOWSKI_MARGIN)
        try:
            survivors = korobov_survivors(n, d, model, t_cut)
        except OracleInfeasibleError as exc:
            raise OracleInfeasibleError(f"prime {n}, eps = {pending[-1]:.6g}: sieve {exc}") from exc
        if not survivors.size:
            continue
        e2, bound = family_errors(n, d, model, tol, members=survivors)
        best = ErrorEstimate(float(e2.min()), bound, "theta_product")
        lo, hi = best.value - best.band, best.value + best.band
        while pending and start[pending[-1]] < n and pending[-1] ** 2 >= lo:
            if pending[-1] ** 2 <= hi:
                raise CertificateError(
                    f"prime {n}: certified e2 interval [{lo:.6g}, {hi:.6g}] straddles "
                    f"eps^2 = {pending[-1] ** 2:.6g} (eps = {pending[-1]:.6g})"
                )
            found[pending.pop()] = n
    return [found[eps] for eps in eps_list]
