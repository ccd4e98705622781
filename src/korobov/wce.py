"""Worst-case integration error of lattice rules, three independent ways.

For a rule with prime modulus N and generating vector g, the squared
worst-case error over the unit ball of the space equals the Fourier mass of
the dual lattice,

    e^2 = sum over nonzero h with h . g == 0 (mod N) of rho(h),

which by character orthogonality also equals

    e^2 = -1 + (1/N) * sum_k prod_j theta_j({k g_j / N})        (theta product)
        = -1 + (1/N^2) * sum_{k,l} K(x_k, x_l)                  (kernel double sum).

``wce2_theta_product`` is the O(N d) workhorse, and ``ThetaTable`` the
table of theta values that the searches of ``search`` evaluate whole
families on; ``wce2_dual_enum`` and ``wce2_kernel_double_sum`` are
slower oracles used for cross-validation.  The table's rows come from
``space.theta_rows``: a row with b_j = 1 is the Poisson kernel in closed
form, with no truncation, no series and no FFT.  One prefix walk, numpy
blocks of (h, E(h)) over the coordinates other than a solved one c that
depend on no generating vector, serves three callers, each forming its
own residues -h . g mod N: ``wce2_dual_enum`` (sum of rho, each prefix
completed in coordinate c by one gather), ``dominant_dual_frequency``
(heaviest dual frequency) and ``korobov_survivors``, the Korobov sieve
of the prime scans, which walks coordinates 2..d once for every g <= N/2
of a family and keeps the g with mu(g) > T, mu(g) the least E(h) over
nonzero dual h: one generator per distinct surviving rule.
The double sum forms all N^2 pair products, each row of pairs a window of
one difference table per coordinate, from factors summed term by term off
one table of N cosines at exact residues: no fold, no FFT.  Every
evaluator reports its certified truncation bound alongside the value, at
most the requested tolerance; the table takes its certificate from
``space.theta_rows``, which gives the truncated (b_j != 1) rows a share
of it, and the double sum takes a series for every coordinate, and that
bound, from ``space.theta_factors``; the dual sum's cut reads only the
majorants ``space.theta_majorant``.
``ErrorEstimate.band`` adds ``TIE_SLACK`` to the bound.  Each memo keeps
one entry, the latest key, which is all its callers re-read: a scan that
calls the dual sum at every prime builds its theta_j(0) majorants once.

Below the public entry points every function takes a space and a
tolerance only.  The lambda-scaled dual sum of the averaging bounds, with
mass rho(h)**lam, is the dual sum of the same space at base omega**lam, so
the entry points that take ``lam`` pass ``model.scaled(lam)`` on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CapExceededError, OracleInfeasibleError
from .lattice import LatticeRule, check_dimension, check_modulus, korobov_vectors
from .space import (
    CHUNK_CELLS,
    DEFAULT_TOL,
    WeightModel,
    fold_terms,
    log_region_volume,
    pow_or_inf,
    theta_factors,
    theta_majorant,
    theta_rows,
    theta_terms,
)

# Work budget of the dual engine: prefix cells built at every level plus the
# frequencies folded into the solved coordinate's residue table.
ENUM_CAP = 10**8

# Cells per block of the dual engine, about 0.5 MB of temporaries at d = 4:
# 2**16-cell blocks raised a process's peak memory by 5 MB, no faster.
BLOCK_CELLS = CHUNK_CELLS // 16

# Cells per block of the Korobov sieve, prefixes times live generators: with
# a quarter of CHUNK_CELLS the sieve's temporaries stay in L2, and on the
# linear model at eps = 1e-8, d = 3 (135 primes from 4421) it ran in about
# half the time of BLOCK_CELLS blocks on a 2-vCPU Xeon.
SIEVE_CELLS = CHUNK_CELLS // 4

# Work cap of the kernel double sum, on its N^2 pairs and on its N * sum_j H_j
# factor cells, each checked before its loop; both loops run in blocks.
DOUBLE_SUM_WORK_CAP = 10**8

# Cell cap N * d of a theta table: 80 MB of float64 rows; a row's build
# allocates a few temporaries of its size.
THETA_TABLE_CELL_CAP = 10**7

# Stands in for a rounding bound, which no certificate covers yet.
TIE_SLACK = 1e-13


@dataclass(frozen=True)
class ErrorEstimate:
    """Squared worst-case error with its certified truncation bound."""

    value: float
    trunc_bound: float
    method: str

    @property
    def e(self) -> float:
        """Worst-case error, reported as sqrt(max(value, 0))."""
        return math.sqrt(max(self.value, 0.0))

    @property
    def band(self) -> float:
        """Half-width of value +- band, read by every e^2 comparison."""
        return self.trunc_bound + TIE_SLACK

    @property
    def zero_indistinguishable(self) -> bool:
        """True when the value is below its own band."""
        return self.value < self.band

    def to_dict(self) -> dict:
        return {
            "e2": self.value,
            "e": self.e,
            "trunc_bound": self.trunc_bound,
            "method": self.method,
        }


# ---------------------------------------------------------------------------
# Theta tables: per-coordinate values at the N fractions r/N
# ---------------------------------------------------------------------------

class ThetaTable:
    """Per-coordinate theta values at t = r/N for r = 0..N-1.

    The rows and their product certificate ``product_bound`` come from
    ``space.theta_rows``: a row with b_j = 1 is the Poisson kernel in
    closed form, every other row a truncated series put through one FFT of
    length N.  ``product_bound`` holds for every k and is 0 when every
    b_j = 1.  N * d is checked against ``THETA_TABLE_CELL_CAP`` before any
    allocation.  Read-only after construction, hence safe to share across
    workers.
    """

    def __init__(self, model: WeightModel, n: int, d: int, tol: float):
        if n * d > THETA_TABLE_CELL_CAP:
            raise CapExceededError(
                f"theta table needs {n * d} cells, cap is {THETA_TABLE_CELL_CAP}"
            )
        self.n = n
        self.d = d
        self.values, self.product_bound = theta_rows(model, n, d, tol)

    def eval_vectors(self, vectors: np.ndarray) -> np.ndarray:
        """Squared errors for a block of generating vectors, shape (m, d).

        Vectorized form of -1 + (1/N) sum_k prod_j theta_j({k g_j / N}).
        """
        n = self.n
        k = np.arange(n, dtype=np.int64)[None, :]
        acc = np.ones((vectors.shape[0], n), dtype=np.float64)
        for j in range(self.d):
            residues = vectors[:, j : j + 1] * k % n
            acc *= self.values[j][residues]
        return acc.mean(axis=1) - 1.0


@lru_cache(maxsize=1)
def theta_table(model: WeightModel, n: int, d: int, tol: float) -> ThetaTable:
    """Memoized table build; a call with the inputs of the last shares its
    read-only table."""
    return ThetaTable(model, n, d, tol)


def wce2_theta_product(
    rule: LatticeRule,
    model: WeightModel,
    lam: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> ErrorEstimate:
    """Squared worst-case error via the length-N character sum.

    With ``lam`` < 1 it evaluates the space at base omega**lam, whose dual
    sum is the Jensen-dominating sum of rho**lam used by the averaging bounds.
    """
    table = theta_table(model.scaled(lam), rule.n, rule.d, tol)
    vec = np.asarray(rule.g, dtype=np.int64)[None, :]
    value = float(table.eval_vectors(vec)[0])
    return ErrorEstimate(value=value, trunc_bound=table.product_bound, method="theta_product")


# ---------------------------------------------------------------------------
# Dual-lattice enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _enum_cut(model: WeightModel, d: int, tol: float) -> tuple[float, float]:
    """Region threshold T of the dual sum at tolerance ``tol``, with its tail
    certificate; memoised.

    T makes the mass outside {h : sum_j a_j*|h_j|**b_j <= T}, bounded by
    omega**(T/2) * prod_j theta_j(0) in the space at base omega**(1/2)
    (Rankin's trick), fall below ``tol``; T is at least a_1, so |h| = 1 is
    in range.  Each theta_j(0) is majorised by ``theta_majorant`` of one
    ``theta_terms`` row at min(tol, 1e-6).  T is solved in floating point
    and then stepped up an ulp at a time until the certificate as evaluated
    is at most ``tol``.
    """
    half, row_tol = model.scaled(0.5), min(tol, 1e-6)
    half_prod = math.prod(theta_majorant(*theta_terms(j, half, row_tol)) for j in range(1, d + 1))
    t_cut = 2.0 * math.log(half_prod / tol) / model.rate
    t_cut = max(t_cut, model.a_j(1))
    while (tail := model.omega ** (t_cut / 2.0) * half_prod) > tol:
        t_cut = math.nextafter(t_cut, math.inf)
    return t_cut, tail


def _weights(model: WeightModel, d: int) -> list[tuple[float, float]]:
    """(a_j, b_j) of the coordinates j = 1..d."""
    return [(model.a_j(j), model.b_j(j)) for j in range(1, d + 1)]


def _enum_plan(rule: LatticeRule, model: WeightModel, t_cut: float):
    """``(weights, limits, c, g, modulus, fold, est)`` for the dual h with
    E(h) = sum_j a_j*|h_j|**b_j <= t_cut, limits[j] = H_j the range of h_j.

    c is the widest coordinate with g_c != 0 mod N; g times g_c**-1 (the same
    dual lattice) has g_c = 1.  If every g_j == 0, all of Z^d is dual: the
    lattice of modulus 1.  ``fold`` = 2 H_c + 1 folded frequencies when the
    modulus is at most that, else 0; ``est`` adds the prefix region's volume.
    """
    n, d = rule.n, rule.d
    weights = _weights(model, d)
    limits = [int((t_cut / a) ** (1.0 / b)) for a, b in weights]
    c = max([j for j in range(d) if rule.g[j] % n] or range(d), key=limits.__getitem__)
    modulus = n if rule.g[c] % n else 1
    g = np.array([gj * pow(rule.g[c], -1, modulus) % modulus for gj in rule.g], dtype=np.int64)
    fold = 2 * limits[c] + 1 if modulus <= 2 * limits[c] + 1 else 0
    est = math.exp(log_region_volume(t_cut, weights[:c] + weights[c + 1 :])) + fold
    return weights, limits, c, g, modulus, fold, est


def dual_enum_work_estimate(
    rule: LatticeRule,
    model: WeightModel,
    lam: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> float:
    """Estimated work of :func:`wce2_dual_enum` at this tolerance: prefix
    cells plus folded frequencies, the count ``ENUM_CAP`` bounds."""
    model = model.scaled(lam)
    t_cut, _ = _enum_cut(model, rule.d, tol)
    return _enum_plan(rule, model, t_cut)[-1]


def _dual_walk(t_cut: float, weights: list[tuple[float, float]], c: int, done: int, est: float):
    """Blocks ``(h, E(h))`` of {h : h_c = 0, E(h) <= t_cut}, h of shape
    (m, d), E(h) = sum_j a_j*|h_j|**b_j for ``weights`` = [(a_j, b_j)].

    The walk reads no generating vector, so one walk serves one rule and a
    whole family; its callers form the residues (:func:`_residues`).  The
    region grows a coordinate at a time, narrowest first, in blocks of at
    most ``BLOCK_CELLS`` cells per level.  The ``done`` cells of the
    caller (its folded frequencies) and each block count against
    ``ENUM_CAP`` before allocation; :class:`OracleInfeasibleError` when the
    count exceeds it or the estimate ``est`` exceeds 4 * ENUM_CAP.
    """
    work = 0
    if est > 4.0 * ENUM_CAP:
        raise OracleInfeasibleError(f"estimated enumeration work {est:.3g} exceeds the cap {ENUM_CAP}")

    def count(cells: int) -> None:
        nonlocal work
        work += cells
        if work > ENUM_CAP:
            raise OracleInfeasibleError(f"enumeration work exceeded the cap {ENUM_CAP}")

    def expand(parents, j: int):
        a, b = weights[j]
        for h, expo in parents:
            # clipped at 0: E(h) may round a few ulps above t_cut
            half = np.floor((np.maximum(t_cut - expo, 0.0) / a) ** (1.0 / b)).astype(np.int64)
            ends = np.cumsum(2 * half + 1)
            offset = ends - half - 1  # flat index of h_j = 0 under each parent
            for lo in range(0, int(ends[-1]), BLOCK_CELLS):
                hi = min(lo + BLOCK_CELLS, int(ends[-1]))
                count(hi - lo)
                first, last = np.searchsorted(ends, [lo, hi - 1], side="right")
                inside = np.minimum(ends[first : last + 1], hi) - lo
                parent = np.repeat(np.arange(first, last + 1), np.diff(inside, prepend=0))
                hj = np.arange(lo, hi, dtype=np.int64) - np.take(offset, parent)
                child = np.take(h, parent, axis=0)
                child[:, j] = hj
                yield child, np.take(expo, parent) + a * np.abs(hj).astype(np.float64) ** b

    count(done)
    limits = [int((t_cut / a) ** (1.0 / b)) for a, b in weights]
    blocks = iter([(np.zeros((1, len(weights)), dtype=np.int64), np.zeros(1))])
    for j in sorted((j for j in range(len(weights)) if j != c), key=limits.__getitem__):
        blocks = expand(blocks, j)
    return blocks


def _residues(h: np.ndarray, g: np.ndarray, modulus: int, reach: int, shift=0) -> np.ndarray:
    """(shift - h . g) mod ``modulus`` for the rows of h, shape (m, k), with
    |h_j| <= ``reach``, and g of shape (k,) or (k, A) with entries in
    [0, modulus); 0 <= shift <= modulus.  With shift = 0 it is the residue
    class that a dual completion h_c of each row must lie in.

    Where k * reach * modulus < 2**62 no product or partial sum can
    overflow int64, and h . g is one matrix product reduced once (an int64
    modulo costs several times a product).  Otherwise each h_j is reduced
    mod ``modulus`` before it multiplies g_j, so every product is below
    2**62, and the sum is reduced after each term.
    """
    if h.shape[1] * reach * modulus < 2**62:
        return (shift - h @ g) % modulus
    acc = shift
    for j in range(h.shape[1]):
        acc = (acc - np.multiply.outer(h[:, j] % modulus, g[j])) % modulus
    return acc


def wce2_dual_enum(
    rule: LatticeRule,
    model: WeightModel,
    lam: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> ErrorEstimate:
    """Squared worst-case error by summing rho over the dual lattice.

    Sums rho, in the space at base omega**lam, over the nonzero dual h of a
    superset of {E(h) <= T}, the region of ``_enum_cut``, so the omitted
    mass is certified below ``tol``.  Terms are positive and h = 0 is left
    out, not subtracted, so errors far below the character sum's noise floor
    come out as themselves.  Each prefix of the walk is completed in
    coordinate c by one gather: from F_c[r] = sum_{|h| <= H_c, h == r}
    rho_c(h), or, when the modulus exceeds 2 H_c + 1, from the 2 H_c + 2
    entries rho_c(-H_c .. H_c) and 0, at the residue shifted by H_c and
    clipped; h_c = 0 is dropped for the zero prefix alone.  Nothing of
    length N is allocated.
    """
    model = model.scaled(lam)
    t_cut, tail_bound = _enum_cut(model, rule.d, tol)
    weights, limits, c, g, modulus, fold, est = _enum_plan(rule, model, t_cut)
    (a_c, b_c), limit = weights[c], limits[c]
    prefixes = _dual_walk(t_cut, weights, c, fold, est)
    if fold:
        step = modulus * max(1, BLOCK_CELLS // modulus)
        table = np.zeros(modulus)
        for lo in range(1, limit + 1, step):
            hs = np.arange(lo, min(lo + step, limit + 1), dtype=np.float64)
            table += fold_terms(np.exp(-model.rate * a_c * hs**b_c), modulus)
        table += table[-np.arange(modulus) % modulus]
        masses, zero_mass, shift = table.copy(), table[0], 0
        masses[0] += 1.0
    else:
        reps = np.abs(np.arange(-limit, limit + 1, dtype=np.int64))
        masses, zero_mass, shift = np.append(np.exp(-model.rate * a_c * reps**b_c), 0.0), 0.0, limit
    sums, zero_pending = [], True
    for h, expo in prefixes:
        index = _residues(h, g, modulus, max(limits), shift)
        if not fold:
            np.minimum(index, 2 * limit + 1, out=index)
        mass = masses[index]
        if zero_pending and (zero := np.flatnonzero(expo == 0.0)).size:
            mass[zero] = zero_mass
            zero_pending = False
        # a pairwise sum, not a BLAS dot, whose parallel workers stall on a busy core
        sums.append(float((np.exp(-model.rate * expo) * mass).sum()))
    return ErrorEstimate(math.fsum(sums), tail_bound, "dual_enum")


def dominant_dual_frequency(rule: LatticeRule, model: WeightModel) -> tuple[int, ...]:
    """Nonzero dual frequency with maximal rho, ties to the lexicographically
    smallest vector.

    The maximizer h* has E(h*) at most the least E of the dual vectors known
    in closed form: N * e_j, and e_j - r * e_i with r = g_j * g_i**-1 mod N
    for every g_i != 0, at the smaller of |r| and |r - N|.  The walk covers
    {E(h) <= that least E + 1} (the + 1 absorbs rounding).
    """
    n, weights = rule.n, _weights(model, rule.d)
    known = [a * pow_or_inf(float(n), b) for a, b in weights]
    for (j, (a_j, _)), (i, (a_i, b_i)) in itertools.permutations(enumerate(weights), 2):
        if rule.g[i]:
            r = rule.g[j] * pow(rule.g[i], -1, n) % n
            known.append(a_j + a_i * pow_or_inf(float(min(r, n - r)), b_i))
    return _dominant_within(rule, model, min(known) + 1.0)


def _dominant_within(rule: LatticeRule, model: WeightModel, t_cut: float) -> tuple[int, ...]:
    """The maximizer of :func:`dominant_dual_frequency` from a walk of
    {E(h) <= t_cut}, which must hold it.  Each prefix takes the smallest
    |h_c| of its residue class, the per-residue minimal exponent.
    Completions within a relative 1e-9 of the least are ranked by
    (``model.exponent(h)``, h), so the walk order does not matter.
    """
    weights, limits, c, g, modulus, fold, est = _enum_plan(rule, model, t_cut)
    a_c, b_c = weights[c]
    near, best = [], math.inf
    for h, expo in _dual_walk(t_cut, weights, c, fold, est):
        resid = _residues(h, g, modulus, max(limits))
        small = np.minimum(resid, modulus - resid)
        small[(resid == 0) & (expo == 0.0)] = modulus  # h = 0 is not a candidate
        total = np.where(small <= limits[c], expo + a_c * small.astype(np.float64) ** b_c, math.inf)
        best = min(best, float(total.min()))
        keep = total <= min(best + 1e-9 * (1.0 + best), t_cut)
        for sign in (1, -1):
            h[:, c] = sign * small
            near += h[keep & ((h[:, c] - resid) % modulus == 0)].tolist()
    return tuple(min(near, key=lambda h: (model.exponent(h), h)))


# ---------------------------------------------------------------------------
# Korobov sieve: mu(g) > T for every g of a family
# ---------------------------------------------------------------------------

def _sieve_walk(model: WeightModel, d: int, t_cut: float):
    """Blocks ``(h_2..h_d, E, H_1)`` of the prefixes of
    :func:`korobov_survivors` in walk order, d >= 2: the rows of
    {E(h) <= t_cut, h_1 = 0} whose first nonzero entry is positive (h and
    -h complete alike, and the zero prefix goes), with H_1 the largest
    |h_1| that keeps E(h) <= t_cut, clipped at 2**40."""
    weights = _weights(model, d)
    a, b = weights[0]
    for h, expo in _dual_walk(t_cut, weights, 0, 0, _sieve_estimate(weights, t_cut)):
        h = h[:, 1:]
        keep = h[np.arange(len(h)), (h != 0).argmax(axis=1)] > 0
        room = np.minimum((np.maximum(t_cut - expo[keep], 0.0) / a) ** (1.0 / b), 2.0**40)
        yield h[keep], expo[keep], np.floor(room).astype(np.int64)


def _sieve_estimate(weights: list[tuple[float, float]], t_cut: float) -> float:
    """Volume of the sieve's prefix region, the walk's work estimate."""
    return math.exp(log_region_volume(t_cut, weights[1:]))


@lru_cache(maxsize=1)
def _sieve_rows(model: WeightModel, d: int, t_cut: float):
    """``(h_2..h_d, H_1)`` of every prefix of :func:`_sieve_walk`, read-only
    and in ascending E, or None when the region's estimate exceeds
    ``CHUNK_CELLS`` rows.  Memoised: the rows depend on neither the modulus
    nor the generator."""
    if _sieve_estimate(_weights(model, d), t_cut) > CHUNK_CELLS:
        return None
    h, expo, limit = (np.concatenate(parts) for parts in zip(*_sieve_walk(model, d, t_cut)))
    order = np.argsort(expo, kind="stable")
    h, limit = h[order], limit[order]
    h.flags.writeable = limit.flags.writeable = False  # shared by every caller
    return h, limit


def korobov_survivors(n: int, d: int, model: WeightModel, t_cut: float) -> np.ndarray:
    """Every g <= n / 2, ascending, for which no nonzero dual h of the
    Korobov vector (1, g, ..., g**(d-1)) has E(h) <= ``t_cut``: the g with
    mu(g) > t_cut, where mu(g) is the least E(h) over nonzero dual h.  g
    and n - g give the same rule (negate the even-indexed h_j), so this is
    one generator per distinct surviving rule.

    h = n e_1 is dual to every such vector, so no g survives when
    a_1 n**b_1 <= t_cut.  Otherwise g = 0 alone comes back at d = 1, where
    every g gives (1), and at d >= 2 the sieve walks coordinates 2..d with
    c = 1, since g_1 = 1: a prefix (h_2..h_d) with E <= t_cut completes to a
    dual h with E(h) <= t_cut exactly when |h_1| = min(r, n - r), at
    r = -sum_j h_j g**(j-1) mod n, fits the budget
    a_1 |h_1|**b_1 <= t_cut - E, and each g is dropped at the first
    prefix that does so.  Where the prefix region holds at most
    ``CHUNK_CELLS`` rows the prefixes come in ascending E, so most g go at
    the first few; the rows are memoised, as they depend on neither n nor
    g.  h and -h complete alike, so only prefixes whose first nonzero entry
    is positive are walked.  Each block of prefixes times live generators
    holds at most about ``SIEVE_CELLS`` cells.  E is summed in floating
    point, so a dual h within a few ulps of t_cut may fall on either side;
    the walk counts against ``ENUM_CAP`` and raises
    :class:`OracleInfeasibleError` as :func:`wce2_dual_enum` does.  The
    modulus must pass ``check_modulus`` and d be at least 1.
    """
    check_modulus(n)
    check_dimension(d)
    a_1, b_1 = model.a_j(1), model.b_j(1)
    if a_1 * pow_or_inf(float(n), b_1) <= t_cut:
        return np.empty(0, dtype=np.int64)
    if d == 1:
        return np.zeros(1, dtype=np.int64)
    rows = _sieve_rows(model, d, t_cut)
    blocks = [rows] if rows else ((h, limit) for h, _, limit in _sieve_walk(model, d, t_cut))
    reach = max(int((t_cut / a) ** (1.0 / b)) for a, b in _weights(model, d))
    alive = np.arange(n // 2 + 1, dtype=np.int64)
    powers = korobov_vectors(n, d, alive)[:, 1:].T.copy()  # g**j, one row per j = 1..d-1
    for h, limit in blocks:
        lo = 0
        while lo < len(h) and alive.size:
            hi = lo + max(1, SIEVE_CELLS // alive.size)
            shift = np.minimum(limit[lo:hi], n)[:, None]
            hit = _residues(h[lo:hi], powers, n, reach, shift) <= 2 * shift
            live = ~hit.any(axis=0)
            alive, powers = alive[live], powers[:, live]
            lo = hi
        if not alive.size:
            break
    return alive


# ---------------------------------------------------------------------------
# Kernel double sum
# ---------------------------------------------------------------------------

def wce2_kernel_double_sum(
    rule: LatticeRule,
    model: WeightModel,
    tol: float = DEFAULT_TOL,
) -> ErrorEstimate:
    """Squared worst-case error via -1 + (1/N^2) sum_{k,l} K(x_k, x_l).

    Each coordinate factor is summed term by term at every fraction r/N,
    reading cos(2 pi m/N) from one table of N cosines at the exact residue
    m = h r mod N, whose period of N terms in h is tiled over the series:
    no fold and no FFT, so this path stays structurally distinct from the
    theta-product evaluator.  Row k of the pairs is a window of
    T_j[i] = factor_j((i - N + 1) g_j mod N), i = 0..2N-2, read backwards:
    factor_j((k - l) g_j mod N) over l, with no per-pair modulo.
    Oracle use only: ``DOUBLE_SUM_WORK_CAP`` caps the N^2 pairs and the
    N * sum_j H_j factor cells, and both loops run in ``CHUNK_CELLS``-cell
    blocks.  Each block of pairs starts from a copy of its first window
    and multiplies the others into it in place, so it allocates one array.
    """
    n, d = rule.n, rule.d
    if n * n > DOUBLE_SUM_WORK_CAP:
        raise CapExceededError(f"kernel double sum needs {n * n} pairs, cap is {DOUBLE_SUM_WORK_CAP}")
    terms, bound = theta_factors(model, d, tol)
    if (cells := n * sum(w.size for w in terms)) > DOUBLE_SUM_WORK_CAP:
        raise CapExceededError(f"kernel double sum needs {cells} factor cells, cap is {DOUBLE_SUM_WORK_CAP}")
    cosines = np.cos(2.0 * math.pi / n * np.arange(n, dtype=np.int64))
    windows = []
    for w, g in zip(terms, rule.g):
        # exact residues, as cos(2*pi*h*r/N) loses precision for large h*r;
        # h r mod N has period N in h: each row r is one period, tiled
        period = np.arange(1, min(n, w.size) + 1, dtype=np.int64)
        vals = np.empty(n, dtype=np.float64)
        r_chunk = max(1, CHUNK_CELLS // w.size)
        for start in range(0, n, r_chunk):
            r = np.arange(start, min(start + r_chunk, n), dtype=np.int64)
            cos_hr = np.tile(cosines[r[:, None] * period % n], math.ceil(w.size / period.size))[:, : w.size]
            vals[start : start + r.size] = 1.0 + 2.0 * np.sum(cos_hr * w, axis=1)
        windows.append(sliding_window_view(vals[np.arange(1 - n, n, dtype=np.int64) * g % n], n)[:, ::-1])
    total = 0.0
    chunk = max(1, CHUNK_CELLS // n)
    for start in range(0, n, chunk):
        acc = windows[0][start : start + chunk].copy()
        for window in windows[1:]:
            acc *= window[start : start + chunk]
        total += float(np.sum(acc))
    return ErrorEstimate(total / float(n) ** 2 - 1.0, bound, "kernel_double_sum")
