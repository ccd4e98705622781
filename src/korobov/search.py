"""Exhaustive generating-vector searches and family averages.

This module owns the families: their names (``FAMILIES``, which the
CLI reads, and ``check_family``, the one check of a family or variant
name, which the bounds call) and the layout of the general family, whose
index i is the vector ``general_vectors(n, d, i)`` in C order.  Every
family is evaluated here by ``family_errors``, whole or at a list of
member indices (such as the sieve survivors of a prime scan, one g per
distinct rule): Korobov generators by ``_eval_korobov`` on a
primitive-root-permuted theta table, at d = 2 as one FFT cross-correlation
in O(N log N), whose rounding bound its docstring states, and for d >= 3
in O(N^2 d / 4) as products of windows over tiles of the table, in chunks
of rows that depend on N and d over ``threads`` workers, and the vectors
of a tiny general instance by ``ThetaTable.eval_vectors``, in chunks over
``threads`` workers.  Both searches
select the lambda = 1 error minimizer on one path: members within
``ErrorEstimate.band`` of the minimum tie, and the first in enumeration
order (smallest scalar / lexicographically smallest vector) wins, so
results do not depend on chunking or thread count.
Korobov generators g and N - g give the same rule up to a reflection and
get bitwise equal errors: ``ties`` counts both members of each pair, and
the smaller g wins.  The shared truncation bound of a family is the
product certificate of the theta table, at most the tolerance and 0 when
every b_j = 1.  ``family_errors`` checks its modulus with
``lattice.check_modulus``, like every rule.
Family means of the lambda-scaled dual sums (``mean_pow_error``) average
the errors of the space at base omega**lam.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError
from .lattice import (
    KorobovParam,
    LatticeRule,
    check_dimension,
    check_modulus,
    korobov_vector,
    korobov_vectors,
    primitive_root,
)
from .space import CHUNK_CELLS, DEFAULT_TOL, WeightModel
from .wce import ErrorEstimate, theta_table

GENERAL_SEARCH_CAP = 10**6

FAMILIES = ("general", "korobov")


@dataclass(frozen=True)
class SearchResult:
    """Best rule found, its error estimate, and tie statistics."""

    best_rule: LatticeRule
    best_e2: ErrorEstimate
    evaluated: int
    ties: int

    def to_dict(self) -> dict:
        return {
            "best_rule": self.best_rule.to_dict(),
            "best_e2": self.best_e2.to_dict(),
            "evaluated": self.evaluated,
            "ties": self.ties,
        }


def check_family(family: str) -> None:
    """``ValueError`` naming the family unless it is one of ``FAMILIES``."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")


def general_vectors(n: int, d: int, idx) -> np.ndarray:
    """The general-family members at indices ``idx``: lexicographic
    vectors, g_1 most significant (C order), one row per index, or one
    vector for a scalar index."""
    return np.stack(np.unravel_index(idx, (n,) * d), axis=-1)


def _eval_korobov(table, threads: int = 1, generators=None) -> np.ndarray:
    """Squared errors of the Korobov vectors (1, g, ..., g^(d-1)) for the
    scalar ``generators`` (every g = 0..N-1 when None): O(N log N) at
    d = 2 and O(N^2 d / 4) for d >= 3, for all.

    Rader's reindexing, as in fast CBC: with a primitive root gamma,
    k = gamma^a and g = gamma^b, coordinate j reads theta_j at
    gamma^(a + j b) / N.  theta is even and gamma^m = -1 for
    m = (N-1)/2, so the permuted table T_j[a] = theta_j(gamma^a / N) has
    period m and the k != 0 terms of row b sum to
    2 * sum_{a<m} prod_j T_j[(a + j b) mod m]; g = gamma^b and N - g share
    row b, so they tie exactly.  The whole family is written out through
    the powers gamma^b and N - gamma^b; any other list reads its rows
    through the table ``log`` that maps g to b.  The powers gamma^a are the
    products gamma^(q c) gamma^r of two runs of about sqrt(m) powers.  The
    k = 0 term prod_j theta_j(0) is added separately.  g = 0, the vector
    (1, 0, ..., 0), takes the operations of :meth:`ThetaTable.eval_vectors`
    in their order: theta_1(k/N) times each theta_j(0) in turn, then the
    mean.  d = 1 and N < 5 are evaluated by ``eval_vectors``.

    At d = 2 row b is sum_{a<m} T_0[a] T_1[(a + b) mod m], a cyclic
    cross-correlation: every row comes from irfft(conj(rfft(T_0)) rfft(T_1))
    in one pass, whichever rows are wanted, so a member list reads the
    rows of the whole family bitwise and ``threads`` has nothing to split.
    Rounding, to first order in u (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., section 24.1): a transform of length L
    whose butterflies round within eta = mu + gamma_4 (sqrt(2) + mu) <= 8u
    (twiddles within mu <= 2u) is off by at most log2(L) eta ||input||_2
    normwise (Theorem 24.2) and, taken stage by stage, by at most
    log2(L) eta ||input||_1 in any one output.  Cauchy-Schwarz carries each
    forward error into a row as log2(L) eta ||T_0||_2 ||T_1||_2, and the
    inverse transform, whose input has ||.||_1 / m <= ||T_0||_2 ||T_1||_2,
    adds a third such share; the products and the 1/m scaling add
    sqrt(2) gamma_2 + u <= 4u times the norm product.  So each row is within
    28 u log2(L) ||T_0||_2 ||T_1||_2 of the exact correlation of the float
    tables.  pocketfft transforms a length m with a large prime factor by
    Bluestein's algorithm, three transforms of length
    L = good_size(2m - 1) < 4m, which triples that factor; the same
    tripled factor covers its generic radix-p passes, direct sums of p
    terms, for the moderate p it takes them for.  Taking L = 4m for every
    plan, each e^2 is within

        2 C u log2(4m) ||T_0||_2 ||T_1||_2 / N + 4u (1 + |e^2|),  C = 84,

    the last term the rounding of k0 and of (k0 + 2 row) / N - 1.

    For d >= 3, row b reads T_j from (s_j b) mod m, s_j = j mod m, so T_j
    is tiled once to 2m + s_j (chunk - 1) cells and viewed as its windows
    by one strided view: a block of consecutive rows reads a strided run of
    them when every row is wanted, and the wanted rows by plain indexing
    otherwise, multiplied in the same order (s_j = 0 reads T_j[:m]).  With
    chunk = CHUNK_CELLS // (m + sum_j s_j), at most the number of rows
    wanted, the tiled tables hold at most N d + CHUNK_CELLS cells.  The
    first product goes into one block buffer that the blocks reuse (a new
    array per block when threads > 1), and the other coordinates multiply
    into it in place.  Each row is reduced on its own, so a row's value
    depends neither on ``threads`` nor on the other rows wanted.
    """
    n, d = table.n, table.d
    whole = generators is None
    gens = np.arange(n) if whole else np.asarray(generators, dtype=np.int64)
    if d == 1:
        return np.full(gens.size, table.eval_vectors(np.ones((1, 1), dtype=np.int64))[0])
    if n < 5:
        return table.eval_vectors(korobov_vectors(n, d, gens))
    m = (n - 1) // 2
    # gamma^(q c + r) = (gamma^c)^q gamma^r: two runs of about sqrt(m) powers
    gamma, c = primitive_root(n), math.isqrt(m - 1) + 1  # c * c >= m
    runs = [
        np.fromiter(itertools.accumulate(range(size - 1), lambda x, _: x * base % n, initial=1), np.int64, size)
        for base, size in ((pow(gamma, c, n), -(-m // c)), (gamma, c))
    ]
    powers = (np.multiply.outer(*runs) % n).ravel()[:m]
    if whole:
        rows, zero = np.arange(m), True
    else:
        log = np.full(n, m)  # g = 0 reads slot m, after the m rows
        log[powers] = log[n - powers] = np.arange(m)
        wanted = np.zeros(m + 1, dtype=bool)
        wanted[log[gens]] = True
        rows, zero = np.flatnonzero(wanted[:m]), wanted[m]
    if d == 2:  # one pass computes every row, whichever are wanted
        rows = np.arange(m)
        spectra = [np.fft.rfft(vals[powers]) for vals in table.values]
        sums = np.fft.irfft(spectra[0].conj() * spectra[1], m)
    else:
        sums = _window_sums(table, powers, rows, whole, threads)
    half = np.empty(m + 1)
    half[rows] = (math.prod(vals[0] for vals in table.values) + 2.0 * sums) / n - 1.0
    if zero:
        acc = table.values[0].copy()
        for vals in table.values[1:]:
            acc *= vals[0]
        half[m] = acc.mean() - 1.0
    if not whole:
        return half[log[gens]]
    e2 = np.empty(n)
    e2[0], e2[powers], e2[n - powers] = half[m], half[:m], half[:m]
    return e2


def _window_sums(table, powers: np.ndarray, rows: np.ndarray, whole: bool, threads: int) -> np.ndarray:
    """The sums sum_{a<m} prod_j T_j[(a + j b) mod m] of the rows b in
    ``rows`` (every row when ``whole``) of ``_eval_korobov`` for d >= 3:
    products of windows of the tiled tables, in blocks over ``threads``
    workers."""
    if not rows.size:
        return np.empty(0)
    m = powers.size
    steps = [j % m for j in range(table.d)]
    chunk = max(1, min(rows.size, CHUNK_CELLS // (m + sum(steps))))
    # row b of a block starting at lo reads T_j from (s_j lo) mod m +
    # s_j (b - lo): a strided run of the windows of T_j tiled to cover it
    tiled = np.resize(powers, 2 * m + max(steps) * (chunk - 1))
    windows = []
    for vals, s in zip(table.values, steps):
        tile = vals[tiled[: 2 * m + s * (chunk - 1)]]
        # the windows tile[i : i + m] as rows of one strided view
        windows.append(np.ndarray((tile.size - m + 1, m), tile.dtype, tile, 0, tile.strides * 2))
    # one block buffer, reused when the blocks run one after another
    buffer = np.empty((chunk, m)) if threads == 1 else None

    def factor(j: int, lo: int, hi: int) -> np.ndarray:
        s = steps[j]
        if not s:
            return windows[j][0]
        return windows[j][s * lo % m :: s][: hi - lo] if whole else windows[j][s * rows[lo:hi] % m]

    def block(lo: int, hi: int) -> np.ndarray:
        out = None if buffer is None else buffer[: hi - lo]
        acc = np.multiply(factor(1, lo, hi), factor(0, lo, hi), out=out)
        for j in range(2, table.d):
            acc *= factor(j, lo, hi)
        return acc.sum(axis=1)

    return _map_chunks(block, rows.size, chunk, threads)


def _map_chunks(fn, count: int, chunk: int, threads: int) -> np.ndarray:
    """Concatenation of fn(lo, hi) over consecutive chunks of range(count),
    spread over ``threads`` pool workers when threads > 1."""
    spans = [(lo, min(lo + chunk, count)) for lo in range(0, count, chunk)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda span: fn(*span), spans))
    else:
        parts = [fn(lo, hi) for lo, hi in spans]
    return np.concatenate(parts)


def _eval_all(table, threads: int, members=None) -> np.ndarray:
    """Errors of the general vectors at indices ``members``, all N^d when None."""
    n, d = table.n, table.d
    count = n**d if members is None else len(members)

    def run(lo: int, hi: int) -> np.ndarray:
        idx = np.arange(lo, hi) if members is None else members[lo:hi]
        return table.eval_vectors(general_vectors(n, d, idx))

    return _map_chunks(run, count, max(1, CHUNK_CELLS // n), threads)


def family_errors(
    n: int,
    d: int,
    model: WeightModel,
    tol: float = DEFAULT_TOL,
    family: str = "korobov",
    threads: int = 1,
    members=None,
) -> tuple[np.ndarray, float]:
    """Squared errors of the members at indices ``members`` into the
    family's enumeration order (scalar g, or lexicographic vectors), of
    all in that order when None, with their shared truncation bound.  The
    modulus must pass ``check_modulus``, d and ``threads`` be at least 1."""
    check_modulus(n)
    check_dimension(d)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    check_family(family)
    if family == "general" and n**d > GENERAL_SEARCH_CAP:
        raise CapExceededError(f"general search space {n**d} exceeds cap {GENERAL_SEARCH_CAP}")
    table = theta_table(model, n, d, tol)
    e2 = (_eval_korobov if family == "korobov" else _eval_all)(table, threads, members)
    return e2, table.product_bound


def _select(n: int, d: int, model: WeightModel, tol: float, family: str, threads: int) -> SearchResult:
    """Evaluate the family and select its first member within the band of
    the minimum; ``ties`` counts the members within it."""
    e2, bound = family_errors(n, d, model, tol, family, threads)
    low = ErrorEstimate(float(np.min(e2)), bound, "theta_product")
    tied = np.flatnonzero(e2 <= low.value + low.band)
    best = int(tied[0])
    if family == "korobov":
        rule = korobov_vector(KorobovParam(n=n, g=best, d=d))
    else:
        rule = LatticeRule(n=n, g=general_vectors(n, d, best))
    best_e2 = ErrorEstimate(float(e2[best]), bound, "theta_product")
    return SearchResult(rule, best_e2, evaluated=e2.size, ties=int(tied.size))


def search_korobov(
    n: int,
    d: int,
    model: WeightModel,
    tol: float = DEFAULT_TOL,
    threads: int = 1,
) -> SearchResult:
    """Evaluate every scalar generator g in {0, ..., n-1} and minimize.

    g = 0 participates like any other candidate.  For d = 1 every scalar
    expands to the vector (1), so all candidates tie and g = 0 wins.
    """
    return _select(n, d, model, tol, "korobov", threads)


def search_general(
    n: int,
    d: int,
    model: WeightModel,
    tol: float = DEFAULT_TOL,
    threads: int = 1,
) -> SearchResult:
    """Exhaustive search over all of {0, ..., n-1}^d (tiny instances only)."""
    return _select(n, d, model, tol, "general", threads)


def mean_pow_error(
    n: int,
    d: int,
    lam: float,
    model: WeightModel,
    tol: float = DEFAULT_TOL,
    family: str = "korobov",
) -> float:
    """Exact empirical mean over the family of the lambda-scaled dual sums.

    The averaged quantity is the dual-lattice sum of the space at base
    omega**lam (the Jensen majorant of e^(2*lam)), not (e^2)**lam.
    """
    return float(np.mean(family_errors(n, d, model.scaled(lam), tol, family, 1)[0]))
