"""Exhaustive generating-vector searches and family averages.

This module owns the families: their names (``FAMILIES``, which the
CLI reads, and ``check_family``, the one check of a family or variant
name, which the bounds call) and the layout of the general family, whose
index i is the vector ``general_vectors(n, d, i)`` in C order.  Every
family is evaluated here by ``family_errors``, whole or at a list of
member indices (such as the sieve survivors of a prime scan, one g per
distinct rule): Korobov generators by ``_eval_korobov`` on a
primitive-root-permuted theta table on one thread, at d = 2 as one FFT
cross-correlation of centred tables in O(N log N), whose rounding bound
its docstring states, and for d >= 3 in O(N^2 d / 4) as products of
windows over tiles of the table, and the vectors of a tiny general
instance by ``ThetaTable.eval_vectors``, in blocks split over at most
``threads`` worker threads.  Both searches select the lambda = 1 error
minimizer on one path: members within ``ErrorEstimate.band`` of the
minimum tie, and the first in enumeration order (smallest scalar /
lexicographically smallest vector) wins, so results do not depend on
blocking or thread count.
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


def check_threads(threads: int) -> None:
    """``ValueError`` naming the count unless at least one thread."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


def general_vectors(n: int, d: int, idx) -> np.ndarray:
    """The general-family members at indices ``idx``: lexicographic
    vectors, g_1 most significant (C order), one row per index, or one
    vector for a scalar index."""
    return np.stack(np.unravel_index(idx, (n,) * d), axis=-1)


def _eval_korobov(table, generators=None) -> np.ndarray:
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
    k = 0 term k0 = prod_j theta_j(0) is added separately.  g = 0, the
    vector (1, 0, ..., 0), d = 1 and N < 5 are evaluated by
    :meth:`ThetaTable.eval_vectors`.

    At d = 2 row b is sum_{a<m} T_0[a] T_1[(a + b) mod m], a cyclic
    cross-correlation, taken of the centred tables: with P_j = T_j - 1,
    delta_j = mean(P_j), mu_j = 1 + delta_j and t_j = P_j - delta_j, row b
    less m is m (delta_0 + delta_1 + delta_0 delta_1) plus the correlation
    of t_0 and t_1, one pass irfft(conj(rfft(t_0)) rfft(t_1)) for every
    row, whichever rows are wanted (a member list reads the rows of the
    whole family bitwise).  e^2 = (k0 - 1 + 2 (row - m)) / N cancels no
    term near 1, so an e^2 far below u keeps its digits.
    Rounding, to first order in u (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., sections 4.2 and 24.1): a transform of
    length L whose butterflies round within eta = mu + gamma_4 (sqrt(2) + mu)
    <= 8u (twiddles within mu <= 2u) is off by at most log2(L) eta times
    ||input||_2 normwise (Theorem 24.2) and ||input||_1 in any one output.
    By Cauchy-Schwarz the two forward transforms, the inverse one (whose
    input has ||.||_1 / m <= ||t_0||_2 ||t_1||_2) and the products and 1/m
    scaling (at most 4u) leave each correlation within
    28 u log2(L) ||t_0||_2 ||t_1||_2 of the exact one.  pocketfft's
    Bluestein plans (three transforms of length L = good_size(2m - 1) < 4m)
    and generic radix-p passes triple that: C = 84.  The subtractions round
    an entry within u |P_j| + u |t_j|, a row within 4u ||P_0||_2 ||P_1||_2.
    numpy sums pairwise over blocks of at most 128 terms, each in 8
    interleaved runs, so the exact sum of t_j is at most gamma_p ||P_j||_1,
    p = ceil(log2 m) + 21, which a row takes times |mu_(1-j)|.  The rest
    rounds within 3u (|e^2| + k0 / N + |delta_0| + |delta_1| +
    |delta_0 delta_1|).  So with L = 4m each e^2 with g != 0 is within

        [2 C u log2(4m) ||t_0||_2 ||t_1||_2 + 8u ||P_0||_2 ||P_1||_2
         + 2 gamma_p (|mu_1| ||P_0||_1 + |mu_0| ||P_1||_1) + 3u k0] / N
        + 3u (|e^2| + |delta_0| + |delta_1| + |delta_0 delta_1|)

    of the exact character sum of the float tables; uncentred, the first
    term took ||T_0||_2 ||T_1||_2, about N / 2 for tables near 1.

    For d >= 3, row b reads T_j from (s_j b) mod m, s_j = j mod m, so T_j
    is tiled once to 2m + s_j (chunk - 1) cells and viewed as its windows
    by one strided view: a block of consecutive rows reads a strided run of
    them when every row is wanted, and the wanted rows by plain indexing
    otherwise, multiplied in the same order (s_j = 0 reads T_j[:m]).  With
    chunk = CHUNK_CELLS // (m + sum_j s_j), at most the number of rows
    wanted, the tiled tables hold at most N d + CHUNK_CELLS cells.  The
    blocks run in turn on one thread: the first product goes into one
    buffer that every block reuses, the other coordinates multiply into it
    in place, and each row is reduced on its own into one output, so a
    row's value does not depend on the other rows wanted.
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
    k0 = math.prod(vals[0] for vals in table.values)
    if d == 2:  # one pass computes every row less m, whichever are wanted
        devs = [vals[powers] - 1.0 for vals in table.values]
        deltas = [float(dev.sum()) / m for dev in devs]
        spectra = [np.fft.rfft(dev - delta) for dev, delta in zip(devs, deltas)]
        excess = np.fft.irfft(spectra[0].conj() * spectra[1], m) + m * (deltas[0] + deltas[1] + deltas[0] * deltas[1])
        rows, values = np.arange(m), (k0 - 1.0 + 2.0 * excess) / n
    else:
        values = (k0 + 2.0 * _window_sums(table, powers, rows, whole)) / n - 1.0
    half = np.empty(m + 1)
    half[rows] = values
    if zero:
        half[m] = table.eval_vectors(korobov_vectors(n, d, [0]))[0]
    if not whole:
        return half[log[gens]]
    e2 = np.empty(n)
    e2[0], e2[powers], e2[n - powers] = half[m], half[:m], half[:m]
    return e2


def _window_sums(table, powers: np.ndarray, rows: np.ndarray, whole: bool) -> np.ndarray:
    """The sums sum_{a<m} prod_j T_j[(a + j b) mod m] of the rows b in
    ``rows`` (every row when ``whole``) of ``_eval_korobov`` for d >= 3."""
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
    buffer, sums = np.empty((chunk, m)), np.empty(rows.size)

    def factor(j: int, lo: int, hi: int) -> np.ndarray:
        s = steps[j]
        if not s:
            return windows[j][0]
        return windows[j][s * lo % m :: s][: hi - lo] if whole else windows[j][s * rows[lo:hi] % m]

    for lo in range(0, rows.size, chunk):
        hi = min(lo + chunk, rows.size)
        acc = np.multiply(factor(1, lo, hi), factor(0, lo, hi), out=buffer[: hi - lo])
        for j in range(2, table.d):
            acc *= factor(j, lo, hi)
        acc.sum(axis=1, out=sums[lo:hi])
    return sums


def _eval_all(table, threads: int, members=None) -> np.ndarray:
    """Errors of the general vectors at indices ``members``, all N^d when
    None, in blocks of CHUNK_CELLS // N vectors over at most ``threads``
    worker threads; a block writes its own slice, so no value depends on them."""
    n, d = table.n, table.d
    count = n**d if members is None else len(members)
    chunk = max(1, CHUNK_CELLS // n)
    e2 = np.empty(count)

    def block(lo: int) -> None:
        hi = min(lo + chunk, count)
        idx = np.arange(lo, hi) if members is None else members[lo:hi]
        e2[lo:hi] = table.eval_vectors(general_vectors(n, d, idx))

    if threads == 1:
        for lo in range(0, count, chunk):
            block(lo)
    else:  # the only pool: importing it costs every process start about 4 ms
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(block, range(0, count, chunk)))  # re-raises a block's error
    return e2


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
    all in that order when None, with their shared truncation bound, on at
    most ``threads`` worker threads (a Korobov family runs on one).  The
    modulus must pass ``check_modulus``, d and ``threads`` be at least 1."""
    check_modulus(n)
    check_dimension(d)
    check_threads(threads)
    check_family(family)
    if family == "general" and n**d > GENERAL_SEARCH_CAP:
        raise CapExceededError(f"general search space {n**d} exceeds cap {GENERAL_SEARCH_CAP}")
    table = theta_table(model, n, d, tol)
    e2 = _eval_korobov(table, members) if family == "korobov" else _eval_all(table, threads, members)
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


def search_korobov(n: int, d: int, model: WeightModel, tol: float = DEFAULT_TOL) -> SearchResult:
    """Evaluate every scalar generator g in {0, ..., n-1} and minimize.

    g = 0 participates like any other candidate.  For d = 1 every scalar
    expands to the vector (1), so all candidates tie and g = 0 wins.
    """
    return _select(n, d, model, tol, "korobov", 1)


def search_general(n: int, d: int, model: WeightModel, tol: float = DEFAULT_TOL, threads: int = 1) -> SearchResult:
    """Exhaustive search over all of {0, ..., n-1}^d (tiny instances only),
    its blocks of vectors split over at most ``threads`` worker threads."""
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
    return float(np.mean(family_errors(n, d, model.scaled(lam), tol, family)[0]))
