"""Exhaustive generating-vector searches and family averages.

The Korobov search scans all N scalar generators through
:meth:`ThetaTable.eval_korobov`, O(N^2 d / 4) as products of contiguous
slices of a primitive-root-permuted theta table; the general search scans
all N^d vectors of a tiny instance.  Both select the lambda = 1 error
minimizer with a deterministic tie rule (ties within max truncation bound
plus a fixed slack resolve to the smallest scalar / lexicographically
smallest vector), so results do not depend on chunking or thread count.
Korobov generators g and N - g give the same rule up to a reflection and
get bitwise equal errors: ``ties`` counts both members of each pair, and
the smaller g wins.  The shared truncation bound of a family is the
product certificate of ``space.theta_factors``, at most the tolerance.
Family means of the lambda-scaled dual sums (``mean_pow_error``) average
the errors of the space at base omega**lam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError
from .lattice import KorobovParam, LatticeRule, is_prime, korobov_vector
from .space import CHUNK_CELLS, DEFAULT_TOL, WeightModel
from .wce import ErrorEstimate, _map_chunks, theta_table

TIE_SLACK = 1e-13

GENERAL_SEARCH_CAP = 10**6


def _require_prime(n: int) -> None:
    if not is_prime(n):
        raise ValueError(f"search modulus must be prime, got {n}")


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


def _general_block(n: int, d: int, idx: np.ndarray) -> np.ndarray:
    """Decode lexicographic indices into vectors (g_1 most significant)."""
    out = np.empty((idx.size, d), dtype=np.int64)
    rem = idx.astype(np.int64)
    for j in range(d - 1, -1, -1):
        out[:, j] = rem % n
        rem //= n
    return out


def _eval_all(table, threads: int) -> np.ndarray:
    """Errors of all N^d vectors in lexicographic order."""
    n, d = table.n, table.d

    def run(lo: int, hi: int) -> np.ndarray:
        return table.eval_vectors(_general_block(n, d, np.arange(lo, hi, dtype=np.int64)))

    return _map_chunks(run, n**d, max(1, CHUNK_CELLS // n), threads)


def family_errors(
    n: int,
    d: int,
    model: WeightModel,
    tol: float = DEFAULT_TOL,
    family: str = "korobov",
    threads: int = 1,
) -> tuple[np.ndarray, float]:
    """Squared errors of every member of a family, in enumeration order
    (scalar g, or lexicographic vectors), with their shared truncation
    bound."""
    _require_prime(n)
    if family not in ("korobov", "general"):
        raise ValueError(f"family must be 'korobov' or 'general', got {family!r}")
    if family == "general" and n**d > GENERAL_SEARCH_CAP:
        raise CapExceededError(f"general search space {n**d} exceeds cap {GENERAL_SEARCH_CAP}")
    table = theta_table(model, n, d, tol)
    if family == "korobov":
        e2 = table.eval_korobov(threads)
    else:
        e2 = _eval_all(table, threads)
    return e2, table.product_bound


def _best(e2: np.ndarray, bound: float) -> tuple[int, int]:
    """Index of the selected minimizer and the size of its tie set."""
    tied = np.flatnonzero(e2 <= float(np.min(e2)) + (bound + TIE_SLACK))
    return int(tied[0]), int(tied.size)


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
    e2, bound = family_errors(n, d, model, tol, "korobov", threads)
    g_best, ties = _best(e2, bound)
    return SearchResult(
        best_rule=korobov_vector(KorobovParam(n=n, g=g_best, d=d)),
        best_e2=ErrorEstimate(float(e2[g_best]), bound, "theta_product"),
        evaluated=n,
        ties=ties,
    )


def search_general(
    n: int,
    d: int,
    model: WeightModel,
    tol: float = DEFAULT_TOL,
    threads: int = 1,
) -> SearchResult:
    """Exhaustive search over all of {0, ..., n-1}^d (tiny instances only)."""
    e2, bound = family_errors(n, d, model, tol, "general", threads)
    best_idx, ties = _best(e2, bound)
    g_best = tuple(int(v) for v in _general_block(n, d, np.array([best_idx]))[0])
    return SearchResult(
        best_rule=LatticeRule(n=n, g=g_best),
        best_e2=ErrorEstimate(float(e2[best_idx]), bound, "theta_product"),
        evaluated=e2.size,
        ties=ties,
    )


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
