"""Lattice-rule quadrature of trigonometric polynomials.

Integrands with finitely many Fourier terms admit exact bookkeeping: the
true integral is the h = 0 coefficient, the space norm is a finite sum, and
the quadrature error of a lattice rule equals the coefficient sum over the
nonzero dual frequencies.  This makes the worst-case error bound
|error| <= e(rule) * ||f|| checkable without any approximation on the
function side.  The convergence study builds once per call what does not
depend on N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import SCAN_N_CAP, error_bound_min
from .errors import CapExceededError
from .lattice import LatticeRule, as_float, as_int, as_list, as_object
from .search import search_korobov
from .space import DEFAULT_TOL, WeightModel, rho
from .wce import dominant_dual_frequency, dual_enum_work_estimate, wce2_dual_enum, wce2_theta_product

# Cell cap N * (d + terms) of qmc_apply: 32 MB per complex128 array of that
# size, and the evaluation holds about three at once.
APPLY_CELL_CAP = 2 * 10**6


@dataclass(frozen=True)
class FourierPolynomial:
    """Finite map from integer frequency vectors to complex coefficients.

    ``real_symmetric`` asserts coeff(-h) == conj(coeff(h)), which makes the
    represented function real-valued; it is validated at construction.
    """

    terms: tuple[tuple[tuple[int, ...], complex], ...]
    d: int
    real_symmetric: bool = False

    @classmethod
    def from_terms(cls, terms: dict, real_symmetric: bool = False):
        items = []
        for h, c in terms.items():
            h = tuple(int(v) for v in h)
            items.append((h, complex(c)))
        if not items:
            raise ValueError("a Fourier polynomial needs at least one term")
        dims = {len(h) for h, _ in items}
        if len(dims) != 1:
            raise ValueError("all frequency vectors must share one dimension")
        items.sort(key=lambda pair: pair[0])
        poly = cls(terms=tuple(items), d=dims.pop(), real_symmetric=real_symmetric)
        if real_symmetric:
            lookup = dict(poly.terms)
            for h, c in poly.terms:
                neg = tuple(-v for v in h)
                mirror = lookup.get(neg)
                if mirror is None or abs(mirror - c.conjugate()) > 1e-12 * max(1.0, abs(c)):
                    raise ValueError("terms are not conjugate-symmetric")
        return poly

    def integral(self) -> complex:
        """Exact integral over the unit cube: the h = 0 coefficient."""
        for h, c in self.terms:
            if all(v == 0 for v in h):
                return c
        return 0j

    def norm(self, model: WeightModel) -> float:
        """Space norm (sum_h |coeff(h)|^2 / rho(h))**(1/2); inf when a
        nonzero coefficient sits at an h whose rho(h) underflows to 0."""
        squares = []
        for h, c in self.terms:
            mass = rho(h, model)
            squares.append(abs(c) ** 2 / mass if mass > 0.0 else math.inf if c else 0.0)
        return math.sqrt(math.fsum(squares))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Values sum_h coeff(h) * exp(2 pi i h . x) at rows of ``points``."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        freqs = np.array([h for h, _ in self.terms], dtype=np.float64)
        coeffs = np.array([c for _, c in self.terms], dtype=np.complex128)
        return np.exp(2j * math.pi * pts @ freqs.T) @ coeffs

    def to_dict(self) -> dict:
        return {
            "terms": [
                {"h": list(h), "re": c.real, "im": c.imag} for h, c in self.terms
            ],
            "real_symmetric": self.real_symmetric,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FourierPolynomial":
        as_object(data, "polynomial", ("terms",), ("real_symmetric",))
        terms = {}
        for item in as_list(data["terms"], "terms"):
            as_object(item, "polynomial term", ("h",), ("re", "im"))
            h = tuple(as_int(v, "frequency entry") for v in as_list(item["h"], "h"))
            if h in terms:
                raise ValueError(f"frequency {list(h)} appears twice in polynomial")
            re, im = (as_float(item.get(key, 0.0), key) for key in ("re", "im"))
            terms[h] = complex(re, im)
        symmetric = data.get("real_symmetric", False)
        if not isinstance(symmetric, bool):
            raise ValueError(f"real_symmetric must be a boolean, got {symmetric!r}")
        return cls.from_terms(terms, real_symmetric=symmetric)


def qmc_apply(f: FourierPolynomial, rule: LatticeRule) -> complex:
    """Equal-weight average of f over the rule's node set.

    N * (d + terms) is checked against ``APPLY_CELL_CAP`` before the nodes
    are built.
    """
    if f.d != rule.d:
        raise ValueError(f"dimension mismatch: polynomial {f.d}, rule {rule.d}")
    cells = rule.n * (rule.d + len(f.terms))
    if cells > APPLY_CELL_CAP:
        raise CapExceededError(f"applying the rule needs {cells} cells, cap is {APPLY_CELL_CAP}")
    return complex(np.mean(f.evaluate(rule.points())))


def exact_qmc_error(f: FourierPolynomial, rule: LatticeRule) -> complex:
    """Quadrature error as the coefficient sum over nonzero dual frequencies.

    Uses exact integer congruences h . g == 0 (mod N); no function values
    are computed.  Agrees with qmc_apply(f) - integral to rounding error.
    """
    if f.d != rule.d:
        raise ValueError(f"dimension mismatch: polynomial {f.d}, rule {rule.d}")
    total = 0j
    for h, c in f.terms:
        if all(v == 0 for v in h):
            continue
        if sum(hj * gj for hj, gj in zip(h, rule.g)) % rule.n == 0:
            total += c
    return total


def error_vs_wce(
    f: FourierPolynomial,
    rule: LatticeRule,
    model: WeightModel,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Realized error against the worst-case bound e(rule) * ||f||.

    Returns the triple (realized, bound, ratio) plus the truncation slack
    of the error evaluation; ratio <= 1 up to that slack, by definition of
    the worst-case error as a supremum over the unit ball.  An e^2 of the
    character sum below its band, where rounding can read it as 0, is
    taken from the dual sum instead, whose positive terms give it as
    itself, so the ratio stays finite.
    """
    realized = abs(exact_qmc_error(f, rule))
    est = wce2_theta_product(rule, model, 1.0, tol)
    if est.zero_indistinguishable:
        est = wce2_dual_enum(rule, model, 1.0, tol)
    e_upper = math.sqrt(max(est.value, 0.0) + est.trunc_bound)
    bound = est.e * f.norm(model)
    return {
        "realized": realized,
        "bound": bound,
        "ratio": realized / bound if bound > 0 else math.inf if realized > 0 else 0.0,
        "bound_upper": e_upper * f.norm(model),
        "trunc_bound": est.trunc_bound,
    }


# ---------------------------------------------------------------------------
# Integrand corpora with closed-form integrals and norms
# ---------------------------------------------------------------------------

def product_cosine(d: int, amplitudes) -> FourierPolynomial:
    """prod_j (1 + c_j cos(2 pi x_j)) as an explicit Fourier polynomial.

    Coefficients are prod_j (c_j / 2)**|h_j| over h in {-1, 0, 1}^d; real
    and conjugate-symmetric by construction.
    """
    amplitudes = tuple(float(c) for c in amplitudes)
    if len(amplitudes) != d:
        raise ValueError("need one amplitude per coordinate")
    terms: dict[tuple[int, ...], complex] = {(): 1.0 + 0j}
    for c in amplitudes:
        nxt: dict[tuple[int, ...], complex] = {}
        for h, coeff in terms.items():
            for hj, factor in ((0, 1.0), (1, c / 2.0), (-1, c / 2.0)):
                nxt[h + (hj,)] = coeff * factor
        terms = nxt
    terms = {h: c for h, c in terms.items() if c != 0}
    return FourierPolynomial.from_terms(terms, real_symmetric=True)


def random_sparse(
    d: int,
    model: WeightModel,
    n_terms: int,
    rng: np.random.Generator,
) -> FourierPolynomial:
    """Random real sparse polynomial with frequencies in [-6, 6]^d, unit norm.

    The drawn terms are mirrored (conjugate-symmetric), so the function is
    real-valued.  The draw is fully determined by the generator state.
    """
    terms: dict[tuple[int, ...], complex] = {}
    for _ in range(n_terms):
        h = tuple(int(v) for v in rng.integers(-6, 7, size=d))
        c = complex(rng.normal(), rng.normal())
        neg = tuple(-v for v in h)
        if all(v == 0 for v in h):
            c = complex(c.real, 0.0)
        terms[h] = terms.get(h, 0j) + c / 2.0
        terms[neg] = terms.get(neg, 0j) + c.conjugate() / 2.0
    poly = FourierPolynomial.from_terms(terms, real_symmetric=True)
    nrm = poly.norm(model)
    scaled = {h: c / nrm for h, c in poly.terms}
    return FourierPolynomial.from_terms(scaled, real_symmetric=True)


def dual_witness(rule: LatticeRule, model: WeightModel) -> FourierPolynomial:
    """Unit-norm single-term polynomial at the heaviest dual frequency.

    Its realized quadrature error is sqrt(rho(h*)), the single largest
    contribution to the squared worst-case error, so it nearly saturates
    the bound e(rule) * ||f||.  h* is exact: it is the heaviest of the dual
    vectors at least as heavy as those known in closed form, such as N * e_1.
    """
    h_star = dominant_dual_frequency(rule, model)
    coeff = math.sqrt(rho(h_star, model))
    return FourierPolynomial.from_terms({h_star: coeff})


def convergence_study(
    d: int,
    model: WeightModel,
    primes,
    tol: float = DEFAULT_TOL,
) -> list[dict]:
    """Best Korobov error per modulus with algebraic-decay columns.

    For each prime N the row records e = best Korobov error, N*e, N^2*e,
    N^4*e, and the lambda-minimized existence bound.  Super-polynomial
    decay shows up as the N^alpha * e columns eventually decreasing.

    The search selects by the character-sum evaluator; the winner is then
    re-evaluated by ``wce2_dual_enum`` when its estimated work (prefix cells
    plus folded frequencies) is at most 10**6.  The dual sum has no
    cancellation, so errors far below the float64 noise floor of the
    character sum come out as their true tiny values (0 once every dual
    point leaves the truncation region).  Primes above ``bounds.SCAN_N_CAP``
    raise :class:`CapExceededError` before any search runs.

    Per prime only the work that depends on N runs: the theta table and
    its Korobov kernel, the dual walk and the lambda minimisation of the
    bound.  What does not is built once per call: the dual sum's region
    threshold and its theta_j(0) majorants, the series rows of the tables
    and the bound's product term at every lambda probed (all memoised per
    model, d and tol; the product-term memo keeps the 4,096 most recently
    used lambdas) and the model's ``rate``, ``a_star`` and ``b_star``;
    ``error_bound_min`` checks its inputs once per prime and looks up its
    memo once per prime, not once per lambda probe.
    """
    primes = list(primes)
    if any(b <= a for a, b in zip(primes, primes[1:])):
        raise ValueError("primes must be strictly ascending")
    if primes and primes[-1] > SCAN_N_CAP:
        raise CapExceededError(f"convergence prime {primes[-1]} exceeds the scan cap {SCAN_N_CAP}")
    rows = []
    for n in primes:
        res = search_korobov(n, d, model, tol)
        est = res.best_e2
        if dual_enum_work_estimate(res.best_rule, model, 1.0, tol) <= 10**6:
            est = wce2_dual_enum(res.best_rule, model, 1.0, tol)
        e = est.e
        rows.append(
            {
                "n": n,
                "e": e,
                "n_e": n * e,
                "n2_e": float(n) ** 2 * e,
                "n4_e": float(n) ** 4 * e,
                "bound": error_bound_min(n, d, model, "korobov", tol).bound_value,
            }
        )
    return rows
