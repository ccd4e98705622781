"""Weighted Korobov spaces of analytic periodic functions.

A space is determined by a decay base ``omega`` in (0, 1) and two positive
weight sequences ``(a_j)`` and ``(b_j)``.  A frequency vector ``h`` carries
the Fourier mass

    rho(h) = omega ** sum_j a_j * |h_j| ** b_j,

so members of the space are one-periodic and analytic.  The reproducing
kernel factorizes over coordinates into one-dimensional theta series

    theta_j(t) = 1 + 2 * sum_{h >= 1} omega**(a_j * h**b_j) * cos(2*pi*h*t).

The lambda-scaled mass rho(h)**lam of the averaging bounds is the mass of
the same space at base omega**lam (:meth:`WeightModel.scaled`), so every
evaluator takes a space and a tolerance only; only ``a_lambda``, which
serves the closed-form bounds, keeps lambda.  ``theta_factors`` builds the
d truncated theta series of a space together with their first-order
product certificate, giving each coordinate a share of the tolerance so
that the certificate stays at most the tolerance; the kernel double sum
of ``wce`` takes its factors from it.  ``theta_rows`` builds the theta
table of ``wce``, the values at the n fractions r/n.  For b_j = 1 the
theta series is the Poisson kernel (1 - q^2) / (1 - 2q cos 2 pi t + q^2),
q = omega**a_j, which ``theta_rows`` evaluates in closed form: such a
coordinate carries no truncation and takes no share of the tolerance.
``theta_majorant`` is a row's theta_j(0) + tau_j, which that certificate
and the Rankin cut of the dual sum both read.  The per-coordinate Fourier
mass is controlled by the tail constant

    a_lambda(lam) = sum_{h >= 1} omega**(lam * a_1 * (h**b_star - 1)).

All infinite sums are truncated at the smallest horizon whose rigorous
tail certificate is at most the requested tolerance, so the value differs
from the exact series by at most that.  The tail certificate of
sum_{h > H} exp(-c * h**b) is closed form: a geometric series for b >= 1,
and for b < 1, with y = H + 1, x = c * y**b > 1/b - 1, the bound
e^-x * (1 + y**(1-b) / (b*c*(1 - (1/b-1)/x))).  One search,
``truncation_horizon``, finds that horizon for every b and for every
caller: the theta rows, the kernel factors, the Rankin cut of the dual
sum and the long sums of ``a_lambda``.  Where e^-c underflows (c past
about 745) the certificate is 0 and the horizon is 1.
A hard cap of 10**7 terms per one-dimensional sum turns uncertifiable
parameter ranges into an explicit error rather than a silent inaccuracy.

For b_star < 1, ``a_lambda`` needs no long sum.  It decides the term cap
with one evaluation of the tail bound at the cap, which decreases in the
horizon.  When more than ``_EM_SPLIT`` = 64 terms would be needed, it sums
the first 63 directly and takes the rest from the Euler-Maclaurin formula:
the integral in closed form through the incomplete gamma function, plus
Bernoulli corrections whose remainder is certified by the complete
monotonicity of exp(-c * t**b).  Only where that certifies nothing does it
sum to the horizon, ``CHUNK_CELLS`` terms at a time.  It is not memoised.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SummationCapError
from .lattice import as_float, as_list, as_object

DEFAULT_TOL = 1e-14

# Hard cap on the number of terms in any one-dimensional series.
SUM_TERM_CAP = 10**7

# Cells per evaluation chunk of the family searches: 512 KiB of float64, so a
# chunk's accumulator and operand stay in a core's L2 cache (faster than
# 2**21 for both search families).  The blocked loops of wce and the rare
# long direct sum of a_lambda take their block sizes from it.
CHUNK_CELLS = 2**16

FAMILY_KINDS = ("constant", "linear", "logarithmic", "power", "explicit")


def _check_tol(tol: float) -> None:
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")


def pow_or_inf(x: float, b: float) -> float:
    """x**b for floats x >= 0 and b > 0, and inf where it overflows the
    float range (Python's ``**`` raises there), so an h**b past the range
    gives the Fourier mass 0, as numpy's array powers do."""
    try:
        return x**b
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class WeightFamily:
    """A rule producing a weight value for every coordinate index j >= 1.

    Supported kinds:

    - ``constant``:     w_j = kappa
    - ``linear``:       w_j = kappa * j
    - ``logarithmic``:  w_j = kappa * log(j + 1)
    - ``power``:        w_j = kappa * j**p
    - ``explicit``:     w_j = values[j - 1] for j <= len(values), constant
                        tail equal to the last listed value beyond.
    """

    kind: str
    kappa: float = 1.0
    p: float = 1.0
    values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown weight family kind {self.kind!r}")
        if self.kind == "explicit":
            if not self.values:
                raise ValueError("explicit weight family needs a nonempty values list")
            if any(not (v > 0.0) for v in self.values):
                raise ValueError("explicit weight values must be positive")
        else:
            if not (self.kappa > 0.0):
                raise ValueError(f"weight family kappa must be positive, got {self.kappa}")
            if self.kind == "power" and not math.isfinite(self.p):
                raise ValueError("power family exponent must be finite")

    def value(self, j: int) -> float:
        if j < 1:
            raise ValueError(f"coordinate index must be >= 1, got {j}")
        if self.kind == "constant":
            return self.kappa
        if self.kind == "linear":
            return self.kappa * j
        if self.kind == "logarithmic":
            return self.kappa * math.log(j + 1)
        if self.kind == "power":
            return self.kappa * float(j) ** self.p
        return self.values[j - 1] if j <= len(self.values) else self.values[-1]

    def inf_from(self, j0: int) -> float:
        """Infimum of w_j over j >= j0, in closed form."""
        if self.kind == "explicit":
            tail = self.values[j0 - 1 :] if j0 <= len(self.values) else ()
            return min(tail + (self.values[-1],))
        if self.kind == "power" and self.p < 0:
            return 0.0  # decays to zero
        # remaining kinds are nondecreasing in j
        return self.value(j0)

    def is_nondecreasing(self) -> bool:
        if self.kind == "power":
            return self.p >= 0.0
        if self.kind == "explicit":
            return all(x <= y for x, y in zip(self.values, self.values[1:]))
        return True  # constant / linear / logarithmic with kappa > 0

    def to_dict(self) -> dict:
        if self.kind == "explicit":
            return {"kind": self.kind, "values": list(self.values)}
        if self.kind == "power":
            return {"kind": self.kind, "kappa": self.kappa, "p": self.p}
        return {"kind": self.kind, "kappa": self.kappa}

    @classmethod
    def from_dict(cls, data: dict) -> "WeightFamily":
        if not isinstance(data, dict) or "kind" not in data:
            raise ValueError("weight family must be an object with a 'kind' field")
        kind = data["kind"]
        if kind not in FAMILY_KINDS:
            raise ValueError(f"unknown weight family kind {kind!r}")
        fields = {"explicit": ("kind", "values"), "power": ("kind", "kappa", "p")}.get(kind, ("kind", "kappa"))
        as_object(data, f"weight family {kind!r}", fields)
        if kind == "explicit":
            return cls(kind=kind, values=_floats(data["values"], "values"))
        if kind == "power":
            return cls(kind=kind, kappa=as_float(data["kappa"], "kappa"), p=as_float(data["p"], "p"))
        return cls(kind=kind, kappa=as_float(data["kappa"], "kappa"))


@dataclass(frozen=True)
class WeightModel:
    """The space parameters: decay base omega and weight sequences a, b.

    ``prefix_a`` / ``prefix_b`` override the families for the first few
    coordinates (value for j <= len(prefix), family rule beyond), which is
    how finitely-perturbed sequences are expressed.

    Invariants enforced at construction:

    - 0 < omega < 1, so every series decays at :attr:`rate` > 0;
    - the combined a-sequence is nondecreasing with a_1 > 0;
    - inf_j b_j > 0 (available in closed form as :attr:`b_star`).

    ``rate``, ``a_star`` and ``b_star`` are computed once per model.
    """

    omega: float
    a: WeightFamily
    b: WeightFamily
    prefix_a: tuple[float, ...] = ()
    prefix_b: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (0.0 < self.omega < 1.0):
            raise ValueError(f"omega must lie in (0, 1), got {self.omega}")
        object.__setattr__(self, "prefix_a", tuple(float(v) for v in self.prefix_a))
        object.__setattr__(self, "prefix_b", tuple(float(v) for v in self.prefix_b))
        self._check_a()
        self._check_b()

    def _check_a(self) -> None:
        if not self.a.is_nondecreasing():
            raise ValueError("a-weights must be nondecreasing in j")
        pre = self.prefix_a
        if any(not (v > 0.0) for v in pre):
            raise ValueError("a-weight prefix values must be positive")
        if any(x > y for x, y in zip(pre, pre[1:])):
            raise ValueError("a-weight prefix must be nondecreasing")
        if pre and pre[-1] > self.a.value(len(pre) + 1):
            raise ValueError("a-weight prefix must not exceed the family continuation")
        if not (self.a_j(1) > 0.0):
            raise ValueError("a_1 must be positive")

    def _check_b(self) -> None:
        if any(not (v > 0.0) for v in self.prefix_b):
            raise ValueError("b-weight prefix values must be positive")
        if not (self.b_star > 0.0):
            raise ValueError("inf_j b_j must be positive")

    def a_j(self, j: int) -> float:
        if 1 <= j <= len(self.prefix_a):
            return self.prefix_a[j - 1]
        return self.a.value(j)

    def b_j(self, j: int) -> float:
        if 1 <= j <= len(self.prefix_b):
            return self.prefix_b[j - 1]
        return self.b.value(j)

    @cached_property
    def a_star(self) -> float:
        """inf_j a_j, which equals a_1 by monotonicity."""
        return self.a_j(1)

    @cached_property
    def rate(self) -> float:
        """Decay rate -log(omega); log(1/omega) would be off by up to 16 ulps."""
        return -math.log(self.omega)

    @cached_property
    def b_star(self) -> float:
        """inf_j b_j, computed in closed form per family."""
        candidates = list(self.prefix_b)
        candidates.append(self.b.inf_from(len(self.prefix_b) + 1))
        return min(candidates)

    def exponent(self, h) -> float:
        """E(h) = sum_j a_j * |h_j|**b_j, summed in coordinate order."""
        total = 0.0
        for j, hj in enumerate(h, start=1):
            total += self.a_j(j) * pow_or_inf(abs(float(hj)), self.b_j(j))
        return total

    def scaled(self, lam: float) -> "WeightModel":
        """The same space at base omega**lam, whose Fourier mass is
        rho(h)**lam: the lambda-scaled dual sums of the averaging bounds are
        ordinary dual sums there.  Returns ``self`` at lam = 1; a lam so
        small that omega**lam rounds to 1 is rejected."""
        if not (0.0 < lam <= 1.0):
            raise ValueError(f"lambda must lie in (0, 1], got {lam}")
        if lam == 1.0:
            return self
        omega = self.omega**lam
        if omega == 1.0:
            raise ValueError(f"lambda = {lam} is too small: omega**lambda rounds to 1 at omega = {self.omega}")
        return dataclasses.replace(self, omega=omega)

    def to_dict(self) -> dict:
        out = {"omega": self.omega, "a": self.a.to_dict(), "b": self.b.to_dict()}
        if self.prefix_a:
            out["prefix_a"] = list(self.prefix_a)
        if self.prefix_b:
            out["prefix_b"] = list(self.prefix_b)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "WeightModel":
        as_object(data, "weight model", ("omega", "a", "b"), ("prefix_a", "prefix_b"))
        return cls(
            omega=as_float(data["omega"], "omega"),
            a=WeightFamily.from_dict(data["a"]),
            b=WeightFamily.from_dict(data["b"]),
            prefix_a=_floats(data.get("prefix_a", []), "prefix_a"),
            prefix_b=_floats(data.get("prefix_b", []), "prefix_b"),
        )


def _floats(value, name: str) -> tuple[float, ...]:
    """A JSON array of numbers as a tuple of floats."""
    return tuple(as_float(v, f"{name} entry") for v in as_list(value, name))


# ---------------------------------------------------------------------------
# Certified summation of sum_{h >= 1} exp(-c * h**b)
# ---------------------------------------------------------------------------

def _tail_bound_b_ge1(c: float, b: float, horizon: int, shift: float) -> float:
    # h**b - H**b >= h - H for h > H >= 1 and b >= 1, so the tail is
    # dominated by a geometric series with ratio exp(-c).
    q = math.exp(-c)
    return math.exp(shift - c * pow_or_inf(float(horizon), b)) * q / -math.expm1(-c)

def _tail_bound_b_lt1(c: float, b: float, horizon: int, shift: float) -> float:
    # f(t) = exp(-c * t**b) decreases, so with y = H + 1 the tail is at most
    # f(y) + int_y^inf f.  Substituting u = c * t**b, the integral equals
    # Gamma(s, x) / (b * c**s) with s = 1/b > 1 and x = c * y**b, and
    # Gamma(s, x) = x**(s-1) e^-x int_0^inf (1 + t/x)**(s-1) e^-t dt
    #            <= x**(s-1) e^-x / (1 - (s-1)/x)   for x > s - 1,
    # because 1 + t/x <= e^(t/x).  As x**(s-1) / c**s = y**(1-b) / c, the
    # tail is at most e^-x * (1 + y**(1-b) / (b*c*(1 - (s-1)/x))).  For
    # x <= s - 1 there is no bound here; the caller takes a larger horizon.
    y = float(horizon + 1)
    x = c * y**b
    s = 1.0 / b
    if x <= s - 1.0:
        return math.inf
    return math.exp(shift - x) * (1.0 + y ** (1.0 - b) / (b * c * (1.0 - (s - 1.0) / x)))

def series_tail_bound(c: float, b: float, horizon: int, shift: float = 0.0) -> float:
    """Rigorous upper bound on sum_{h > horizon} exp(shift - c * h**b); inf
    for b < 1 when c * (horizon + 1)**b <= 1/b - 1.  e**shift is never
    formed, so it may lie far outside the float range."""
    if c <= 0.0 or b <= 0.0:
        raise ValueError("series parameters must satisfy c > 0 and b > 0")
    if b >= 1.0:
        return _tail_bound_b_ge1(c, b, horizon, shift)
    return _tail_bound_b_lt1(c, b, horizon, shift)

def _cap_error(tol: float) -> SummationCapError:
    return SummationCapError(f"series needs more than {SUM_TERM_CAP} terms to certify tail < {tol}")

def truncation_horizon(c: float, b: float, tol: float, shift: float = 0.0) -> tuple[int, float]:
    """Smallest horizon H >= 1 with ``series_tail_bound(c, b, H, shift)``
    <= ``tol``, for every b > 0: the one horizon search of the package.

    Returns ``(H, tail_bound)``.  The bound decreases in H, so H doubles
    from 1 until it certifies, and the horizons between the last failing
    one and that one are bisected: H certifies and H - 1 does not, and no
    probe reaches 2H.  Where e^-c underflows (c past about 745) the bound
    is 0 and H = 1.  Raises :class:`SummationCapError` when the bound at
    ``SUM_TERM_CAP`` misses ``tol``.
    """
    _check_tol(tol)
    failing, horizon = 0, 1
    while series_tail_bound(c, b, horizon, shift) > tol:
        if horizon >= SUM_TERM_CAP:
            raise _cap_error(tol)
        failing, horizon = horizon, min(horizon * 2, SUM_TERM_CAP)
    between = range(failing + 1, horizon)
    horizon = between.start + bisect_left(between, True, key=lambda h: series_tail_bound(c, b, h, shift) <= tol)
    return horizon, series_tail_bound(c, b, horizon, shift)


def theta_terms(j: int, model: WeightModel, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Coefficients w_h = omega**(a_j * h**b_j) for h = 1..H.

    H is the ``truncation_horizon`` at ``tol / 2``, the least whose
    certified truncation error of any theta evaluation built from these
    terms, 2 * sum_{h > H} w_h, is at most ``tol``.  Returns
    ``(weights, tail)`` with ``2 * tail <= tol``.
    """
    c = model.a_j(j) * model.rate
    b = model.b_j(j)
    horizon, tail = truncation_horizon(c, b, tol / 2.0)
    h = np.arange(1, horizon + 1, dtype=np.float64)
    with np.errstate(over="ignore"):  # an h**b past the float range gives w_h = 0
        return np.exp(-c * h**b), tail


def theta_majorant(w: np.ndarray, tail: float) -> float:
    """theta_j(0) + tau_j = 1 + 2 * sum(w) + 2 * tail for a ``theta_terms``
    row ``(w, tail)``: at least theta_j(0), the largest value of theta_j,
    and at least every truncated evaluation of the row."""
    return 1.0 + 2.0 * float(np.sum(w)) + 2.0 * tail


def theta_factors(
    model: WeightModel, d: int, tol: float = DEFAULT_TOL
) -> tuple[list[np.ndarray], float]:
    """The truncated theta series of coordinates 1..d and their product
    certificate, for ``wce2_kernel_double_sum`` and ``kernel_with_bound``.

    Returns ``(terms, bound)``: the ``theta_terms`` weights of each
    coordinate and the first-order bound sum_j tau_j * prod_{i != j} major_i
    <= ``tol`` on the truncation error of any product of one evaluation per
    coordinate, with tau_j = 2 * tail_j and major_i a ``theta_majorant``.
    Every coordinate, b_j = 1 included, is a series here; ``theta_rows``
    evaluates the b_j = 1 ones in closed form.
    """
    series, bound = _share_tolerance(model, d, tol, {})
    return [series[j][0] for j in range(d)], bound


def _share_tolerance(
    model: WeightModel, d: int, tol: float, exact: dict[int, float]
) -> tuple[dict[int, tuple[np.ndarray, float]], float]:
    """``theta_terms`` rows of the coordinates 0..d-1 not in ``exact`` and
    the product certificate over the majorants of all d coordinates.

    ``exact`` maps the coordinates evaluated without truncation to their
    theta_j(0): they have tau_j = 0 and take no share of ``tol``, and the
    bound is 0 when every coordinate is exact.  Each of the k series rows
    gets a share.  A first pass at ``tol`` gives majorants
    M_i >= theta_i(0); row j is rebuilt at
    share_j = tol / (k * prod_{i != j} P_i), where P_i = M_i + tol/k for a
    series row and M_i for an exact one, unless its tau_j already meets
    that share (always so at d = 1).
    """
    rows = {j: theta_terms(j + 1, model, tol) for j in range(d) if j not in exact}
    majors = [exact[j] if j in exact else theta_majorant(*rows[j]) for j in range(d)]
    if not rows:
        return rows, 0.0
    k = len(rows)
    pad = [m + tol / k if j in rows else m for j, m in enumerate(majors)]
    shares = {j: tol / (k * math.prod(pad[:j] + pad[j + 1 :])) for j in rows}
    # Every share is at most tol/k, so each final majorant satisfies
    # major_i <= theta_i(0) + tau_i <= P_i, and the bound is at most
    # sum_j share_j * prod_{i != j} P_i = tol.  Should rounding land the
    # evaluated bound above tol, the shares are halved and the rows that
    # miss them rebuilt, as _enum_cut steps its threshold.
    while True:
        rows = {
            j: row if 2.0 * row[1] <= shares[j] else theta_terms(j + 1, model, shares[j])
            for j, row in rows.items()
        }
        majors = [theta_majorant(*rows[j]) if j in rows else m for j, m in enumerate(majors)]
        bound = sum(2.0 * tail * math.prod(majors[:j] + majors[j + 1 :]) for j, (_, tail) in rows.items())
        if bound <= tol:
            return rows, bound
        shares = {j: share / 2.0 for j, share in shares.items()}


def fold_terms(w: np.ndarray, n: int) -> np.ndarray:
    """Bucket series terms w_h (h = 1..H) by h mod n, pairwise-summed.

    cos(2*pi*h*t) at t = r/n depends only on h mod n, so theta values at
    all n fractions come from one length-n DFT of these buckets.  The
    reduction runs along the contiguous axis so numpy's pairwise summation
    applies (a long sequential accumulation would cost ~1e-10 absolute on
    slowly decaying series).
    """
    padded = np.zeros(math.ceil(w.size / n) * n, dtype=np.float64)
    padded[: w.size] = w
    col_sums = padded.reshape(-1, n).T.copy().sum(axis=1)
    return np.roll(col_sums, 1)  # column j holds residue (j + 1) mod n


def _poisson_row(c: float, n: int) -> np.ndarray:
    """theta(r/n) for r = 0..n-1 of a b_j = 1 row, q = exp(-c), c > 0.

    1 + 2 sum_{h >= 1} q^h cos(2 pi h t) is the Poisson kernel
    (1 - q^2) / (1 - 2q cos 2 pi t + q^2), taken in the stable form
    (1 - q)(1 + q) / ((1 - q)^2 + 4q sin^2(pi m/n)) at the exact residue
    m = min(r, n - r), with 1 - q = -expm1(-c): every operation acts on
    positive numbers.  The row is even in m, so its n//2 + 1 distinct
    entries are computed once and mirrored.

    Rounding, in Higham's standard model (Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 3): each operation carries a factor
    1 + delta with |delta| <= u = 2**-53, and theta_k, a product of k such
    factors or their inverses, has |theta_k| <= gamma_k = k u / (1 - k u).
    Given exp, expm1 and numpy's sin within 1 ulp (theta_2 each):

    - q and 1 - q carry theta_2;
    - x = (pi / n) * m carries theta_3; as |sin x' - sin x| <= |x' - x|
      and sin x >= 2x/pi on [0, pi/2], sin x' is within (pi/2) gamma_3
      <= gamma_5 of sin x, so s carries theta_7;
    - the numerator (1 - q) * (1 + q) carries theta_{2+3+1} = theta_6, as
      1 + q adds positive numbers;
    - (1 - q)^2 carries theta_5 and ((4q) s) s theta_{2+7+1+7+1} =
      theta_18, so their sum carries theta_19;
    - the quotient carries theta_{6+19+1} = theta_26.

    So every entry is within gamma_26 (about 2.9e-15) relative of the
    Poisson kernel at the same c.
    """
    q, p = math.exp(-c), -math.expm1(-c)
    s = np.sin((math.pi / n) * np.arange(n // 2 + 1, dtype=np.float64))
    half = p * (1.0 + q) / (p * p + 4.0 * q * s * s)
    return np.concatenate([half, half[n - half.size : 0 : -1]])


def theta_rows(
    model: WeightModel, n: int, d: int, tol: float = DEFAULT_TOL
) -> tuple[list[np.ndarray], float]:
    """theta_j(r/n) for r = 0..n-1 and j = 1..d, with the product
    certificate: the rows of the theta table of ``wce``.

    A coordinate with b_j = 1 is the Poisson kernel in closed form
    (``_poisson_row``), exact up to rounding: no series, no fold and no
    FFT, tau_j = 0 and its majorant theta_j(0), its entry at r = 0.  Every
    other row is its truncated series, folded by ``fold_terms`` and put
    through one FFT of length n, with the majorant theta_j(0) + tau_j.
    The certificate covers the series rows only, and their shares of
    ``tol`` (``_share_tolerance``); it is 0 when every b_j = 1.
    """
    closed = {
        j: _poisson_row(model.a_j(j + 1) * model.rate, n) for j in range(d) if model.b_j(j + 1) == 1.0
    }
    exact = {j: float(row[0]) for j, row in closed.items()}
    series, bound = _share_tolerance(model, d, tol, exact)
    values = [
        closed[j] if j in closed else 1.0 + 2.0 * np.real(np.fft.fft(fold_terms(series[j][0], n)))
        for j in range(d)
    ]
    return values, bound


def _theta_at(w: np.ndarray, t: float) -> float:
    """1 + 2 * sum_h w_h * cos(2*pi*h*t), the theta series of ``w`` at t."""
    h = np.arange(1, w.size + 1, dtype=np.float64)
    return 1.0 + 2.0 * float(w @ np.cos((2.0 * math.pi * t) * h))


def theta(t: float, j: int, model: WeightModel, tol: float = DEFAULT_TOL) -> float:
    """One-dimensional kernel factor at point difference ``t`` in [0, 1).

    theta(t) = 1 + 2 * sum_{h >= 1} omega**(a_j * h**b_j) * cos(2*pi*h*t),
    evaluated with absolute truncation error <= tol.  The series is even in
    h, so the value is real, maximal at t = 0, and symmetric about t = 1/2.
    """
    return _theta_at(theta_terms(j, model, tol)[0], t)


# Euler-Maclaurin split M and largest number of Bernoulli corrections for the
# b < 1 series of a_lambda (see _em_tail).
_EM_SPLIT = 64
_EM_ORDERS = 10

# B_2k / (2k)! for k = 1 .. _EM_ORDERS + 1.
_BERNOULLI_RATIOS = (
    1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000,
    1 / 74724249600, -3617 / 10670622842880000, 43867 / 5109094217170944000,
    -174611 / 802857662698291200000, 77683 / 14101100039391805440000,
)


def _tail_integral(c: float, b: float, x: float, g: float, tol: float) -> tuple[tuple[float, ...], float] | None:
    """e^c * int_M^inf exp(-c * t**b) dt for M = ``_EM_SPLIT``, x = c * M**b
    and g = exp(c - x), as terms whose exact sum it is, with a bound of at
    most tol / 2 on its truncation error; None if the continued fraction
    below does not reach that.

    With s = 1/b the integral is s * M * g * G(s), where
    G(a) = e^x * x**-a * Gamma(a, x).

    - For x <= s, where Gamma(s, x) is about Gamma(s) / 2 or more, it is
      e^c * Gamma(s+1) / c**s - M * g * sum_k u_k, with u_0 = 1 and
      u_k = u_(k-1) * x / (s+k), the series of the lower incomplete gamma
      function (DLMF 8.7.1).  Its ratios x / (s+k) decrease, so once one is
      q < 1 the omitted terms are at most u_k * q / (1 - q).  The first
      term dominates A where x is small.  It is formed in ``np.longdouble``
      (a 64-bit significand on x86-64; elsewhere it may be double) and
      returned as a float pair, so what is left of its rounding comes from
      math.gamma at the rounded s, none for integer s.
    - For x > s that subtraction would cancel most digits.  G(a) at
      a = s - ceil(s) + 1 in (0, 1] is the continued fraction
      1/(x+ (1-a)/(1+ 1/(x+ (2-a)/(1+ 2/(x+ ... (DLMF 8.9.2), whose
      elements are positive, so consecutive convergents bracket it; the
      recurrence G(a+1) = (a * G(a) + 1) / x shrinks the bracket by a / x < 1
      per step up to G(s).
    """
    s, split = 1.0 / b, float(_EM_SPLIT)
    scale = split * g
    if x <= s:
        term = lower = scale  # M * g * u_k, summed into lower
        k = 0
        while True:
            k += 1
            term *= x / (s + k)
            lower += term
            q = x / (s + k + 1.0)
            if q < 1.0 and term * q / (1.0 - q) <= tol / 2.0:
                break
        c_long = np.longdouble(c)
        lead = np.exp(c_long) / c_long ** (1 / np.longdouble(b)) * np.longdouble(math.gamma(s + 1.0))
        lead_hi = float(lead)
        return (lead_hi, float(lead - lead_hi), -lower), term * q / (1.0 - q)
    steps = math.ceil(s) - 1
    a = s - steps
    scale *= s
    # Lentz's method on 1 / G(a) = x + (1-a)/(1+ 1/(x+ (2-a)/(1+ ...; about
    # 200 terms reach float precision at x = 1, fewer at larger x
    f = cc = x
    dd = 0.0
    for j in range(1, 1024):
        num, den = ((j + 1) // 2 - a, 1.0) if j % 2 else (j // 2, x)
        dd = 1.0 / (den + num * dd)
        cc = den + num / cc
        previous, f = f, f * cc * dd
        error = scale * abs(1.0 / f - 1.0 / previous)
        if error <= tol / 2.0:
            break
    else:
        return None
    f = 1.0 / f
    for _ in range(steps):
        f = (a * f + 1.0) / x
        a += 1.0
    return (scale * f,), error


def _em_tail(c: float, b: float, tol: float) -> tuple[list[float], int] | None:
    """e^c * sum_{h >= M} exp(-c * h**b) for 0 < b < 1 and M = ``_EM_SPLIT``,
    by the Euler-Maclaurin formula, with a truncation error of at most
    ``tol``.

    Returns ``(terms, m)``: terms whose exact sum is the formula, for the
    caller to add in one ``math.fsum``, and m, the number of Bernoulli
    corrections; None when :func:`_tail_integral` gives none or no m up to
    ``_EM_ORDERS`` certifies ``tol``.  With f(t) = exp(-c * t**b) and
    g = e^c * f(M), the tail is the integral plus g/2 - sum_(k<=m)
    B_2k / (2k)! * e^c * f^(2k-1)(M).  The derivatives are f^(n) = P_n f,
    with P_0 = 1 and P_(n+1) = sum_j C(n, j) phi^(j+1)(M) P_(n-j) for
    phi(t) = -c * t**b.

    f is completely monotone (exp of minus a Bernstein function), so every
    f^(2k) >= 0.  The remainder after m corrections therefore has the sign
    of the first omitted one and at most its size (DLMF 2.10(i)).  That term
    plus the integral's truncation bound is the certified error.
    """
    split = float(_EM_SPLIT)
    x = c * split**b
    g = math.exp(c - x)
    integral = _tail_integral(c, b, x, g, tol)
    if integral is None:
        return None
    parts, integral_error = integral
    terms = [*parts, g / 2.0]
    dphi = [0.0, -c * b * split ** (b - 1.0)]  # dphi[k] = phi^(k)(M)
    p = [1.0]  # p[n] = P_n
    for m in range(1, _EM_ORDERS + 1):
        while len(p) < 2 * m + 2:
            n = len(p) - 1
            dphi.append(dphi[-1] * (b - n - 1.0) / split)
            p.append(sum(math.comb(n, j) * dphi[j + 1] * p[n - j] for j in range(n + 1)))
        terms.append(-_BERNOULLI_RATIOS[m - 1] * g * p[2 * m - 1])
        if abs(_BERNOULLI_RATIOS[m] * g * p[2 * m + 1]) + integral_error <= tol:
            return terms, m
    return None


def _direct_sum(c: float, b: float, horizon: int) -> float:
    """sum_{h=1}^{horizon} exp(-c * (h**b - 1)), ``CHUNK_CELLS`` terms at a
    time through one buffer refilled in place; the chunk sums are combined
    by ``math.fsum``."""
    ramp = np.arange(1, min(horizon, CHUNK_CELLS) + 1, dtype=np.float64)
    buf = np.empty_like(ramp)
    sums = []
    for lo in range(0, horizon, ramp.size):
        x = buf[: min(ramp.size, horizon - lo)]
        np.add(ramp[: x.size], lo, out=x)
        # in-place **= keeps numpy's square-root fast path for b = 1/2; an
        # h**b past the float range gives the term 0
        with np.errstate(over="ignore"):
            x **= b
        x -= 1.0
        x *= -c
        np.exp(x, out=x)
        sums.append(float(x.sum()))
    return math.fsum(sums)


def a_lambda(lam: float, model: WeightModel, tol: float = DEFAULT_TOL) -> float:
    """Tail constant sum_{h >= 1} omega**(lam * a_star * (h**b_star - 1)).

    The h = 1 term equals 1, so the result is always >= 1.  With
    c = lam * a_star * (-log omega) it is A = e^c * sum_h exp(-c * h**b),
    with a truncation error of at most ``tol``.  Its tail past H is e^c
    times that of sum_h exp(-c * h**b), so every tail bound takes
    shift = c: e^c, which overflows past c ~ 709, is never formed.  For
    b_star = 1 the series is geometric and is returned in closed form.  For
    b_star > 1 the terms up to the ``truncation_horizon`` of the geometric
    tail bound at shift c are summed directly, and
    :class:`SummationCapError` is raised when that horizon exceeds
    ``SUM_TERM_CAP``.  For b_star < 1:

    - the series needs more than ``SUM_TERM_CAP`` terms, and
      :class:`SummationCapError` is raised, exactly when the tail bound at
      the cap exceeds tol, since the b < 1 bound decreases in the horizon
      wherever it is finite; one bound evaluation decides it;
    - when ``_EM_SPLIT`` terms already certify tol, the terms up to the
      ``truncation_horizon`` are summed directly;
    - otherwise the terms below ``_EM_SPLIT`` are summed directly and the
      rest is the certified Euler-Maclaurin tail of :func:`_em_tail`; the
      head and the tail's terms are added in one ``math.fsum``.  It costs
      tens of microseconds where the direct sum needs up to millions of
      terms, and on the bench's slow model (omega = 0.9, logarithmic a,
      b = 1/2) it is within 0.65 ulp of mpmath fed the same c for lam in
      [0.2, 1].  Where it certifies nothing (only for tolerances far below
      rounding), the direct sum runs to the ``truncation_horizon``.

    Direct sums run ``CHUNK_CELLS`` terms at a time through one buffer, so
    memory stays constant in the horizon.  Nothing is memoised: no path but
    that rare fallback costs more than tens of microseconds.
    """
    if not (0.0 < lam <= 1.0):
        raise ValueError(f"lambda must lie in (0, 1], got {lam}")
    _check_tol(tol)
    b = model.b_star
    c = lam * model.a_star * model.rate
    if b == 1.0:
        return 1.0 / -math.expm1(-c)
    if b < 1.0:
        if series_tail_bound(c, b, SUM_TERM_CAP, c) > tol:
            raise _cap_error(tol)
        if series_tail_bound(c, b, _EM_SPLIT, c) > tol:
            tail = _em_tail(c, b, tol)
            if tail is not None:
                return math.fsum([_direct_sum(c, b, _EM_SPLIT - 1), *tail[0]])
    return _direct_sum(c, b, truncation_horizon(c, b, tol, c)[0])


def rho(h, model: WeightModel) -> float:
    """Fourier mass omega**(sum_j a_j * |h_j|**b_j) of frequency h.

    Equals 1 for h = 0 and lies in (0, 1] always; even in each coordinate
    and multiplicative across coordinates.
    """
    return model.omega ** model.exponent(h)


def log_region_volume(t_cut: float, weights: list[tuple[float, float]]) -> float:
    """log of the continuous volume of {x : sum a_j*|x_j|**b_j <= t_cut}
    (Dirichlet), 0 if ``weights`` is empty."""
    log_vol = 0.0
    inv_sum = 0.0
    for a, b in weights:
        c = (t_cut / a) ** (1.0 / b)
        log_vol += math.log(2.0 * c) + math.lgamma(1.0 + 1.0 / b)
        inv_sum += 1.0 / b
    return log_vol - math.lgamma(1.0 + inv_sum)


def kernel_with_bound(x, y, model: WeightModel, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Kernel value K(x, y) together with a certified truncation bound.

    The kernel is the product over coordinates of theta at the fractional
    difference; the bound is the product certificate of ``theta_factors``.
    """
    if len(x) != len(y):
        raise ValueError("points must have equal dimension")
    terms, bound = theta_factors(model, len(x), tol)
    vals = [_theta_at(w, (float(xj) - float(yj)) % 1.0) for w, xj, yj in zip(terms, x, y)]
    return math.prod(vals), bound


def kernel(x, y, model: WeightModel, tol: float = DEFAULT_TOL) -> float:
    """Reproducing kernel K(x, y) = prod_j theta_j({x_j - y_j})."""
    return kernel_with_bound(x, y, model, tol)[0]
