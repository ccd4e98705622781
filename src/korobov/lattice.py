"""Rank-1 lattice point sets and prime-modulus utilities.

A rule is a prime modulus N together with a generating vector g in
G_N^d = {0, ..., N-1}^d; its node set is x_k = {(k/N) * g}, k = 0..N-1.
Korobov rules use the vectors (1, g, ..., g^(d-1)) mod N of ``korobov_vectors``.
This module owns the rules: ``check_modulus`` holds the cap and primality
checks of every modulus, and ``LatticeRule.from_dict`` reads every rule
document, a vector {n, g} or a Korobov parameter {n, g_scalar, d}.
All modular arithmetic is exact: coordinates are kept as integer numerators
until a single final division, so point sets are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Products k * g_j must fit into int64, so moduli are capped at 2**31.
MODULUS_CAP = 2**31

# Deterministic Miller-Rabin witness set, valid for all 64-bit integers.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Below this bound the witnesses 2, 3, 5 and 7 are deterministic: it is the
# least strong pseudoprime to all four (Jaeschke 1993), and it lies above
# MODULUS_CAP, so every admissible modulus takes four witnesses.
_MR_SMALL_BOUND = 3_215_031_751

# Verdicts kept by is_prime's memo: a prime scan checks each modulus in
# several places (the family, the sieve, the rule and its primitive root).
_PRIME_MEMO_CAP = 1024


def as_int(value, name: str) -> int:
    """``value`` as an int if it is an integral number; ``ValueError`` for
    booleans, strings and non-integral numbers, which a file must not carry
    where an integer belongs."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_float(value, name: str) -> float:
    """``value`` as a float if it is a number, integers included;
    ``ValueError`` for booleans, strings, integers past the float range
    and the rest."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{name} lies beyond the float range") from None
    raise ValueError(f"{name} must be a number, got {value!r}")


def as_list(value, name: str) -> list:
    """``value`` if it is a JSON array; ``ValueError`` otherwise."""
    if isinstance(value, list):
        return value
    raise ValueError(f"{name} must be an array, got {value!r}")


def as_object(value, name: str, required: tuple, optional: tuple = ()) -> dict:
    """``value`` if it is a JSON object with every ``required`` field and no
    field outside ``required`` and ``optional``; ``ValueError`` naming the
    object and the field otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    unknown = set(value) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"unknown fields {sorted(unknown)} in {name}")
    for key in required:
        if key not in value:
            raise ValueError(f"{name} is missing field {key!r}")
    return value


def check_dimension(d: int) -> None:
    """``ValueError`` naming d unless d >= 1."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")


def check_modulus(n: int) -> None:
    """``ValueError`` naming n unless it is a prime no larger than the cap."""
    if n > MODULUS_CAP:
        raise ValueError(f"modulus {n} exceeds the cap {MODULUS_CAP}")
    if not is_prime(n):
        raise ValueError(f"modulus must be prime, got {n}")


@lru_cache(maxsize=_PRIME_MEMO_CAP)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 64-bit integers: the
    witnesses 2, 3, 5 and 7 below 3,215,031,751, all of ``_MR_WITNESSES``
    above.  The last ``_PRIME_MEMO_CAP`` verdicts are memoised."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[: 4 if n < _MR_SMALL_BOUND else None]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(m: int) -> int:
    """Smallest prime >= m; guaranteed < 2*m by Bertrand's postulate."""
    if m < 2:
        raise ValueError(f"next_prime requires m >= 2, got {m}")
    n = m
    while not is_prime(n):
        n += 1
    assert n < 2 * m, "Bertrand's postulate violated (impossible for correct primality)"
    return n


def primitive_root(n: int) -> int:
    """Smallest generator of the multiplicative group mod the prime ``n``.

    gamma generates the group iff gamma**((n-1)/q) != 1 (mod n) for every
    prime factor q of n - 1, found here by trial division.
    """
    if not is_prime(n):
        raise ValueError(f"primitive_root requires a prime, got {n}")
    factors = []
    rest = n - 1
    q = 2
    while q * q <= rest:
        if rest % q == 0:
            factors.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        factors.append(rest)
    gamma = 1
    while any(pow(gamma, (n - 1) // q, n) == 1 for q in factors):
        gamma += 1
    return gamma


@dataclass(frozen=True)
class LatticeRule:
    """Prime modulus ``n`` and generating vector ``g`` with 0 <= g_j < n."""

    n: int
    g: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "g", tuple(int(v) for v in self.g))
        check_modulus(self.n)
        if len(self.g) < 1:
            raise ValueError("generating vector must have dimension >= 1")
        if any(not (0 <= v < self.n) for v in self.g):
            raise ValueError("generating vector entries must lie in {0, ..., n-1}")

    @property
    def d(self) -> int:
        return len(self.g)

    def points(self) -> np.ndarray:
        """The N node vectors {(k/N) g} as an (N, d) float array.

        Numerators (k * g_j) mod N are computed exactly in int64 before the
        single final division by N.
        """
        k = np.arange(self.n, dtype=np.int64)[:, None]
        g = np.asarray(self.g, dtype=np.int64)[None, :]
        return (k * g % self.n) / float(self.n)

    def to_dict(self) -> dict:
        return {"n": self.n, "g": list(self.g)}

    @classmethod
    def from_dict(cls, data: dict) -> "LatticeRule":
        """The rule of a document: {n, g}, or {n, g_scalar, d} expanded
        by :func:`korobov_vector`."""
        if isinstance(data, dict) and "g_scalar" in data:
            return korobov_vector(KorobovParam.from_dict(data))
        as_object(data, "lattice rule", ("n", "g"))
        g = tuple(as_int(v, "g entry") for v in as_list(data["g"], "g"))
        return cls(n=as_int(data["n"], "n"), g=g)


@dataclass(frozen=True)
class KorobovParam:
    """Scalar Korobov parameter expanding to (1, g, g^2, ..., g^(d-1)) mod n."""

    n: int
    g: int
    d: int

    def __post_init__(self) -> None:
        check_modulus(self.n)
        if not (0 <= self.g < self.n):
            raise ValueError(f"scalar generator must lie in {{0, ..., n-1}}, got {self.g}")
        check_dimension(self.d)

    def to_dict(self) -> dict:
        return {"n": self.n, "g_scalar": self.g, "d": self.d}

    @classmethod
    def from_dict(cls, data: dict) -> "KorobovParam":
        as_object(data, "Korobov parameter", ("n", "g_scalar", "d"))
        n, g, d = (as_int(data[key], key) for key in ("n", "g_scalar", "d"))
        return cls(n=n, g=g, d=d)


def korobov_vectors(n: int, d: int, generators) -> np.ndarray:
    """Rows (1, g, ..., g^(d-1)) mod n, int64, one per scalar generator g in
    [0, n); the first component is always 1 (also for g = 0)."""
    generators = np.asarray(generators, dtype=np.int64)
    vectors = np.ones((generators.size, d), dtype=np.int64)
    for j in range(1, d):
        vectors[:, j] = vectors[:, j - 1] * generators % n
    return vectors


def korobov_vector(param: KorobovParam) -> LatticeRule:
    """Expand a scalar Korobov parameter into its lattice rule, the one row
    of :func:`korobov_vectors` as Python integers."""
    return LatticeRule(n=param.n, g=tuple(pow(param.g, j, param.n) for j in range(param.d)))
