import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korobov import (
    SummationCapError,
    WeightFamily,
    WeightModel,
    a_lambda,
    kernel,
    mean_pow_error,
    rho,
    theta,
)
from korobov import space
from korobov.space import CHUNK_CELLS, SUM_TERM_CAP, series_tail_bound, theta_terms, truncation_horizon
from korobov.wce import theta_table

from conftest import brute_theta, make_model


# --- rho -------------------------------------------------------------------

def test_rho_zero_vector_is_one(unit_model):
    assert rho((0, 0, 0), unit_model) == 1.0


def test_rho_single_frequency(unit_model):
    assert rho((1,), unit_model) == pytest.approx(0.5, abs=1e-15)


def test_scaled_model_has_mass_rho_to_the_lambda():
    model = make_model(omega=0.7, a=("linear", 1.0), b=("constant", 0.5), prefix_a=(0.5,))
    for lam in (0.5, 0.25, 0.1):
        for h in ((1,), (2, -1), (0, 3, 1)):
            assert rho(h, model.scaled(lam)) == pytest.approx(rho(h, model) ** lam, rel=1e-14)
    assert model.scaled(1.0) is model


@pytest.mark.parametrize("lam", [0.0, -0.5, 1.5, math.nan])
def test_scaled_rejects_bad_lambda(lam, unit_model):
    with pytest.raises(ValueError):
        unit_model.scaled(lam)


def test_scaled_rejects_a_lambda_that_rounds_omega_to_one(unit_model):
    with pytest.raises(ValueError, match="lambda = 1e-300"):
        unit_model.scaled(1e-300)
    with pytest.raises(ValueError, match="lambda"):
        mean_pow_error(7, 2, 1e-300, unit_model)
    assert unit_model.scaled(1e-15).omega < 1.0


def test_equal_scaled_models_share_one_theta_table(linear_model):
    first = theta_table(linear_model.scaled(0.5), 13, 2, 1e-14)
    assert theta_table(linear_model.scaled(0.5), 13, 2, 1e-14) is first


def test_rho_mixed_weights():
    model = make_model(a=("explicit", (1.0, 2.0)))
    # exponent = 1*|2| + 2*|1| = 4
    assert rho((2, 1), model) == pytest.approx(0.0625, abs=1e-15)


@given(
    h=st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    omega=st.sampled_from([0.3, 0.5, 0.9]),
    kappa=st.sampled_from([0.5, 1.0, 2.0]),
)
@settings(max_examples=60, deadline=None)
def test_rho_even_and_multiplicative(h, omega, kappa):
    model = make_model(omega=omega, a=("linear", kappa))
    neg = [-v for v in h]
    assert rho(neg, model) == pytest.approx(rho(h, model), rel=1e-12)
    # multiplicative across a coordinate split with matching weight slices
    if len(h) > 1:
        left = rho(h[:1], model)
        right_model = make_model(omega=omega, a=("linear", kappa), prefix_a=tuple(kappa * (j + 1) for j in range(1, len(h))))
        right = rho(h[1:], right_model)
        assert left * right == pytest.approx(rho(h, model), rel=1e-12)


# --- a_lambda ----------------------------------------------------------------

def test_a_lambda_geometric(unit_model):
    assert a_lambda(1.0, unit_model) == pytest.approx(2.0, abs=1e-14)


def test_a_lambda_scaled_exponent_matches_geometric():
    model = make_model(a=("constant", 2.0))
    assert a_lambda(0.5, model) == pytest.approx(2.0, abs=1e-14)


def test_a_lambda_quadratic_exponent():
    # oracle: direct summation of 2^-(h^2-1); frozen from a 60-term sum
    expected = math.fsum(2.0 ** -(h * h - 1) for h in range(1, 60))
    model = make_model(b=("constant", 2.0))
    got = a_lambda(1.0, model)
    assert got == pytest.approx(expected, abs=1e-14)
    assert got == pytest.approx(1.1289368272118772, abs=1e-13)


def test_a_lambda_at_least_one_and_monotone():
    model = make_model(omega=0.7, a=("constant", 0.8), b=("constant", 1.5))
    lams = [1.0, 0.5, 0.25, 0.125]
    vals = [a_lambda(l, model) for l in lams]
    assert all(v >= 1.0 for v in vals)
    assert vals == sorted(vals)  # nonincreasing in lambda -> increasing here
    # nonincreasing in a_star
    bigger_a = make_model(omega=0.7, a=("constant", 1.6), b=("constant", 1.5))
    assert a_lambda(1.0, bigger_a) <= a_lambda(1.0, model)


@pytest.mark.parametrize("omega, kappa, lam", [(0.7, 0.8, 0.125), (0.99, 0.05, 1.0)])
def test_a_lambda_b_above_one_is_the_whole_horizon_sum(omega, kappa, lam):
    # exp(-c t**b) is not completely monotone for b > 1 (at c = 5e-4, below
    # (b-1) / (b * 64**b), even f''(64) < 0), so no Euler-Maclaurin
    # certificate holds: the minimal horizon, past 64 here, is summed
    c = lam * kappa * -math.log(omega)
    budget = 1e-14 / math.exp(c)
    assert series_tail_bound(c, 1.5, space._EM_SPLIT) > budget
    horizon, _ = truncation_horizon(c, 1.5, budget)
    h = np.arange(1, horizon + 1, dtype=np.float64)
    expected = math.fsum(np.exp(-c * (h**1.5 - 1.0)))
    model = make_model(omega=omega, a=("constant", kappa), b=("constant", 1.5))
    assert a_lambda(lam, model) == pytest.approx(expected, rel=4e-16, abs=0.0)


@pytest.mark.parametrize("omega", [0.97, 0.99, 0.999])
@pytest.mark.parametrize("lam", [1.0, 0.5])
def test_a_lambda_b_one_within_an_ulp_of_mpmath(omega, lam):
    # A = 1 / (1 - omega**lam) with c = lam * -log(omega); forming c from a
    # rounded 1/omega put A 11.5 to 769 ulps off here
    mpmath = pytest.importorskip("mpmath")
    got = a_lambda(lam, make_model(omega=omega))
    with mpmath.workdps(40):
        exact = 1 / -mpmath.expm1(mpmath.mpf(lam) * mpmath.log(mpmath.mpf(omega)))
        assert abs(got - exact) <= math.ulp(got), float((got - exact) / math.ulp(got))


# the bench's slow-decay model: omega = 0.9, logarithmic a, b = 1/2
SLOW = make_model(omega=0.9, a=("logarithmic", 1.0), b=("constant", 0.5))


@pytest.mark.parametrize("lam, chunks", [(1.0, 8), (0.5, 32)])
def test_a_lambda_chunked_sum_matches_whole_array_fsum(lam, chunks):
    # the minimal horizon spans several chunks and ends inside the last one
    c = lam * SLOW.a_star * -math.log(SLOW.omega)
    horizon, _ = truncation_horizon(c, 0.5, 1e-14 / math.exp(c))
    assert chunks // 2 * CHUNK_CELLS < horizon < chunks * CHUNK_CELLS
    assert horizon % CHUNK_CELLS != 0
    h = np.arange(1, horizon + 1, dtype=np.float64)
    expected = math.fsum(np.exp(-c * (h**0.5 - 1.0)))
    assert a_lambda(lam, SLOW) == pytest.approx(expected, rel=4e-16, abs=0.0)


@pytest.mark.parametrize("lam", [1.0, 0.8889749224155022, 0.6597065465951256, 0.5, 0.375, 0.25])
def test_a_lambda_euler_maclaurin_within_an_ulp_of_mpmath(lam):
    # the Euler-Maclaurin path against mpmath fed the same float c: its
    # leading term is formed beyond double precision and the head and the
    # formula's terms are added in one fsum, which keeps it within an ulp
    mpmath = pytest.importorskip("mpmath")
    c = lam * SLOW.a_star * SLOW.rate
    assert series_tail_bound(c, 0.5, space._EM_SPLIT) > 1e-14 / math.exp(c)
    got = a_lambda(lam, SLOW)
    with mpmath.workdps(30):
        f, _, tail = _mp_tail(mpmath.mpf(c), mpmath.mpf(0.5), 32, mpmath)
        exact = mpmath.fsum(f(h) for h in range(1, 32)) + tail
        assert abs(got - exact) <= math.ulp(got), float((got - exact) / math.ulp(got))


def test_a_lambda_memory_is_one_chunk():
    # the horizon at lambda = 1/4 is about 6e6 terms, 48 MB per float64 array
    tracemalloc.start()
    try:
        a_lambda(0.25, SLOW)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_a_lambda_direct_sum_where_euler_maclaurin_certifies_nothing():
    # at tol 1e-40 no number of Bernoulli corrections certifies, so the
    # chunked direct sum runs to a horizon of about 2e6 terms, 16 MB per
    # float64 array
    tol = 1e-40
    c = SLOW.a_star * -math.log(SLOW.omega)
    assert space._em_tail(c, 0.5, tol) is None
    horizon, _ = truncation_horizon(c, 0.5, tol / math.exp(c))
    assert 16 * CHUNK_CELLS < horizon < SUM_TERM_CAP
    assert horizon % CHUNK_CELLS != 0
    tracemalloc.start()
    try:
        got = a_lambda(1.0, SLOW, tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    h = np.arange(1, horizon + 1, dtype=np.float64)
    assert got == pytest.approx(math.fsum(np.exp(-c * (h**0.5 - 1.0))), rel=4e-16, abs=0.0)


@pytest.mark.parametrize("lam", [0.0, -0.5, 1.5, math.nan])
def test_a_lambda_rejects_bad_lambda_whatever_is_cached(lam):
    a_lambda(1.0, SLOW)
    for _ in range(2):
        with pytest.raises(ValueError):
            a_lambda(lam, SLOW)


def test_a_lambda_cap_error_for_pathological_weights():
    model = make_model(omega=0.99, a=("constant", 0.01), b=("constant", 0.2))
    with pytest.raises(SummationCapError):
        a_lambda(1.0, model)


def test_cap_decision_is_one_tail_bound_at_the_cap():
    # truncation_horizon raises exactly when the bound at the cap misses tol,
    # which is the one evaluation a_lambda makes to decide the cap
    outcomes = []
    for b, c, tol in itertools.product(
        (0.1, 0.2, 0.3, 0.5, 0.7, 0.9), (0.003, 0.03, 0.1, 0.3, 1.0, 3.0),
        (1e-3, 1e-8, 1e-12, 1e-14, 1e-16, 1e-20),
    ):
        misses = series_tail_bound(c, b, SUM_TERM_CAP) > tol
        try:
            truncation_horizon(c, b, tol)
        except SummationCapError:
            assert misses, (b, c, tol)
        else:
            assert not misses, (b, c, tol)
        outcomes.append(misses)
    assert len(outcomes) == 216 and 0 < sum(outcomes) < 216
    # and at the boundary itself, where monotonicity in the horizon decides
    for b, c in ((0.2, 1.0), (0.2, 3.0), (0.3, 0.3), (0.3, 1.0), (0.5, 0.03), (0.7, 0.003)):
        at_cap = series_tail_bound(c, b, SUM_TERM_CAP)
        truncation_horizon(c, b, at_cap)
        with pytest.raises(SummationCapError):
            truncation_horizon(c, b, math.nextafter(at_cap, 0.0))


# The a_lambda grid: omega x kappa (constant a) x b x lambda, 135 cases.
A_GRID_B = (0.2, 0.3, 0.5, 0.7, 0.9)
A_GRID_LAMS = (1.0, 0.5, 0.25)
# How many of A_GRID_LAMS, counted from the smallest, raise the cap error at
# each (omega, kappa) and b of A_GRID_B: frozen from the direct summation
# that a_lambda used before its Euler-Maclaurin tail (54 of 135 cases).
A_GRID_CAPPED = {
    (0.5, 0.3): (3, 3, 0, 0, 0), (0.5, 1.0): (3, 2, 0, 0, 0), (0.5, 3.0): (2, 0, 0, 0, 0),
    (0.9, 0.3): (3, 3, 1, 0, 0), (0.9, 1.0): (3, 3, 0, 0, 0), (0.9, 3.0): (3, 3, 0, 0, 0),
    (0.97, 0.3): (3, 3, 3, 0, 0), (0.97, 1.0): (3, 3, 1, 0, 0), (0.97, 3.0): (3, 3, 0, 0, 0),
}


def _mp_tail(c, b, split, mpmath):
    """(f, e^c int_split^inf f, sum_{h >= split} f(h)) for f(t) =
    exp(-c (t**b - 1)) in mpmath's working precision.  The sum is the
    Abel-Plana formula (mpmath.sumap), which shares no step with the
    Euler-Maclaurin evaluation under test."""

    def f(t):
        return mpmath.exp(-c * (t**b - 1))

    integral = mpmath.exp(c) * mpmath.gammainc(1 / b, c * split**b) / (b * c ** (1 / b))
    return f, integral, mpmath.sumap(f, [split, mpmath.inf], integral=integral)


def _mp_a_lambda(omega, kappa, b, lam, mpmath, split=32):
    """sum_h omega**(lam*kappa*(h**b - 1)): a direct head and _mp_tail."""
    c = mpmath.mpf(lam) * mpmath.mpf(kappa) * mpmath.log(1 / mpmath.mpf(omega))
    f, _, tail = _mp_tail(c, mpmath.mpf(b), split, mpmath)
    return mpmath.fsum(f(h) for h in range(1, split)) + tail


def test_a_lambda_matches_mpmath_on_grid():
    # stated before running: |a_lambda - exact| <= tol + 32 * 2**-52 * A
    mpmath = pytest.importorskip("mpmath")
    tol, checked = 1e-14, 0
    for (omega, kappa), capped in A_GRID_CAPPED.items():
        for b, n_capped in zip(A_GRID_B, capped):
            model = make_model(omega=omega, a=("constant", kappa), b=("constant", b))
            for lam in A_GRID_LAMS:
                if lam in A_GRID_LAMS[len(A_GRID_LAMS) - n_capped :]:
                    with pytest.raises(SummationCapError):
                        a_lambda(lam, model, tol)
                    continue
                got = a_lambda(lam, model, tol)
                with mpmath.workdps(25):
                    exact = _mp_a_lambda(omega, kappa, b, lam, mpmath)
                    error = float(abs(got - exact))
                assert error <= tol + 32 * 2.0**-52 * got, (omega, kappa, b, lam, error)
                checked += 1
    assert checked == 81


def test_bernoulli_ratios_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for k, ratio in enumerate(space._BERNOULLI_RATIOS, start=1):
        exact = mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k)
        assert ratio == float(exact), k


@pytest.mark.parametrize(
    "omega, kappa, b, lam",
    [
        (0.5, 0.3, 0.5, 1.0), (0.5, 1.0, 0.3, 1.0), (0.5, 3.0, 0.2, 1.0),  # x <= s
        (0.97, 0.3, 0.7, 0.5), (0.9, 0.3, 0.9, 0.25),
        (0.5, 0.3, 0.7, 1.0), (0.5, 3.0, 0.3, 1.0), (0.5, 3.0, 0.5, 1.0),  # x > s
        (0.5, 1.0, 0.9, 1.0),
    ],
)
def test_euler_maclaurin_remainder_has_sign_and_size_of_first_omitted_term(omega, kappa, b, lam):
    # The tail formula at the split and order the code picks, in 50-digit
    # arithmetic: the exact tail minus it lies between 0 and the first
    # omitted correction, whatever float rounding does.
    mpmath = pytest.importorskip("mpmath")
    c = lam * kappa * -math.log(omega)
    split = space._EM_SPLIT
    assert series_tail_bound(c, b, split) > 1e-14 / math.exp(c)  # a_lambda takes the EM path
    _, m = space._em_tail(c, b, 1e-14)
    with mpmath.workdps(50):
        f, integral, exact = _mp_tail(mpmath.mpf(c), mpmath.mpf(b), split, mpmath)
        derivs = [t * mpmath.factorial(k) for k, t in enumerate(mpmath.taylor(f, split, 2 * m + 1))]
        formula = integral + f(split) / 2 - mpmath.fsum(
            mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * derivs[2 * k - 1] for k in range(1, m + 1)
        )
        omitted = -mpmath.bernoulli(2 * m + 2) / mpmath.factorial(2 * m + 2) * derivs[2 * m + 1]
        ratio = (exact - formula) / omitted
    assert omitted != 0 and 0 <= ratio <= 1, (m, ratio)


# --- theta -------------------------------------------------------------------

def test_theta_at_zero_geometric(unit_model):
    assert theta(0.0, 1, unit_model) == pytest.approx(3.0, abs=1e-12)


def test_theta_at_half_alternating(unit_model):
    assert theta(0.5, 1, unit_model) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_theta_against_brute_force():
    model = make_model(a=("constant", 2.0), b=("constant", 2.0))
    expected = brute_theta(1.0 / 3.0, 0.5, 2.0, 2.0, horizon=64)
    assert theta(1.0 / 3.0, 1, model) == pytest.approx(expected, abs=1e-13)


@given(t=st.floats(0.0, 0.999999), omega=st.sampled_from([0.3, 0.5, 0.9]))
@settings(max_examples=40, deadline=None)
def test_theta_symmetry_and_bounds(t, omega):
    model = make_model(omega=omega)
    v = theta(t, 1, model)
    assert v == pytest.approx(theta((1.0 - t) % 1.0, 1, model), abs=1e-12)
    theta0 = theta(0.0, 1, model)
    assert v <= theta0 + 1e-12
    assert theta0 >= 1.0
    w, _ = theta_terms(1, model)
    assert v >= 1.0 - 2.0 * float(np.sum(w)) - 1e-12


def test_theta_fractional_b_certified_against_brute():
    model = make_model(omega=0.9, b=("constant", 0.5))
    expected = brute_theta(0.2, 0.9, 1.0, 0.5, horizon=200_000)
    assert theta(0.2, 1, model, tol=1e-10) == pytest.approx(expected, abs=1e-9)


def test_truncation_horizon_certificate_is_safe():
    # tail bound must dominate the actual remainder
    for b in (0.5, 1.0, 2.0):
        c = 0.4
        horizon, bound = truncation_horizon(c, b, 1e-10)
        actual_tail = math.fsum(
            math.exp(-c * h**b) for h in range(horizon + 1, horizon + 500_000)
        )
        assert actual_tail <= bound <= 1e-10


def test_truncation_horizon_b_lt1_is_minimal():
    # the returned horizon certifies and the one below it does not
    checked = 0
    for c in (0.05, 0.3, 1.0, 3.0):
        for b in (0.25, 0.5, 0.75, 0.9):
            for tol in (1e-4, 1e-10, 1e-16):
                try:
                    horizon, bound = truncation_horizon(c, b, tol)
                except SummationCapError:
                    continue
                assert bound == series_tail_bound(c, b, horizon) <= tol, (c, b, tol)
                assert series_tail_bound(c, b, horizon - 1) > tol, (c, b, tol, horizon)
                checked += 1
    assert checked >= 40, checked


def test_truncation_horizon_b_ge1_is_minimal():
    # the same search serves b >= 1, including c = 800, where e^-c
    # underflows to 0 and the tail past h = 1 certifies every tol
    for b, c, tol in itertools.product((1.0, 1.5, 2.0), (0.01, math.log(2.0), 3.0, 800.0), (1e-3, 1e-14, 1e-30)):
        horizon, bound = truncation_horizon(c, b, tol)
        assert bound == series_tail_bound(c, b, horizon) <= tol, (c, b, tol)
        if horizon > 1:
            assert series_tail_bound(c, b, horizon - 1) > tol, (c, b, tol, horizon)
    assert all(truncation_horizon(800.0, b, 1e-30) == (1, 0.0) for b in (1.0, 1.5, 2.0))


def test_truncation_horizon_at_exact_integer_levels():
    # omega = 1/2, a_1 = 1, b = 1: the tail past H is exactly 2**-H, so
    # rounding decides at tol = 2**-k: the computed bound at H = 24 lies 7
    # ulps above 2**-24, and the one at H = 47 meets 2**-47
    c = math.log(2.0)
    horizon, bound = truncation_horizon(c, 1.0, 2.0**-24)
    assert bound <= 2.0**-24 and horizon == 25
    assert truncation_horizon(c, 1.0, 2.0**-47) == (47, series_tail_bound(c, 1.0, 47))


def test_tail_bound_b_lt1_covers_mpmath_tail():
    # the closed-form b < 1 bound against a 40-digit Euler-Maclaurin tail;
    # where it returns inf it claims nothing (truncation_horizon then doubles H)
    mpmath = pytest.importorskip("mpmath")
    for b in (0.25, 0.5, 0.75):
        for c in (0.05, 0.3, 1.0):
            for horizon in (16, 64, 256):
                bound = series_tail_bound(c, b, horizon)
                if math.isinf(bound):
                    continue
                with mpmath.workdps(40):
                    bm, cm = mpmath.mpf(b), mpmath.mpf(c)
                    tail = mpmath.nsum(
                        lambda h: mpmath.exp(-cm * h**bm), [horizon + 1, mpmath.inf],
                        method="euler-maclaurin", steps=[200],
                    )
                assert bound >= tail, (b, c, horizon)


# --- kernel ------------------------------------------------------------------

def test_kernel_diagonal_and_product(unit_model):
    assert kernel((0.25,), (0.25,), unit_model) == pytest.approx(3.0, abs=1e-12)
    two = make_model()
    val = kernel((0.5, 0.25), (0.0, 0.75), two)
    assert val == pytest.approx((1.0 / 3.0) ** 2, abs=1e-12)


def test_kernel_symmetric(unit_model):
    rng = np.random.default_rng(7)
    for _ in range(5):
        x, y = rng.random(3), rng.random(3)
        m = make_model(a=("linear", 1.0))
        assert kernel(x, y, m) == pytest.approx(kernel(y, x, m), rel=1e-12)


def test_kernel_gram_positive_semidefinite():
    rng = np.random.default_rng(11)
    model = make_model(omega=0.6, a=("linear", 0.7))
    pts = rng.random((6, 2))
    gram = np.array([[kernel(x, y, model) for y in pts] for x in pts])
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -1e-10


def test_kernel_integrates_to_one_d1():
    model = make_model(omega=0.9)
    grid = (np.arange(4096) + 0.5) / 4096
    vals = [theta(t, 1, model) for t in grid]
    assert float(np.mean(vals)) == pytest.approx(1.0, abs=1e-6)


# --- model validation and serialization ---------------------------------------

def test_rejects_bad_omega():
    for omega in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            make_model(omega=omega)


def test_rejects_decreasing_a():
    with pytest.raises(ValueError):
        make_model(a=("explicit", (2.0, 1.0)))
    with pytest.raises(ValueError):
        make_model(a=("power", 1.0, -0.5))
    with pytest.raises(ValueError):
        WeightModel(
            omega=0.5,
            a=WeightFamily("linear", 1.0),
            b=WeightFamily("constant", 1.0),
            prefix_a=(5.0,),  # prefix above the family continuation
        )


def test_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        make_model(a=("constant", 0.0))
    with pytest.raises(ValueError):
        make_model(b=("constant", -1.0))
    with pytest.raises(ValueError):
        make_model(b=("power", 1.0, -1.0))  # inf b_j = 0


def test_b_star_closed_form():
    model = make_model(b=("explicit", (2.0, 0.75, 1.5)), prefix_b=(0.9,))
    # combined sequence: 0.9, 0.75, 1.5, 1.5, ...
    assert model.b_star == pytest.approx(0.75)
    assert make_model(b=("logarithmic", 1.0)).b_star == pytest.approx(math.log(2.0))


def test_json_round_trip_and_strictness():
    model = make_model(omega=0.7, a=("linear", 1.5), b=("power", 1.0, 2.0), prefix_a=(1.0,))
    again = WeightModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert again == model
    with pytest.raises(ValueError):
        WeightModel.from_dict({"omega": 0.5, "a": {"kind": "cubic", "kappa": 1.0}, "b": {"kind": "constant", "kappa": 1.0}})
    with pytest.raises(ValueError):
        WeightModel.from_dict({"omega": 0.5, "a": {"kind": "constant", "kappa": 1.0}, "b": {"kind": "constant", "kappa": 1.0}, "extra": 1})
    with pytest.raises(ValueError):
        WeightModel.from_dict({"omega": 0.5, "a": {"kind": "constant", "kappa": 1.0, "p": 2.0}, "b": {"kind": "constant", "kappa": 1.0}})
