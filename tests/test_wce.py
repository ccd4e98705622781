import itertools
import math
import tracemalloc

import numpy as np
import pytest

from korobov import (
    LatticeRule,
    OracleInfeasibleError,
    dominant_dual_frequency,
    is_prime,
    kernel,
    korobov_survivors,
    korobov_vector,
    KorobovParam,
    rho,
    theta,
    dual_enum_work_estimate,
    wce2_dual_enum,
    wce2_kernel_double_sum,
    wce2_theta_product,
)

import korobov.space
import korobov.wce
from korobov.space import kernel_with_bound
from korobov.wce import theta_table

from conftest import brute_dual_e2, make_model
from conftest import brute_dominant_frequency, brute_korobov_survivors

EVALUATORS = (wce2_dual_enum, wce2_theta_product, wce2_kernel_double_sum)


def test_three_methods_on_geometric_case(unit_model):
    # d=1, N=2, g=(1): dual = even nonzero integers, e2 = 2 * (1/4)/(1 - 1/4)
    rule = LatticeRule(2, (1,))
    for fn in EVALUATORS:
        est = fn(rule, unit_model)
        assert est.value == pytest.approx(2.0 / 3.0, abs=1e-12), fn.__name__
        assert est.value >= -est.trunc_bound


def test_zero_generator_gives_theta0_minus_one(unit_model):
    # d=1, N=3, g=(0): every h is dual, e2 = theta(0) - 1
    rule = LatticeRule(3, (0,))
    for fn in EVALUATORS:
        assert fn(rule, unit_model).value == pytest.approx(2.0, abs=1e-12)


def test_all_zero_vector_d2():
    model = make_model(a=("linear", 1.0))
    rule = LatticeRule(5, (0, 0))
    expected = theta(0.0, 1, model) * theta(0.0, 2, model) - 1.0
    for fn in EVALUATORS:
        assert fn(rule, model).value == pytest.approx(expected, abs=1e-10), fn.__name__


def test_methods_agree_with_box_oracle():
    model = make_model(a=("linear", 1.0))
    rule = LatticeRule(7, (1, 3))
    expected = brute_dual_e2(7, (1, 3), model, box=60)
    for fn in EVALUATORS:
        assert fn(rule, model).value == pytest.approx(expected, abs=1e-11), fn.__name__


def test_methods_agree_on_random_small_corpus():
    rng = np.random.default_rng(20240915)
    omegas = (0.3, 0.5, 0.9)
    a_fams = (("constant", 1.0), ("linear", 1.0), ("logarithmic", 1.0))
    for i in range(30):
        omega = omegas[i % 3]
        model = make_model(omega=omega, a=a_fams[i % len(a_fams)])
        d = int(rng.integers(1, 4))
        n = int(rng.choice([2, 3, 5, 7, 13]))
        g = tuple(int(v) for v in rng.integers(0, n, size=d))
        rule = LatticeRule(n, g)
        tol = 1e-12 if omega <= 0.5 else 1e-8
        e_dual = wce2_dual_enum(rule, model, 1.0, tol)
        e_theta = wce2_theta_product(rule, model, 1.0, tol)
        e_double = wce2_kernel_double_sum(rule, model, tol)
        slack = 1e-10
        assert abs(e_dual.value - e_theta.value) <= e_dual.trunc_bound + e_theta.trunc_bound + slack
        assert abs(e_double.value - e_theta.value) <= e_double.trunc_bound + e_theta.trunc_bound + slack


def test_scalar_multiplication_invariance():
    model = make_model(a=("linear", 1.0))
    rule = LatticeRule(13, (1, 5, 8))
    base = wce2_theta_product(rule, model).value
    for c in (2, 3, 7, 12):
        scaled = LatticeRule(13, tuple(c * v % 13 for v in rule.g))
        assert wce2_theta_product(scaled, model).value == pytest.approx(base, abs=1e-12)


def test_coordinate_negation_invariance():
    model = make_model(a=("linear", 1.0))
    rule = LatticeRule(11, (2, 7))
    base = wce2_theta_product(rule, model).value
    flipped = LatticeRule(11, (2, (11 - 7) % 11))
    assert wce2_theta_product(flipped, model).value == pytest.approx(base, abs=1e-12)


def test_korobov_reflection_invariance():
    model = make_model(a=("linear", 1.0))
    for n, g in ((13, 5), (31, 12), (7, 3)):
        e_g = wce2_theta_product(korobov_vector(KorobovParam(n, g, 3)), model).value
        e_r = wce2_theta_product(korobov_vector(KorobovParam(n, n - g, 3)), model).value
        assert e_g == pytest.approx(e_r, abs=1e-12)


def test_jensen_consistency():
    model = make_model(a=("linear", 1.0))
    rule = LatticeRule(13, (1, 5))
    e2_full = wce2_theta_product(rule, model, 1.0).value
    for lam in (1.0, 0.5, 0.25):
        e2_lam = wce2_theta_product(rule, model, lam).value
        assert e2_lam >= e2_full**lam - 1e-10


def test_appending_zero_coordinate_cannot_decrease_error():
    model = make_model(a=("linear", 1.0))
    rule = LatticeRule(7, (1, 3))
    extended = LatticeRule(7, (1, 3, 0))
    e_small = wce2_theta_product(rule, model).value
    e_big = wce2_theta_product(extended, model).value
    assert e_big >= e_small - 1e-12
    # exact relation: e_big + 1 = (e_small + 1) * theta_3(0)
    th0 = theta(0.0, 3, model)
    assert e_big + 1.0 == pytest.approx((e_small + 1.0) * th0, rel=1e-10)


def test_double_sum_matches_literal_kernel_loop():
    model = make_model(a=("linear", 1.0))
    rule = LatticeRule(5, (1, 2))
    pts = rule.points()
    literal = -1.0 + np.mean(
        [[kernel(x, y, model) for y in pts] for x in pts]
    )
    est = wce2_kernel_double_sum(rule, model)
    assert est.value == pytest.approx(float(literal), abs=1e-11)


def _pairwise_modulo_double_sum(rule, model, tol=korobov.space.DEFAULT_TOL):
    """Frozen reference: factors from np.cos of the reduced angle matrix and
    a gather of factors[j][(k - l) g_j mod N] for every pair, block by block."""
    n, d = rule.n, rule.d
    terms, bound = korobov.space.theta_factors(model, d, tol)
    chunk_cells = korobov.space.CHUNK_CELLS
    factors = []
    for w in terms:
        hm = np.arange(1, w.size + 1, dtype=np.int64) % n
        vals = np.empty(n, dtype=np.float64)
        r_chunk = max(1, chunk_cells // w.size)
        for start in range(0, n, r_chunk):
            r = np.arange(start, min(start + r_chunk, n), dtype=np.int64)
            angles = 2.0 * math.pi / n * (r[:, None] * hm[None, :] % n)
            vals[start : start + r.size] = 1.0 + 2.0 * np.sum(np.cos(angles) * w[None, :], axis=1)
        factors.append(vals)
    k = np.arange(n, dtype=np.int64)
    total = 0.0
    chunk = max(1, chunk_cells // n)
    for start in range(0, n, chunk):
        rows = k[start : start + chunk, None] - k[None, :]
        acc = np.ones(rows.shape, dtype=np.float64)
        for j in range(d):
            acc *= factors[j][rows * rule.g[j] % n]
        total += float(np.sum(acc))
    return total / float(n) ** 2 - 1.0, bound


SLOW_MODEL = make_model(omega=0.9, a=("logarithmic", 1.0), b=("constant", 0.5))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 5, 37, 101, 1009])
def test_kernel_double_sum_bit_identical_to_pairwise_modulo_loop(n, d):
    # the same N^2 products in the same blocks and the same factor values
    # bit for bit, with g holding zero and repeated entries
    vectors = [(1, 0, 1, 1), (1, 1, 1, 1), (n - 1, 2 % n, 0, n // 2), (1, 5 % n, 25 % n, 125 % n)]
    vectors = list(dict.fromkeys(g[:d] for g in vectors))
    cases = [(g, make_model(a=("linear", 1.0))) for g in vectors]
    if n <= 37 and d <= 2:  # the slow model's series run to ~3e5 terms
        cases += [(g, SLOW_MODEL) for g in vectors[:2]]
    for g, model in cases:
        rule = LatticeRule(n, g)
        est = wce2_kernel_double_sum(rule, model)
        assert (est.value, est.trunc_bound) == _pairwise_modulo_double_sum(rule, model), (g, model)


def test_dual_enum_infeasible_raises():
    model = make_model(omega=0.9, b=("constant", 0.5))
    rule = LatticeRule(13, (1, 5, 8))
    with pytest.raises(OracleInfeasibleError):
        wce2_dual_enum(rule, model, 1.0, 1e-10)


def test_enum_cap_raises(monkeypatch):
    model = make_model(a=("linear", 1.0))
    rule = LatticeRule(7, (1, 3))
    monkeypatch.setattr(korobov.wce, "ENUM_CAP", 10)
    with pytest.raises(OracleInfeasibleError, match="^estimated enumeration work"):
        wce2_dual_enum(rule, model)


def test_enum_cap_raises_mid_walk(monkeypatch):
    # the estimate (3771) passes the up-front check against 4 * cap and the
    # 207 folded frequencies stay below the cap, but the block-wise count of
    # the prefix cells (69 on the first level, 3571 on the second, in blocks
    # of at most 256) crosses it part way
    model = make_model(a=("linear", 1.0))
    rule = LatticeRule(7, (1, 3, 2))
    monkeypatch.setattr(korobov.wce, "ENUM_CAP", 1000)
    monkeypatch.setattr(korobov.wce, "BLOCK_CELLS", 256)
    assert 1000 < korobov.wce.dual_enum_work_estimate(rule, model) <= 4000
    with pytest.raises(OracleInfeasibleError, match="^enumeration work exceeded"):
        wce2_dual_enum(rule, model)


def test_dual_enum_certificate_honours_tol():
    # T is solved in floating point; the reported certificate must still be
    # at most tol, not tol plus a few ulps
    grid = itertools.product(
        (0.3, 0.5, 0.9), ("constant", "linear", "logarithmic"), (0.5, 1.0, 2.0),
        (1, 2, 3, 4), (1e-14, 1e-11, 1e-8),
    )
    enumerated = 0
    for omega, a_kind, b, d, tol in grid:
        model = make_model(omega=omega, a=(a_kind, 1.0), b=("constant", b))
        _, tail = korobov.wce._enum_cut(model, d, tol)
        assert tail <= tol, (omega, a_kind, b, d, tol)
        rule = korobov_vector(KorobovParam(101, 7, d))
        if dual_enum_work_estimate(rule, model, 1.0, tol) <= 2e4:
            assert wce2_dual_enum(rule, model, 1.0, tol).trunc_bound == tail
            enumerated += 1
    assert enumerated >= 100, enumerated


def _theta0_mp(mpmath, c, b):
    """1 + 2 * sum_{h >= 1} exp(-c * h**b) to 40 digits: 255 terms directly,
    the rest by Euler-Maclaurin at M = 256 with the exact tail integral
    Gamma(1/b, c M**b) / (b c**(1/b)); the neglected remainder is far below
    1e-20 relative for the grid below."""
    with mpmath.workdps(40):
        c, b = mpmath.mpf(c), mpmath.mpf(b)
        f = lambda t: mpmath.exp(-c * t**b)  # noqa: E731
        m = 256
        head = mpmath.fsum(f(h) for h in range(1, m))
        integral = mpmath.gammainc(1 / b, c * m**b) / (b * c ** (1 / b))
        em = mpmath.fsum(
            mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * mpmath.diff(f, m, 2 * k - 1)
            for k in range(1, 5)
        )
        return 1 + 2 * (head + integral + f(m) / 2 - em)


def test_enum_cut_majorant_dominates_theta0_product():
    # the Rankin cut's majorant tail / omega**(T/2) of prod_j theta_j(0) at
    # base omega**(1/2) is at least the converged product, up to a rounding
    # slack far below the tau_j it must carry (a majorant without its tail
    # term falls short by up to min(tol, 1e-6) at b = 1, where the tail
    # bound is exact); conftest's 400-term brute_theta does not converge at
    # omega = 0.9, b = 1/2, hence mpmath
    mpmath = pytest.importorskip("mpmath")
    grid = itertools.product(
        (0.3, 0.5, 0.9), ("constant", "linear", "logarithmic"), (0.5, 1.0, 2.0),
        (1, 2, 3, 4), (1e-14, 1e-11, 1e-8),
    )
    theta0 = {}
    for omega, a_kind, b, d, tol in grid:
        model = make_model(omega=omega, a=(a_kind, 1.0), b=("constant", b))
        t_cut, tail = korobov.wce._enum_cut(model, d, tol)
        half = model.scaled(0.5)
        ref = 1.0
        for j in range(1, d + 1):
            c = half.a_j(j) * math.log(1.0 / half.omega)
            if (c, b) not in theta0:
                theta0[c, b] = float(_theta0_mp(mpmath, c, b))
            ref *= theta0[c, b]
        majorant = tail / model.omega ** (t_cut / 2.0)
        assert majorant >= ref * (1.0 - 1e-13), (omega, a_kind, b, d, tol, majorant, ref)


def test_dual_enum_does_not_build_the_product_certificate(monkeypatch):
    # the dual sum reads theta_j(0) majorants only, never the product
    # certificate of theta_factors
    def refuse(*args, **kwargs):
        raise AssertionError("theta_factors called")

    model = make_model(a=("linear", 1.0), b=("constant", 0.5))
    rule = LatticeRule(101, (1, 12, 43))
    ref = wce2_theta_product(rule, model, 1.0, 1e-12)
    monkeypatch.setattr(korobov.space, "theta_factors", refuse)
    monkeypatch.setattr(korobov.wce, "theta_factors", refuse)
    est = wce2_dual_enum(rule, model, 1.0, 1e-12)
    assert 0.0 < est.trunc_bound <= 1e-12
    assert abs(est.value - ref.value) <= est.trunc_bound + ref.trunc_bound + 1e-14


def test_closed_form_rows_build_no_series(monkeypatch):
    # b = 1 rows are the Poisson kernel in closed form: no theta_terms
    # series, no FFT and nothing truncated; the kernel double sum keeps its
    # term-by-term series and their truncation bound
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    model, tol = make_model(a=("linear", 1.0)), 1e-12
    rule = LatticeRule(101, (1, 12, 43))
    with monkeypatch.context() as patch:
        patch.setattr(korobov.space, "theta_terms", refuse("theta_terms"))
        patch.setattr(korobov.wce, "theta_terms", refuse("theta_terms"))
        patch.setattr(np.fft, "fft", refuse("np.fft.fft"))
        table = korobov.wce.ThetaTable(model, rule.n, rule.d, tol)
    assert table.product_bound == 0.0
    assert wce2_kernel_double_sum(rule, model, tol).trunc_bound > 0.0
    # mixed b: the tolerance goes to the series row alone
    mixed = make_model(a=("linear", 1.0), prefix_b=(1.0, 0.5, 1.0))
    est = wce2_theta_product(rule, mixed, 1.0, tol)
    ref = wce2_dual_enum(rule, mixed, 1.0, tol)
    assert 0.0 < est.trunc_bound <= tol
    assert abs(est.value - ref.value) <= est.band + ref.band


def test_closed_form_rows_within_their_rounding_bound():
    # every b = 1 table entry against the Poisson kernel
    # (1 - q^2) / (1 - 2q cos(2 pi m/N) + q^2), q = exp(-c), in 40-digit
    # mpmath fed the same c = a * rate; the bound is the gamma_26 that
    # space._poisson_row's docstring derives from its operation count
    mpmath = pytest.importorskip("mpmath")
    u = 2.0**-53
    gamma_26 = 26 * u / (1 - 26 * u)
    worst = 0.0
    with mpmath.workdps(40):
        for n in (5, 101, 1009, 5003):
            cosines = [mpmath.cos(2 * mpmath.pi * m / n) for m in range(n // 2 + 1)]
            residues = np.minimum(np.arange(n), n - np.arange(n))
            for omega, a in itertools.product((0.1, 0.5, 0.9, 0.99, 0.999), (0.25, 1.0, 3.5)):
                model = make_model(omega=omega, a=("constant", a))
                q = mpmath.exp(-mpmath.mpf(model.a_j(1) * model.rate))
                ref = [(1 - q * q) / (1 - 2 * q * cm + q * q) for cm in cosines]
                # each reference as a float pair hi + lo, so the error is
                # read at far below u
                hi = np.array([float(v) for v in ref])
                lo = np.array([float(v - mpmath.mpf(h)) for v, h in zip(ref, hi)])
                row = korobov.wce.ThetaTable(model, n, 1, 1e-14).values[0]
                rel = np.abs((row - hi[residues]) - lo[residues]) / hi[residues]
                assert rel.max() <= gamma_26, (omega, a, n, rel.max() / u)
                worst = max(worst, float(rel.max()))
    assert worst > 0.0  # the grid reaches rounding


@pytest.mark.parametrize(
    "model, rule, cap_mb",
    [
        (make_model(a=("linear", 1.0)), korobov_vector(KorobovParam(1009, 76, 3)), 8.0),
        (make_model(omega=0.9, a=("logarithmic", 1.0), b=("constant", 0.5)), LatticeRule(37, (1,)), 32.0),
    ],
    ids=["linear-1009-d3", "slow-decay-37-d1"],
)
def test_kernel_double_sum_memory_is_blocked(model, rule, cap_mb):
    # both loops run in CHUNK_CELLS blocks: the factor values (many series
    # terms at omega = 0.9, b = 1/2) and the N^2 pairs
    tracemalloc.start()
    try:
        est = wce2_kernel_double_sum(rule, model)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb < cap_mb
    assert abs(est.value - wce2_theta_product(rule, model).value) <= 2.0 * est.trunc_bound + 1e-12


def test_dual_enum_in_the_exponential_regime():
    # omega = 0.1, a = b = 1: rho(h) = 10**-|h|_1, and the best Korobov
    # generator of N = 401 has e2 ~ 2.02e-27, far below the float64 noise
    # floor of the character sum.  Reference: 50-digit sum over the box
    # |h_j| <= 90, whose outside mass is below 1e-85.
    mpmath = pytest.importorskip("mpmath")
    model = make_model(omega=0.1)
    est = wce2_dual_enum(LatticeRule(401, (1, 85)), model, 1.0, 1e-40)
    with mpmath.workdps(50):
        ref = mpmath.fsum(
            mpmath.mpf(10) ** -(abs(h1) + abs(h2))
            for h2 in range(-90, 91)
            for h1 in range(-90, 91)
            if (h1 + 85 * h2) % 401 == 0 and (h1, h2) != (0, 0)
        )
    assert 2.0e-27 < float(ref) < 2.1e-27
    assert abs(est.value - float(ref)) <= est.trunc_bound + 1e-12 * float(ref)


def test_error_estimate_flags_zero_region():
    # large N: every dual point leaves the truncation region
    model = make_model()
    est = wce2_dual_enum(LatticeRule(211, (1,)), model)
    assert est.value == 0.0
    assert est.zero_indistinguishable
    assert est.e == 0.0


def test_zero_indistinguishable_reads_the_band():
    # a value above its truncation bound but inside the band cannot be
    # told apart from zero; one above the band can
    est = korobov.wce.ErrorEstimate(1e-14, 1e-15, "theta_product")
    assert est.trunc_bound < est.value < est.band
    assert est.band == est.trunc_bound + korobov.wce.TIE_SLACK
    assert est.zero_indistinguishable
    assert not korobov.wce.ErrorEstimate(2.0 * est.band, 1e-15, "theta_product").zero_indistinguishable


def test_dominant_dual_frequency_simple(unit_model):
    h = dominant_dual_frequency(LatticeRule(2, (1,)), unit_model)
    assert abs(h[0]) == 2
    assert rho(h, unit_model) == pytest.approx(0.25)
    # deterministic repeat
    assert h == dominant_dual_frequency(LatticeRule(2, (1,)), unit_model)


def test_dominant_dual_frequency_is_maximal():
    model = make_model(omega=0.3, a=("linear", 1.0))
    rule = LatticeRule(13, (1, 5))
    h_star = dominant_dual_frequency(rule, model)
    best = rho(h_star, model)
    rng = np.random.default_rng(3)
    for _ in range(200):
        h = tuple(int(v) for v in rng.integers(-26, 27, size=2))
        if all(v == 0 for v in h) or (h[0] + 5 * h[1]) % 13 != 0:
            continue
        assert rho(h, model) <= best + 1e-15
    # exact agreement with box enumeration, tie rule included: d = 1, 2, 3,
    # b = 1/2 and 2, shared weights (many ties), and a zero generator
    # component in the solved coordinate (no inverse mod N)
    cases = [
        (model, LatticeRule(13, (1, 5))),
        (make_model(omega=0.5, b=("constant", 2.0)), LatticeRule(7, (3,))),
        (make_model(omega=0.3, a=("linear", 1.0), b=("constant", 0.5)), LatticeRule(13, (1, 5))),
        (make_model(omega=0.5, b=("constant", 2.0)), LatticeRule(13, (1, 5))),
        (make_model(omega=0.5), LatticeRule(7, (1, 3, 2))),
        (make_model(omega=0.3, a=("linear", 1.0), b=("constant", 0.5)), LatticeRule(5, (1, 2, 3))),
        (make_model(omega=0.5), LatticeRule(7, (0, 1, 3))),
        (make_model(omega=0.5, a=("linear", 1.0)), LatticeRule(5, (0, 2))),
    ]
    for m, r in cases:
        # any h outside [-N, N]^d has an exponent above that of N * e_1
        assert dominant_dual_frequency(r, m) == brute_dominant_frequency(r.n, r.g, m, r.n)


def test_dominant_dual_frequency_cut_from_known_dual_vectors():
    # on 300 random rules the walk up to the least E of the dual vectors known
    # in closed form finds what the walk up to E(N e_1) finds
    rng = np.random.default_rng(17)
    primes = [p for p in range(2, 100) if is_prime(p)]
    for _ in range(300):
        a = str(rng.choice(["constant", "linear", "logarithmic"]))
        model = make_model(a=(a, 1.0), b=("constant", float(rng.choice([0.5, 1.0, 2.0]))))
        n = int(rng.choice(primes))
        rule = LatticeRule(n, tuple(int(g) for g in rng.integers(0, n, size=int(rng.integers(1, 5)))))
        n_e1 = model.a_j(1) * float(n) ** model.b_j(1) + 1.0
        assert dominant_dual_frequency(rule, model) == korobov.wce._dominant_within(rule, model, n_e1), rule
    # here the walk up to E(N e_1) exceeds ENUM_CAP; E(h*) = 3, so the box
    # [-3, 3]**4 holds every h at least as heavy
    rule = LatticeRule(487, (267, 110, 53, 335))
    h_star = dominant_dual_frequency(rule, make_model())
    assert h_star == brute_dominant_frequency(rule.n, rule.g, make_model(), 3) == (-1, -2, 0, 0)


@pytest.mark.parametrize("a", [("constant", 1.0), ("linear", 1.0)], ids=["constant", "linear"])
def test_product_certificate_is_shared(a):
    # kernel, theta table and kernel double sum report one first-order bound
    model = make_model(omega=0.4, a=a, b=("constant", 0.5))
    n, d, tol = 13, 3, 1e-12
    rule = LatticeRule(n, (1, 5, 12))
    from_kernel = kernel_with_bound((0.1, 0.2, 0.7), (0.4, 0.9, 0.3), model, tol)[1]
    from_table = theta_table(model, n, d, tol).product_bound
    from_double_sum = wce2_kernel_double_sum(rule, model, tol).trunc_bound
    assert from_kernel > 0.0
    assert from_kernel == from_table == from_double_sum


def test_product_certificates_honour_tol():
    # each coordinate gets a share of tol, so the first-order product
    # certificate of every product form stays at most tol
    grid = itertools.product(
        (0.3, 0.5, 0.9), ("constant", "linear", "logarithmic"), (0.5, 1.0, 2.0),
        (1, 2, 3, 4), (1e-14, 1e-10),
    )
    for omega, a_kind, b, d, tol in grid:
        model = make_model(omega=omega, a=(a_kind, 1.0), b=("constant", b))
        rule = korobov_vector(KorobovParam(5, 2, d))
        x, y = rule.points()[1], rule.points()[3]
        bounds = (
            wce2_theta_product(rule, model, 1.0, tol).trunc_bound,
            wce2_kernel_double_sum(rule, model, tol).trunc_bound,
            kernel_with_bound(x, y, model, tol)[1],
        )
        assert max(bounds) <= tol, (omega, a_kind, b, d, tol, bounds)


def test_methods_agree_at_scaled_lambda():
    # the lambda-scaled dual sum of rho(h)**lam is the dual sum of the
    # space at base omega**lam, for all three evaluators
    model = make_model(a=("linear", 1.0))
    rule = LatticeRule(13, (1, 5))
    for lam in (0.5, 0.25):
        expected = brute_dual_e2(13, (1, 5), model, lam=lam, box=200)
        ests = (
            wce2_dual_enum(rule, model, lam),
            wce2_theta_product(rule, model, lam),
            wce2_kernel_double_sum(rule, model.scaled(lam)),
        )
        for est in ests:
            assert abs(est.value - expected) <= est.trunc_bound + 1e-12, (lam, est)
        for e1, e2 in itertools.combinations(ests, 2):
            assert abs(e1.value - e2.value) <= e1.trunc_bound + e2.trunc_bound + 1e-12, lam


# Values taken before the dual engine's walk stopped carrying residues, as
# float.hex of (e2, trunc_bound): (omega, a family, b, N, g, lam, tol).  Rows
# 1, 2, 5-7, 10, 11, 13 and 14 fold the solved coordinate (N <= 2 H_c + 1);
# the others read single representatives.
DUAL_ENUM_PINS = [
    (0.3, "constant", 1.0, 37, (1, 11, 10), 1.0, 1e-14, "0x1.da9c7fbd7bc58p-5", "0x1.6849b86a12b88p-47"),
    (0.5, "linear", 1.0, 101, (1, 27, 22), 1.0, 1e-14, "0x1.a9315eaa62b47p-9", "0x1.6849b86a12b98p-47"),
    (0.5, "linear", 1.0, 1009, (1, 71, 995, 25), 1.0, 1e-14, "0x1.2e7434c124b2cp-12", "0x1.6849b86a12b93p-47"),
    (0.3, "constant", 1.0, 4001, (1, 1732, 2941, 1000), 1.0, 1e-12, "0x1.3f66900110255p-8", "0x1.19799812dea0dp-40"),
    (0.5, "linear", 0.5, 37, (1, 9), 1.0, 1e-10, "0x1.54446bf6d1bc6p-2", "0x1.b7cdfd9d7bda8p-34"),
    (0.3, "constant", 0.5, 37, (1, 16), 1.0, 1e-14, "0x1.9c25577fe8fb5p-4", "0x1.6849b86a12b95p-47"),
    (0.3, "linear", 0.5, 101, (1, 40, 85), 1.0, 1e-10, "0x1.a85a0b44ea3fbp-9", "0x1.b7cdfd9d7bdb2p-34"),
    (0.3, "constant", 2.0, 1009, (1, 300, 201, 716), 1.0, 1e-14, "0x1.9ae1805ace58dp-24", "0x1.6849b86a12b84p-47"),
    (0.5, "linear", 2.0, 4001, (1, 1234, 2222, 77), 1.0, 1e-14, "0x1.0000000000079p-100", "0x1.6849b86a12b86p-47"),
    (0.5, "constant", 1.0, 13, (0, 5, 0), 1.0, 1e-14, "0x1.0012009004802p+3", "0x1.6849b86a12b8cp-47"),
    (0.5, "constant", 1.0, 13, (0, 0), 1.0, 1e-14, "0x1.0000000000000p+3", "0x1.6849b86a12b7ep-47"),
    (0.5, "constant", 1.0, 2003, (5,), 1.0, 1e-14, "0x0.0p+0", "0x1.6849b86a12b90p-47"),
    (0.5, "linear", 1.0, 211, (1, 49, 80), 0.5, 1e-14, "0x1.34eacf9c2087cp-4", "0x1.6849b86a12b8cp-47"),
    (0.9, "linear", 1.0, 53, (1, 20), 1.0, 1e-12, "0x1.52a5599c4987fp+1", "0x1.19799812dea09p-40"),
    (0.5, "linear", 2.0, 53, (3, 7, 11, 5), 1.0, 1e-14, "0x1.8368008f15021p-10", "0x1.6849b86a12b86p-47"),
]

# (omega, a family, b, N, g, dominant dual frequency), taken at the same time
DOMINANT_PINS = [
    (0.3, "constant", 1.0, 37, (1, 11, 10), (-1, 1, -1)),
    (0.5, "linear", 1.0, 1009, (1, 71, 995, 25), (-3, 0, -2, -1)),
    (0.5, "linear", 0.5, 101, (1, 40, 85), (-2, -5, 0)),
    (0.3, "constant", 2.0, 1009, (1, 300, 201, 716), (0, -3, -2, -1)),
    (0.9, "linear", 2.0, 61, (1, 17, 45, 33), (-1, 1, 1, 0)),
    (0.5, "constant", 1.0, 13, (0, 5, 0), (-1, 0, 0)),
    (0.5, "constant", 1.0, 13, (0, 0), (-1, 0)),
    (0.5, "linear", 1.0, 283, (1, 100, 95), (-5, 1, -1)),
    (0.3, "linear", 0.5, 7, (2,), (-7,)),
]


@pytest.mark.parametrize("omega, a, b, n, g, lam, tol, e2, bound", DUAL_ENUM_PINS)
def test_dual_enum_pinned_across_the_walk(omega, a, b, n, g, lam, tol, e2, bound):
    model = make_model(omega=omega, a=(a, 1.0), b=("constant", b))
    est = wce2_dual_enum(LatticeRule(n, g), model, lam, tol)
    assert (est.value.hex(), est.trunc_bound.hex()) == (e2, bound)


def test_dominant_dual_frequency_pinned_across_the_walk():
    for omega, a, b, n, g, h_star in DOMINANT_PINS:
        model = make_model(omega=omega, a=(a, 1.0), b=("constant", b))
        assert dominant_dual_frequency(LatticeRule(n, g), model) == h_star, (n, g)


def _python_residues(h, g, n, shift):
    """(shift_i - h_i . g_c) mod n in Python integers: rows i of h, columns c
    of the matrix g."""
    return [[(s - sum(int(x) * int(y) for x, y in zip(row, col))) % n for col in g.T] for row, s in zip(h, shift)]


# (n, k, reach, path) of _residues: k columns of h, |h_j| <= reach
RESIDUE_CASES = [
    (1009, 4, 50, "float"),
    # (k reach + 1) n just below and just above 2**51, where the float path
    # ends; at 65521 a quotient taken without the 1/2 offset floors wrong
    (65521, 4, (2**51 // 65521 - 2) // 4, "float"),
    (65521, 4, (2**51 // 65521) // 4, "int64"),
    (2_147_483_647, 4, (2**51 // 2_147_483_647 - 2) // 4, "float"),
    (2_147_483_647, 4, (2**51 // 2_147_483_647) // 4, "int64"),
    # k reach n just below 2**53, past the float path: one int64 product
    (2_147_483_647, 4, 2**53 // (4 * 2_147_483_647), "int64"),
    (2_147_483_647, 4, 10**6, "int64"),
    # past 2**62 each h_j is reduced before it multiplies g_j
    (2_147_483_647, 4, 2**62 // (4 * 2_147_483_647) + 1, "reduced"),
    (2_147_483_647, 2, 2**40, "reduced"),
]


def test_residues_reduce_before_they_overflow():
    # every path of _residues agrees with Python integers: a matrix of
    # generators, as the Korobov sieve passes them, takes the float64 path
    # while (k reach + 1) n < 2**51, and a vector, as the dual sum passes
    # it, the int64 product; from k reach n >= 2**62 both reduce each h_j
    # first.  Rows at the reach in every sign pattern give the largest
    # |shift - h . g|, and rows whose shift - h . g is a multiple of n, zero
    # included, the residue 0
    for case in RESIDUE_CASES:
        _check_residues(*case)


def _check_residues(n, k, reach, path):
    assert ((k * reach + 1) * n < 2**51) == (path == "float")
    assert (k * reach * n >= 2**62) == (path == "reduced")
    rng = np.random.default_rng(reach)
    gs = rng.integers(0, n, size=(k, 3))
    gs[:, 0] = n - 1
    h = np.concatenate([np.array(list(itertools.product((-reach, reach), repeat=k))), rng.integers(-reach, reach + 1, size=(256, k))])
    h[-1] = 0
    # residues 0, 1, n - 1 and n - 2 in column 1, and g = 0 with shift n
    near = rng.choice([0, 1, n - 1, n - 2], size=len(h))
    shift = (h @ gs[:, 1].astype(object) + near) % n
    shift[:4], shift[-1] = (h[:4] @ gs[:, 1].astype(object)) % n, n
    shift = shift.astype(np.int64)
    assert max(abs(int(s) - sum(int(x) * int(y) for x, y in zip(row, gs[:, 0]))) for row, s in zip(h, shift)) >= k * reach * (n - 1)
    got = korobov.wce._residues(h, gs, n, reach, shift[:, None])
    assert got.dtype == (np.float64 if path == "float" else np.int64)
    want = _python_residues(h, gs, n, shift.tolist())
    assert got.tolist() == want, (n, k, reach)
    assert [row[1] for row in want[:4]] == [0] * 4 and want[-1] == [0, 0, 0]
    assert [row[1] for row in want[4:-1]] == [x % n for x in near[4:-1].tolist()]
    vector_want = _python_residues(h, gs, n, [int(shift[0])] * len(h))
    for j in range(3):
        got = korobov.wce._residues(h, gs[:, j], n, reach, int(shift[0]))
        assert got.dtype == np.int64
        assert got.tolist() == [row[j] for row in vector_want]


def _sieve_cases(count, seed):
    """Random (N, d, model, t_cut) with prime N <= 60 and d <= 4; t_cut is
    T' of a random eps, shrunk until the box of brute_korobov_survivors
    holds at most 10**5 points."""
    rng = np.random.default_rng(seed)
    primes = [p for p in range(2, 61) if is_prime(p)]
    for _ in range(count):
        omega = float(rng.choice([0.3, 0.5, 0.9]))
        b = float(rng.choice([0.5, 1.0, 2.0]))
        model = make_model(omega=omega, a=(str(rng.choice(["constant", "linear"])), 1.0), b=("constant", b))
        n, d = int(rng.choice(primes)), int(rng.integers(1, 5))
        t_cut = math.log(2.0 / float(10.0 ** rng.uniform(-3, -0.3)) ** 2) / math.log(1.0 / omega)
        while math.prod(2 * int((t_cut / model.a_j(j)) ** (1.0 / b)) + 1 for j in range(1, d + 1)) > 10**5:
            t_cut *= 0.8
        yield n, d, model, t_cut


def _distinct_rules(n, d, survivors):
    """One generator per distinct rule of a full survivor list: g <= n/2,
    and at d = 1, where every g gives (1), the first."""
    return survivors[:1] if d == 1 else [g for g in survivors if 2 * g <= n]


def test_korobov_survivors_match_box_enumeration():
    # a generator survives exactly when every nonzero dual h of E(h) <= t_cut
    # is missing from a box that holds that region
    seen = {"d=1": 0, "g=0 kept": 0, "g=0 dropped": 0, "some dropped": 0}
    for n, d, model, t_cut in _sieve_cases(240, 11):
        got = korobov_survivors(n, d, model, t_cut).tolist()
        brute = brute_korobov_survivors(n, d, model, t_cut)
        assert got == _distinct_rules(n, d, brute), (n, d, model, t_cut)
        seen["d=1"] += d == 1
        seen["g=0 kept" if 0 in got else "g=0 dropped"] += 1
        seen["some dropped"] += 0 < len(brute) < n
    assert min(seen.values()) >= 10, seen


def test_korobov_survivors_walk_order_matches(monkeypatch):
    # a prefix region above CHUNK_CELLS rows is walked in walk order, not
    # sorted and memoised; the survivors are the same
    monkeypatch.setattr(korobov.wce, "CHUNK_CELLS", 4)
    korobov.wce._sieve_rows.cache_clear()
    walked = 0
    for n, d, model, t_cut in _sieve_cases(60, 12):
        brute = brute_korobov_survivors(n, d, model, t_cut)
        assert korobov_survivors(n, d, model, t_cut).tolist() == _distinct_rules(n, d, brute)
        walked += d > 1 and korobov.wce._sieve_rows(model, d, t_cut) is None
    korobov.wce._sieve_rows.cache_clear()
    assert walked >= 20


@pytest.mark.parametrize("n, d, t_cut", [(1009, 2, 50.0), (1009, 3, 20.0), (4001, 4, 30.0)])
def test_korobov_survivors_never_return_both_g_and_its_mirror(n, d, t_cut):
    # g and N - g give one rule up to a reflection: one generator per rule
    got = korobov_survivors(n, d, make_model(a=("linear", 1.0)), t_cut)
    assert got.size and np.all(np.diff(got) > 0)
    assert not np.isin(n - got, got).any()


def _refuse_the_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("the sieve walked")

    monkeypatch.setattr(korobov.wce, "_sieve_rows", refuse)
    monkeypatch.setattr(korobov.wce, "_sieve_walk", refuse)


@pytest.mark.parametrize("n", [2, 7, 1009])
def test_korobov_survivors_at_d1_is_g0_without_a_walk(monkeypatch, n):
    # every g gives the vector (1), whose nonzero dual h have |h_1| >= n
    _refuse_the_walk(monkeypatch)
    for model in (make_model(a=("linear", 1.0)), make_model(a=("constant", 2.0), b=("constant", 0.5))):
        t_cut = 0.99 * model.a_j(1) * n ** model.b_j(1)
        got = korobov_survivors(n, 1, model, t_cut)
        assert got.tolist() == [0] and got.dtype == np.int64


@pytest.mark.parametrize("d", [1, 2, 4])
def test_korobov_survivors_empty_once_n_e1_is_in_the_region(monkeypatch, d):
    # h = n e_1 is dual to every Korobov vector, with E(h) = a_1 n**b_1
    _refuse_the_walk(monkeypatch)
    for model in (make_model(a=("linear", 1.0)), make_model(a=("constant", 2.0), b=("constant", 0.5))):
        for n in (2, 7, 1009):
            got = korobov_survivors(n, d, model, model.a_j(1) * n ** model.b_j(1))
            assert got.size == 0 and got.dtype == np.int64


def test_korobov_survivors_rejects_bad_sizes():
    model = make_model(a=("linear", 1.0))
    with pytest.raises(ValueError, match="modulus must be prime, got 9"):
        korobov_survivors(9, 2, model, 5.0)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        korobov_survivors(7, 0, model, 5.0)
