import math
import tracemalloc

import numpy as np
import pytest

import korobov.bounds
import korobov.wce
from korobov import (
    LAMBDA_GRID,
    CapExceededError,
    CertificateError,
    empirical_info_complexity,
    error_bound,
    error_bound_min,
    dominant_dual_frequency,
    info_complexity_bound,
    is_prime,
    korobov_vector,
    m_lambda,
    minkowski_start,
    next_prime,
    product_bound,
    search_korobov,
    wce2_theta_product,
    KorobovParam,
    LatticeRule,
    OracleInfeasibleError,
    SummationCapError,
)

from korobov.bounds import MINKOWSKI_MARGIN, bound_report

from conftest import first_sieved_prime, make_model


def test_product_bound_geometric(unit_model):
    # A_1 = 2, factor = 1 + 2*2*0.5 = 3
    assert product_bound(1, 1.0, unit_model) == pytest.approx(3.0, abs=1e-12)


def test_product_bound_at_least_one(linear_model):
    for d in (1, 3, 10):
        for lam in (1.0, 0.25, 2.0**-20):
            assert product_bound(d, lam, linear_model) >= 1.0


def test_product_bound_dominates_full_dual_sum():
    # box-enumerated sum over all nonzero h against the product majorant
    for d in (1, 2, 3):
        model = make_model(a=("linear", 1.0))
        axes = [np.arange(-40, 41)] * d
        grids = np.meshgrid(*axes, indexing="ij")
        h = np.stack([g.ravel() for g in grids], axis=1).astype(float)
        expo = np.zeros(h.shape[0])
        for j in range(d):
            expo += (j + 1) * np.abs(h[:, j])
        total = float(np.sum(0.5**expo)) - 1.0  # drop h = 0
        assert total <= product_bound(d, 1.0, model) + 1e-9


def test_product_bound_overflow_sentinel():
    model = make_model(omega=0.9, a=("constant", 0.1))
    assert product_bound(500, 1.0, model) == math.inf


def test_error_bound_closed_form(unit_model):
    # d=2, n=3: ((d-1)/n * 3 * 3) ** 0.5 = sqrt(3)
    got = error_bound(3, 2, 1.0, unit_model, "korobov")
    assert got == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_error_bound_min_no_worse_than_lambda_one(linear_model):
    rep = error_bound_min(13, 2, linear_model, "korobov")
    assert rep.bound_value <= error_bound(13, 2, 1.0, linear_model, "korobov") + 1e-12
    assert 0.0 < rep.lam <= 1.0


def test_error_bound_min_is_the_report_at_its_lambda(linear_model):
    rep = error_bound_min(13, 3, linear_model, "korobov")
    assert rep == bound_report(13, 3, rep.lam, linear_model, "korobov")
    assert rep.bound_value == error_bound(13, 3, rep.lam, linear_model, "korobov")


def test_error_bound_min_reports_its_winning_probe(linear_model, monkeypatch):
    # at N = 1009 the minimum lies inside the grid; the report reads the
    # winning probe's product term instead of evaluating it a second time
    probes, product = [], korobov.bounds.log_product_bound
    monkeypatch.setattr(korobov.bounds, "log_product_bound", lambda d, lam, *args: probes.append(lam) or product(d, lam, *args))
    rep = error_bound_min(1009, 3, linear_model, "korobov")
    assert 0.5 < rep.lam < 1.0 and len(set(probes)) == len(probes) <= 54
    monkeypatch.undo()
    assert rep == bound_report(1009, 3, rep.lam, linear_model, "korobov")


@pytest.mark.parametrize(
    "model, d",
    [
        # no lambda can certify A_lam: every probe raises SummationCapError
        (make_model(omega=0.99, a=("constant", 0.01), b=("constant", 0.2)), 2),
        # the product term of 2000 unit-weight coordinates overflows every bound
        (make_model(), 2000),
    ],
    ids=["summation-cap", "overflow"],
)
def test_error_bound_min_all_infinite(model, d):
    rep = error_bound_min(13, d, model, "korobov")
    assert rep.lam == 1.0
    assert rep.a_lam == rep.product_term == rep.bound_value == math.inf


def _capped_below(lam_cap, objective):
    """objective, raising SummationCapError below lam_cap as A_lam does."""

    def capped(lam):
        if lam < lam_cap:
            raise SummationCapError(f"no certificate at lambda {lam}")
        return objective(lam)

    return capped


@pytest.mark.parametrize(
    "objective",
    [
        lambda lam: 1.0 + math.log(lam / 0.3) ** 2,
        lambda lam: 1.0 + math.log(lam / 2.0) ** 2,
        lambda lam: 1.0 + math.log(lam / 2.0**-21) ** 2,
        _capped_below(1e-3, lambda lam: 1.0 + math.log(lam / 0.0015) ** 2),
        lambda lam: korobov.bounds._log_m(1e-3, 3, lam, make_model(a=("linear", 1.0)), "korobov", 1e-14),
    ],
    ids=["interior", "grid-end-one", "grid-end-small", "capped", "linear-model-bound"],
)
def test_minimize_lambda_evaluates_each_lambda_once(objective):
    def value(lam):
        try:
            return objective(lam)
        except SummationCapError:
            return math.inf

    calls = []
    best, lam = korobov.bounds._minimize_lambda(lambda l: calls.append(l) or objective(l))
    assert len(calls) <= 21 + 33 and len(set(calls)) == len(calls)
    assert best == value(lam)
    # the golden-section steps search between the grid minimum's neighbours;
    # a dense scan of that bracket finds nothing smaller
    k = min(range(len(LAMBDA_GRID)), key=lambda i: (value(LAMBDA_GRID[i]), -LAMBDA_GRID[i]))
    lo, hi = LAMBDA_GRID[min(k + 1, len(LAMBDA_GRID) - 1)], LAMBDA_GRID[max(k - 1, 0)]
    assert best <= min(map(value, np.linspace(lo, hi, 10**4))) * (1.0 + 1e-12)


def test_error_bound_nonincreasing_in_n(linear_model):
    vals = [error_bound(n, 2, 0.5, linear_model, "korobov") for n in (5, 13, 31, 101)]
    assert vals == sorted(vals, reverse=True)


def test_error_bound_d1_korobov_falls_back_to_general(unit_model):
    assert error_bound(5, 1, 1.0, unit_model, "korobov") == pytest.approx(
        error_bound(5, 1, 1.0, unit_model, "general"), abs=1e-15
    )


def test_m_lambda_example(unit_model):
    # product term 3, eps=1/2, lam=1: ceil(1 * 4 * 3) = 12 -> next prime 13
    m = m_lambda(0.5, 1, 1.0, unit_model, "general")
    assert m == 12
    assert next_prime(m) == 13


def test_m_lambda_monotone_in_eps(linear_model):
    ms = [m_lambda(eps, 2, 0.5, linear_model, "korobov") for eps in (0.9, 0.5, 0.1, 0.01)]
    assert ms == sorted(ms)


def test_m_lambda_overflow_sentinel():
    model = make_model(omega=0.9, a=("constant", 0.1))
    assert m_lambda(1e-6, 400, 1.0, model, "korobov") == math.inf


def test_info_complexity_bound_example(unit_model):
    # lam = 1 candidate value: 4 * 1 * 4 * 3 = 48; grid minimum can only improve
    bound, lam_star = info_complexity_bound(0.5, 1, unit_model, "general")
    assert bound <= 48
    assert bound >= 1
    assert 0.0 < lam_star <= 1.0


def test_bertrand_sandwich_on_m_grid(linear_model):
    for eps in (0.3, 0.1):
        for d in (1, 2, 3):
            m = m_lambda(eps, d, 0.5, linear_model, "korobov")
            n = next_prime(int(m))
            assert m <= n < 2 * m


def test_bound_chain(linear_model):
    # empirical <= 2 * M_lambda* <= product-form bound at lambda*
    for eps in (0.5, 0.3):
        for d in (1, 2):
            bound, lam_star = info_complexity_bound(eps, d, linear_model, "korobov")
            m = m_lambda(eps, d, lam_star, linear_model, "korobov")
            [emp] = empirical_info_complexity([eps], d, linear_model)
            assert emp <= 2 * m <= bound


def test_empirical_info_complexity_small_cases(unit_model):
    # d=1: all Korobov vectors are (1); e(2) = 0.8165, e(3) = 0.5345
    e2 = wce2_theta_product(LatticeRule(2, (1,)), unit_model).e
    e3 = wce2_theta_product(LatticeRule(3, (1,)), unit_model).e
    assert e2 == pytest.approx(0.8164965809277260, abs=1e-12)
    assert e3 == pytest.approx(0.5345224838248488, abs=1e-12)
    assert empirical_info_complexity([0.9], 1, unit_model) == [2]
    assert empirical_info_complexity([0.6], 1, unit_model) == [3]


def test_empirical_monotone_in_eps(linear_model):
    ns = empirical_info_complexity([0.7, 0.4, 0.2], 2, linear_model)
    assert ns == sorted(ns)


def test_empirical_list_matches_singletons(linear_model):
    # one scan answers the list in input order, duplicates included
    eps_list = [0.2, 0.7, 0.4, 0.7]
    singles = [empirical_info_complexity([eps], 2, linear_model)[0] for eps in eps_list]
    assert empirical_info_complexity(eps_list, 2, linear_model) == singles


def test_empirical_rejects_bad_eps_before_scanning(linear_model):
    with pytest.raises(ValueError, match="got 1.5"):
        empirical_info_complexity([0.5, 1.5], 2, linear_model)


def test_empirical_cap(monkeypatch):
    monkeypatch.setattr(korobov.bounds, "SCAN_N_CAP", 5)
    # the Minkowski start 219 lies above the cap: no prime is searched
    with pytest.raises(CapExceededError, match="Minkowski start 219"):
        empirical_info_complexity([1e-3], 2, make_model())
    # the start 4 lies below the cap, the answer 13 above it
    with pytest.raises(CapExceededError, match="no feasible prime"):
        empirical_info_complexity([0.5], 2, make_model())


def test_minkowski_start_past_overflow_is_the_inf_sentinel():
    # b = 0.005 makes the box's volume overflow a float; the start is the
    # inf sentinel and the scan exits at the cap before any search
    model = make_model(b=("constant", 0.005))
    assert minkowski_start(1e-3, 2, model) == math.inf
    with pytest.raises(CapExceededError, match="Minkowski start inf"):
        empirical_info_complexity([1e-3], 2, model)


# (omega, a family, b) of the Minkowski soundness grid
MINKOWSKI_GRID = [
    (omega, a, b)
    for omega in (0.3, 0.5)
    for a in ("constant", "linear")
    for b in (0.5, 1.0, 2.0)
]


def _t_prime(eps, omega):
    """E(h) <= T' makes 2 * rho(h) >= eps^2: T' = log(2 / eps^2) / log(1 / omega)."""
    return math.log(2.0 / eps**2) / math.log(1.0 / omega)


def _scan_from_two(eps, d, model, n_max):
    """First prime N <= n_max whose best Korobov e2 interval lies below
    eps^2, scanning every prime from 2; None past n_max."""
    n = 2
    while n <= n_max:
        best = search_korobov(n, d, model).best_e2
        if best.value + best.band < eps**2:
            return n
        n = next_prime(n + 1)
    return None


@pytest.mark.parametrize("omega, a, b", MINKOWSKI_GRID)
def test_minkowski_start_is_sound(omega, a, b):
    model = make_model(omega=omega, a=(a, 1.0), b=("constant", b))
    shortest_checked = answers_checked = 0
    previous = dict.fromkeys((0.3, 1e-1, 1e-2, 1e-3), 0)
    for d in (1, 2, 3):
        for eps in previous:
            start = minkowski_start(eps, d, model)
            # the zero-padded dual vectors of d - 1 coordinates stay dual
            assert start >= previous[eps], (d, eps, start, previous[eps])
            previous[eps] = start
            t_prime = _t_prime(eps, omega)
            # the largest prime up to the start: every Korobov rule there
            # has a nonzero dual h with E(h) <= T', found independently by
            # the dual engine's heaviest-frequency walk
            if 2 <= start <= 1000:
                n = max(p for p in range(2, start + 1) if is_prime(p))
                for g in range(n):
                    rule = korobov_vector(KorobovParam(n, g, d))
                    h = dominant_dual_frequency(rule, model)
                    assert model.exponent(h) <= t_prime * (1.0 + 1e-12), (d, eps, n, g, h)
                shortest_checked += 1
            # where the answer is cheap, a scan from 2 finds the same
            # answer, at or above the start and at most the bound
            answer = _scan_from_two(eps, d, model, n_max={1: 600, 2: 400, 3: 200}[d])
            if answer is not None:
                assert empirical_info_complexity([eps], d, model) == [answer]
                n_bound, _ = info_complexity_bound(eps, d, model)
                assert start <= answer <= n_bound
                answers_checked += 1
            if d == 1:
                # in one dimension the body is the interval |x| <= (T'/a_1)**(1/b_1)
                x = (t_prime / model.a_j(1)) ** (1.0 / b)
                assert math.floor(x * (1.0 - 1e-8)) <= start <= math.floor(x * (1.0 + 1e-8))
    assert shortest_checked >= 3 and answers_checked >= 4


def test_empirical_straddled_interval_is_a_certificate_error(linear_model):
    # at eps = 1e-8, eps^2 = 1e-16 lies inside the certified interval
    # e2 +- band of the best survivor at the first prime above the
    # Minkowski start 733 whose family keeps a generator with no dual h of
    # E(h) <= T': 757, found here by box enumeration.  The primes before
    # it (739, 743, 751) are infeasible for every generator and skipped.
    # The scan stops there instead of reading rounding bits as a decision
    t_cut = _t_prime(1e-8, 0.5) * (1.0 - MINKOWSKI_MARGIN)
    n = first_sieved_prime(minkowski_start(1e-8, 2, linear_model), 2, linear_model, t_cut)
    assert n == 757
    with pytest.raises(CertificateError, match=rf"prime {n}\b.*eps = 1e-08"):
        empirical_info_complexity([1e-8], 2, linear_model)


def test_empirical_interval_is_the_band(linear_model, monkeypatch):
    # the feasibility interval is value +- ErrorEstimate.band: a slack wider
    # than eps^2 makes the first prime whose family the sieve keeps straddle
    # it (19, found here by box enumeration)
    monkeypatch.setattr(korobov.wce, "TIE_SLACK", 1.0)
    t_cut = _t_prime(0.1, 0.5) * (1.0 - MINKOWSKI_MARGIN)
    n = first_sieved_prime(minkowski_start(0.1, 2, linear_model), 2, linear_model, t_cut)
    assert n == 19
    with pytest.raises(CertificateError, match=rf"prime {n}\b.*eps = 0.1"):
        empirical_info_complexity([0.1], 2, linear_model)


def test_search_error_below_bound_all_grid(linear_model):
    best = search_korobov(13, 2, linear_model).best_e2.e
    for lam in LAMBDA_GRID:
        assert best <= error_bound(13, 2, lam, linear_model, "korobov") + 1e-12


def _reference_scan(eps, d, model):
    """First prime above the Minkowski start whose best Korobov e2 interval
    lies below eps^2, searching every prime with search_korobov."""
    n = minkowski_start(eps, d, model)
    while True:
        n = next_prime(n + 1)
        best = search_korobov(n, d, model).best_e2
        if best.value + best.band < eps**2:
            return n
        assert best.value - best.band > eps**2, (eps, d, n)


@pytest.mark.parametrize(
    "model, dims, eps_list",
    [
        (make_model(a=("linear", 1.0)), (1, 2, 3), [0.4, 0.1, 1e-2, 1e-3]),
        (make_model(omega=0.1), (1, 2, 3), [0.4, 0.1, 1e-2, 1e-3]),
        (make_model(a=("linear", 1.0), b=("constant", 2.0)), (1, 2, 3), [0.4, 0.1, 1e-2, 1e-3]),
        (make_model(a=("linear", 1.0), b=("constant", 0.5)), (1, 2), [0.4, 0.1, 1e-2]),
    ],
    ids=["linear", "constant-0.1", "linear-b2", "linear-b0.5"],
)
def test_sieved_scan_matches_a_full_search_scan(model, dims, eps_list):
    # the sieve skips only primes that a search of every generator finds
    # infeasible, and the least e2 over one representative g <= N/2 of each
    # survivor pair decides like the family's; b != 1 rows are not
    # mirrored bitwise, so g and N - g may differ in their last bits there
    for d in dims:
        expected = [_reference_scan(eps, d, model) for eps in eps_list]
        assert empirical_info_complexity(eps_list, d, model) == expected, d
        assert [empirical_info_complexity([eps], d, model)[0] for eps in eps_list] == expected


def test_sieved_scan_respects_the_bounds_at_small_eps(linear_model):
    # nofe's n_lower <= n_upper <= n_bound where the sieve settles most primes
    for eps, d in ((1e-4, 2), (1e-4, 3), (1e-5, 2), (1e-5, 3)):
        [n_upper] = empirical_info_complexity([eps], d, linear_model)
        n_bound, _ = info_complexity_bound(eps, d, linear_model)
        assert minkowski_start(eps, d, linear_model) <= n_upper <= n_bound, (eps, d)
    assert empirical_info_complexity([1e-4], 3, linear_model) == [937]


def test_scan_stops_at_the_prime_where_the_sieve_walk_is_over_the_cap(linear_model, monkeypatch):
    # a sieve walk over the enumeration cap ends the scan at the first prime
    # it sieves, with a cap error that names the prime and eps
    n = next_prime(minkowski_start(1e-2, 3, linear_model) + 1)
    korobov.wce._sieve_rows.cache_clear()
    monkeypatch.setattr(korobov.wce, "ENUM_CAP", 1)
    with pytest.raises(OracleInfeasibleError, match=rf"^prime {n}, eps = 0.01: sieve .*cap 1$"):
        empirical_info_complexity([1e-2, 1e-3], 3, linear_model)


def test_one_dimensional_scan_evaluates_one_generator_per_prime(monkeypatch):
    # at d = 1 every g gives the vector (1), so each kept prime is decided
    # on one generator: near omega = 1 each kept family keeps every g
    model = make_model(omega=0.999)
    evaluate, sizes = korobov.bounds.family_errors, []

    def recording(*args, members, **kwargs):
        sizes.append(len(members))
        return evaluate(*args, members=members, **kwargs)

    monkeypatch.setattr(korobov.bounds, "family_errors", recording)
    tracemalloc.start()
    try:
        assert empirical_info_complexity([1e-4], 1, model) == [19121]
        with pytest.raises(CertificateError, match=r"^prime 37517: .* \(eps = 1e-08\)$"):
            empirical_info_complexity([1e-8], 1, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes and set(sizes) == {1}
    assert peak < 8 * 2**20, peak


def test_many_survivor_scan_reads_rows_of_the_family_kernel(monkeypatch):
    # the sieve keeps about N/2 generators at each prime here; the scan reads
    # them as rows of the primitive-root kernel, so none reaches eval_vectors
    model = make_model(omega=0.7, b=("constant", 0.5))
    evaluate, rows = korobov.wce.ThetaTable.eval_vectors, []

    def recording(table, vectors):
        rows.append(len(vectors))
        return evaluate(table, vectors)

    monkeypatch.setattr(korobov.wce.ThetaTable, "eval_vectors", recording)
    assert empirical_info_complexity([0.7], 2, model) == [1399]
    assert sum(rows) == 0, (sum(rows), len(rows))


def test_scan_memo_holds_one_theta_table(linear_model):
    # a scan builds a table at every prime it keeps and re-reads none: the
    # memo keeps the last, and what the scan leaves held is about its size
    for memo in (korobov.wce.theta_table, korobov.wce._enum_cut, korobov.wce._sieve_rows):
        memo.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        [n] = empirical_info_complexity([1e-4], 3, linear_model)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    info = korobov.wce.theta_table.cache_info()
    assert n == 937 and info.misses >= 2 and info.currsize == 1, info
    assert held <= 8 * n * 3 + 64 * 2**10, held
