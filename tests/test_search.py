import concurrent.futures
import math
import os
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from korobov import (
    DEFAULT_TOL,
    CapExceededError,
    KorobovParam,
    LatticeRule,
    a_lambda,
    error_bound,
    korobov_vector,
    mean_pow_error,
    primitive_root,
    search_general,
    search_korobov,
    wce2_dual_enum,
    wce2_theta_product,
)
import korobov.wce
from korobov.search import _eval_korobov, family_errors, general_vectors
from korobov.space import CHUNK_CELLS
from korobov.wce import theta_table

from conftest import make_model


def test_korobov_ties_resolve_to_smallest(unit_model):
    # n=3, d=2: g=1 and g=2 are reflections, identical error; tie -> g=1
    res = search_korobov(3, 2, unit_model)
    e1 = wce2_theta_product(korobov_vector(KorobovParam(3, 1, 2)), unit_model).value
    e2 = wce2_theta_product(korobov_vector(KorobovParam(3, 2, 2)), unit_model).value
    assert e1 == pytest.approx(e2, abs=1e-12)
    assert res.best_rule.g == (1, 1)
    assert res.ties >= 2
    assert res.evaluated == 3


def test_d1_all_korobov_vectors_tie(unit_model):
    # v_1(g) = (1) for every g, so everything ties and g = 0 wins
    res = search_korobov(5, 1, unit_model)
    assert res.ties == 5
    assert res.best_rule.g == (1,)


def test_general_search_tiny(unit_model):
    # four candidates at n=2, d=2; direct evaluation picks (1, 1)
    res = search_general(2, 2, unit_model)
    values = {
        g: wce2_theta_product(LatticeRule(2, g), unit_model).value
        for g in ((0, 0), (0, 1), (1, 0), (1, 1))
    }
    assert min(values, key=values.get) == (1, 1)
    assert res.best_rule.g == (1, 1)
    assert res.evaluated == 4


def test_best_dominates_any_candidate(linear_model):
    for n, d in ((5, 2), (13, 3)):
        res = search_korobov(n, d, linear_model)
        e_g1 = wce2_theta_product(korobov_vector(KorobovParam(n, 1, d)), linear_model).value
        assert res.best_e2.value <= e_g1 + 1e-13


def test_general_at_most_korobov(linear_model):
    for n, d in ((5, 2), (7, 2), (5, 3)):
        best_gen = search_general(n, d, linear_model).best_e2.value
        best_kor = search_korobov(n, d, linear_model).best_e2.value
        assert best_gen <= best_kor + 1e-13


def test_d1_general_equals_korobov_minimum(linear_model):
    gen = search_general(11, 1, linear_model).best_e2.value
    kor = search_korobov(11, 1, linear_model).best_e2.value
    assert gen <= kor + 1e-13
    assert gen == pytest.approx(kor, abs=1e-12)  # scalar invariance


def test_general_cap():
    with pytest.raises(CapExceededError):
        search_general(101, 3, make_model())


def _general_block(n: int, d: int, idx: np.ndarray) -> np.ndarray:
    """The hand-written lexicographic decoder that ``general_vectors``
    replaced: digits of idx in base n, g_1 most significant."""
    out = np.empty((idx.size, d), dtype=np.int64)
    rem = idx.astype(np.int64)
    for j in range(d - 1, -1, -1):
        out[:, j] = rem % n
        rem //= n
    return out


@pytest.mark.parametrize("n", [2, 3, 5, 7, 11])
def test_general_vectors_keep_the_lexicographic_layout(n):
    for d in range(1, 5):
        idx = np.arange(n**d)
        vectors = general_vectors(n, d, idx)
        assert vectors.dtype == np.int64 and vectors.shape == (n**d, d)
        assert np.array_equal(vectors, _general_block(n, d, idx)), (n, d)
        mid = n**d // 2
        assert np.array_equal(general_vectors(n, d, mid), _general_block(n, d, np.array([mid]))[0]), (n, d)


def test_mean_pow_error_single_vector_family(unit_model):
    # n=2 Korobov family: both scalars expand to (1); mean equals that value
    mean = mean_pow_error(2, 1, 0.5, unit_model)
    single = wce2_theta_product(LatticeRule(2, (1,)), unit_model, 0.5).value
    assert mean == pytest.approx(single, abs=1e-13)


def test_mean_bounds_small_grid(linear_model):
    for n in (5, 13):
        for d in (2, 3):
            for lam in (1.0, 0.5):
                a_lam = a_lambda(lam, linear_model)
                prod = 1.0
                for j in range(1, d + 1):
                    prod *= 1.0 + 2.0 * a_lam * 0.5 ** (lam * j)
                mk = mean_pow_error(n, d, lam, linear_model, family="korobov")
                assert mk <= (d - 1) / n * prod + 1e-10
                mg = mean_pow_error(n, d, lam, linear_model, family="general")
                assert mg <= prod / n + 1e-10


def test_korobov_root_count_at_most_d_minus_one():
    rng = np.random.default_rng(5)
    for n in (5, 7, 13):
        for d in (2, 3):
            for _ in range(20):
                h = tuple(int(v) for v in rng.integers(-3, 4, size=d))
                if all(v == 0 for v in h):
                    continue
                roots = 0
                for g in range(n):
                    vec = korobov_vector(KorobovParam(n, g, d)).g
                    if sum(hj * vj for hj, vj in zip(h, vec)) % n == 0:
                        roots += 1
                assert roots <= d - 1


def test_search_deterministic_and_thread_invariant(linear_model, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers on any machine
    a = search_korobov(31, 2, linear_model)
    b = search_korobov(31, 2, linear_model)
    assert a == b
    g1 = search_general(7, 2, linear_model)
    g2 = search_general(7, 2, linear_model, threads=2)
    assert g1 == g2


@pytest.mark.parametrize("family, n, d", [("korobov", 31, 2), ("general", 7, 2)])
def test_ties_follow_the_band(linear_model, monkeypatch, family, n, d):
    # raising the slack of ErrorEstimate.band widens the tie set of both
    # searches to exactly the members within the new band of the minimum
    e2, bound = family_errors(n, d, linear_model, family=family)
    search = search_korobov if family == "korobov" else search_general
    narrow = search(n, d, linear_model).ties
    slack = float(np.median(e2) - np.min(e2))
    monkeypatch.setattr(korobov.wce, "TIE_SLACK", slack)
    tied = np.flatnonzero(e2 <= np.min(e2) + (bound + slack))
    res = search(n, d, linear_model)
    assert res.ties == tied.size > narrow
    if family == "korobov":
        best = korobov_vector(KorobovParam(n, int(tied[0]), d))
    else:
        best = LatticeRule(n, tuple(general_vectors(n, d, tied[:1])[0]))
    assert res.best_rule == best
    assert res.best_e2.value == e2[tied[0]]
    # the tied members alone read the same values
    assert np.array_equal(family_errors(n, d, linear_model, family=family, members=tied)[0], e2[tied])


def test_general_pool_reads_member_lists_bitwise(linear_model, monkeypatch):
    # a shuffled member list with repeats, its blocks split over two
    # threads, reads the values of the whole family bitwise
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers on any machine
    n, d = 31, 3
    full = family_errors(n, d, linear_model, family="general")[0]
    rng = np.random.default_rng(31)
    members = rng.permutation(np.concatenate([np.arange(n**d), rng.integers(0, n**d, size=997)]))
    assert members.size > 4 * (CHUNK_CELLS // n)  # several blocks per thread
    e2 = family_errors(n, d, linear_model, family="general", threads=2, members=members)[0]
    assert np.array_equal(e2, full[members])


def test_general_pool_asks_for_at_most_the_cpu_count(linear_model, monkeypatch):
    # the pool starts a thread per block while none is idle, so a huge
    # --threads asks for no more workers than the machine has CPUs
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    n, d = 13, 4
    assert n**d > 5 * (CHUNK_CELLS // n)  # six blocks
    one = family_errors(n, d, linear_model, family="general")[0]
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
    many = family_errors(n, d, linear_model, family="general", threads=10**6)[0]
    assert len(asked) == 1 and 1 <= asked[0] <= (os.cpu_count() or 1)
    assert many.tobytes() == one.tobytes()


@pytest.mark.parametrize(
    "family, n, d, index",
    [
        ("korobov", 7, 3, -1),
        ("korobov", 7, 3, 7),
        ("korobov", 3, 3, 5),
        ("korobov", 5, 1, 5),
        ("korobov", 5, 1, -1),
        ("general", 7, 3, -1),
        ("general", 7, 3, 7**3),
        ("general", 5, 1, 5),
    ],
)
def test_member_indices_outside_the_family_raise(linear_model, family, n, d, index):
    # one check for every family and size: no index wraps around, aliases
    # a reflection or reads the one d = 1 vector
    size = n if family == "korobov" else n**d
    message = rf"^{family} member indices must lie in \[0, {size}\) at N = {n}, d = {d}$"
    with pytest.raises(ValueError, match=message):
        family_errors(n, d, linear_model, family=family, members=[0, index])
    full = family_errors(n, d, linear_model, family=family)[0]
    ends = family_errors(n, d, linear_model, family=family, members=[size - 1, 0])[0]
    assert np.array_equal(ends, full[[size - 1, 0]])
    assert family_errors(n, d, linear_model, family=family, members=[])[0].shape == (0,)


KERNEL_MODELS = {
    "linear": make_model(a=("linear", 1.0)),
    "slow_decay": make_model(omega=0.9, a=("logarithmic", 1.0), b=("constant", 0.5)),
}


def _oracle_korobov_errors(table):
    """Every Korobov candidate through the general-vector evaluator."""
    vectors = np.array(
        [korobov_vector(KorobovParam(table.n, g, table.d)).g for g in range(table.n)],
        dtype=np.int64,
    )
    return table.eval_vectors(vectors)


def _gather_korobov_errors(table):
    """The gather formulation of the Korobov kernel (N >= 5, d >= 3): every
    coordinate's rows are gathered out of the doubled permuted table at
    j * b mod m into a new array, in chunks of CHUNK_CELLS // m rows."""
    n, d = table.n, table.d
    m = (n - 1) // 2
    gamma = primitive_root(n)
    powers = np.array([pow(gamma, a, n) for a in range(m)], dtype=np.int64)
    doubled = [np.tile(vals[powers], 2) for vals in table.values]
    windows = [sliding_window_view(t, m) for t in doubled]
    k0 = math.prod(vals[0] for vals in table.values)
    half = []
    chunk = max(1, CHUNK_CELLS // m)
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        bs = np.arange(lo, hi, dtype=np.int64)
        acc = windows[1][lo:hi] * doubled[0][:m]
        for j in range(2, d):
            acc *= windows[j][j * bs % m]
        half.append((k0 + 2.0 * acc.sum(axis=1)) / n - 1.0)
    half = np.concatenate(half)
    e2 = np.empty(n, dtype=np.float64)
    e2[powers] = half
    e2[n - powers] = half
    unit = np.zeros((1, d), dtype=np.int64)
    unit[0, 0] = 1
    e2[0] = table.eval_vectors(unit)[0]
    return e2


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_eval_korobov_matches_eval_vectors(name):
    # N innermost: the one memoised series-row entry serves every N
    model = KERNEL_MODELS[name]
    for d in range(1, 7):
        for lam in (1.0, 0.5):
            for n in (2, 3, 5, 7, 13, 101, 1009):
                table = theta_table(model.scaled(lam), n, d, DEFAULT_TOL)
                fast, oracle = _eval_korobov(table, range(table.n)), _oracle_korobov_errors(table)
                tol = 1e-15 * math.prod(v[0] for v in table.values)
                assert np.max(np.abs(fast - oracle)) <= tol, (n, d, lam)
                assert fast[0] == oracle[0], (n, d, lam)  # g = 0 is read through eval_vectors
                # g and N - g share one evaluation, so they tie bitwise
                assert all(fast[g] == fast[n - g] for g in range(1, n)), (n, d, lam)
                if n >= 5 and d >= 3:
                    # the strided windows multiply the same factors in the
                    # same order and reduce each row the same way; d = 2
                    # rows come from an FFT (see the rounding-bound test)
                    assert np.array_equal(fast, _gather_korobov_errors(table)), (n, d, lam)


def test_mean_pow_error_korobov_matches_oracle():
    model = KERNEL_MODELS["slow_decay"]
    for n, d in ((13, 3), (101, 4)):
        table = theta_table(model.scaled(0.5), n, d, DEFAULT_TOL)
        tol = 1e-15 * math.prod(v[0] for v in table.values)
        oracle = float(np.mean(_oracle_korobov_errors(table)))
        assert mean_pow_error(n, d, 0.5, model, family="korobov") == pytest.approx(oracle, abs=tol)


@pytest.mark.parametrize("n, d", [(5, 12), (11, 40)])
def test_eval_korobov_bitwise_when_steps_wrap(n, d):
    # d > m = (N - 1) / 2: the step j mod m wraps, and is 0 where m | j
    for lam in (1.0, 0.5):
        table = theta_table(KERNEL_MODELS["linear"].scaled(lam), n, d, DEFAULT_TOL)
        assert np.array_equal(_eval_korobov(table, range(table.n)), _gather_korobov_errors(table)), lam


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_eval_korobov_member_lists_read_the_family_bitwise(d):
    # every member list reads the rows of the whole family bitwise: random
    # lists with repeats, g = 0 alone, g with N - g, and every g; a list
    # that leaves rows out reads its rows gathered, over several blocks
    assert CHUNK_CELLS // (504 + d * (d - 1) // 2) < 504  # several blocks at N = 1009
    rng = np.random.default_rng(d)
    for b in (0.5, 1.0, 2.0):
        model = make_model(a=("linear", 1.0), b=("constant", b))
        for n in (2, 3, 5, 7, 101, 1009):
            table = theta_table(model, n, d, DEFAULT_TOL)
            full = _eval_korobov(table, range(table.n))
            g = int(rng.integers(1, n))
            for members in (rng.integers(0, n, size=n + 3), [0], [g, n - g], np.arange(n)):
                assert np.array_equal(_eval_korobov(table, members), full[members]), (b, n, members)


def _correlation_rows(table):
    """The d = 2 errors of g = gamma^b, b < m, in long double: the Rader
    rows sum_a T_0[a] T_1[(a + b) mod m] of the float tables, summed
    directly, with the rounding bound of _eval_korobov's docstring."""
    n = table.n
    m = (n - 1) // 2
    gamma = primitive_root(n)
    powers = np.array([pow(gamma, a, n) for a in range(m)], dtype=np.int64)
    t0, t1 = (vals[powers].astype(np.longdouble) for vals in table.values)
    sums = sliding_window_view(np.tile(t1, 2), m)[:m] @ t0
    k0 = np.longdouble(table.values[0][0]) * np.longdouble(table.values[1][0])
    e2 = (k0 + 2 * sums) / n - 1
    # P_j = T_j - 1, delta_j its mean, mu_j = 1 + delta_j, centred T_j - mu_j
    devs = [t0 - 1, t1 - 1]
    deltas = [float(dev.mean()) for dev in devs]
    centred = [float(np.linalg.norm((dev - dev.mean()).astype(float))) for dev in devs]
    two = [float(np.linalg.norm(dev.astype(float))) for dev in devs]
    one = [float(np.abs(dev).sum()) for dev in devs]
    u = 2.0**-53
    p = math.ceil(math.log2(m)) + 21
    gamma_p = p * u / (1 - p * u)
    bound = (
        2 * 84 * u * math.log2(4 * m) * centred[0] * centred[1]
        + 8 * u * two[0] * two[1]
        + 2 * gamma_p * (abs(1 + deltas[1]) * one[0] + abs(1 + deltas[0]) * one[1])
        + 3 * u * float(k0)
    ) / n + 3 * u * (np.abs(e2) + abs(deltas[0]) + abs(deltas[1]) + abs(deltas[0] * deltas[1]))
    return powers, e2, bound


@pytest.mark.parametrize(
    "omega, b",
    [(omega, b) for omega in (0.1, 0.5, 0.9, 0.99) for b in (0.5, 1.0, 2.0) if b != 0.5 or omega <= 0.9],
)
def test_eval_korobov_d2_rows_within_the_fft_bound(omega, b):
    # the bound of _eval_korobov's docstring, with C = 84 and L = 4m, on
    # radix-2..5 lengths, generic-radix ones (m = 86 = 2 * 43, m = 111 =
    # 3 * 37) and Bluestein ones (m = 509 and m = 1019 are prime)
    assert np.finfo(np.longdouble).eps < 1e-18  # the reference's rounding is negligible
    for a in ("constant", "linear"):
        model = make_model(omega=omega, a=(a, 1.0), b=("constant", b))
        for n in (5, 7, 101, 173, 223, 1019, 2039, 4001, 9973):
            table = theta_table(model, n, 2, DEFAULT_TOL)
            powers, exact, bound = _correlation_rows(table)
            assert np.all(np.abs(_eval_korobov(table, powers) - exact) <= bound), (a, n)


def test_eval_korobov_d2_keeps_small_errors():
    # the centred correlation leaves no term near 1 to cancel: on the
    # linear model at N = 100003 the first least row, g = 43, lies within
    # 2^-52 of the dual sum (the uncentred transform was 1.78e-15 off)
    model = KERNEL_MODELS["linear"]
    best = search_korobov(100003, 2, model)
    assert best.best_rule.g == (1, 43)
    dual = wce2_dual_enum(best.best_rule, model, 1.0, 1e-20).value
    assert abs(best.best_e2.value - dual) <= 2.0**-52


def test_eval_korobov_d2_member_lists_read_the_family_bitwise():
    # every member list, at Bluestein lengths too, reads the rows of the
    # whole family; g and N - g share a row
    rng = np.random.default_rng(2)
    for n in (5, 1019, 2039, 4001):
        table = theta_table(KERNEL_MODELS["slow_decay"], n, 2, DEFAULT_TOL)
        full = _eval_korobov(table, range(table.n))
        assert all(full[g] == full[n - g] for g in range(1, n)), n
        for members in (rng.integers(0, n, size=50), [0], [3, n - 3], np.arange(n)[::-1]):
            assert np.array_equal(_eval_korobov(table, members), full[members]), (n, members)
        assert np.array_equal(family_errors(n, 2, KERNEL_MODELS["slow_decay"])[0], full), n


def test_eval_korobov_tables_stay_bounded():
    # the tiled tables hold at most N d + CHUNK_CELLS cells; a (j + 1)-fold
    # tiling of every coordinate would need about m d^2 / 2 = 8 MB here
    n, d = 101, 200
    table = theta_table(KERNEL_MODELS["linear"], n, d, DEFAULT_TOL)
    tracemalloc.start()
    try:
        _eval_korobov(table, range(table.n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * (n * d + CHUNK_CELLS)


def test_family_and_variant_share_one_check(linear_model):
    # the searches and the bounds name an unknown family in one message
    message = "family must be one of ('general', 'korobov'), got 'cbc'"
    with pytest.raises(ValueError) as searched:
        family_errors(13, 2, linear_model, family="cbc")
    with pytest.raises(ValueError) as bounded:
        error_bound(13, 2, 1.0, linear_model, variant="cbc")
    assert str(searched.value) == str(bounded.value) == message
