import json
import math
import pathlib

import pytest

import korobov.bounds
from korobov import (
    alg_classify,
    info_complexity_bound,
    is_prime,
    minkowski_start,
    st_ratio_trace,
    wt_ratio_trace,
)
from korobov.bounds import log_info_complexity_bound

from conftest import make_model

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load_grid(name):
    return json.loads((FIXTURES / "tract_grids.json").read_text())[name]


def test_st_reduces_to_wt(linear_model):
    grid = load_grid("small")
    wt = wt_ratio_trace(grid["d"], grid["eps"], linear_model, source="bound")
    st = st_ratio_trace(1.0, 1.0, grid["d"], grid["eps"], linear_model, source="bound")
    assert wt.records == st.records
    assert wt.mode == "exp_wt"


def test_records_sorted_positive_finite(linear_model):
    trace = wt_ratio_trace([2, 1], [0.5, 0.1], linear_model, source="bound")
    keys = [(r.d, r.epsilon) for r in trace.records]
    assert keys == sorted(keys)
    for r in trace.records:
        assert r.n_value >= 2
        assert 0.0 < r.ratio < math.inf


def test_empirical_below_bound_per_record(linear_model):
    grid = load_grid("small")
    emp = wt_ratio_trace(grid["d"], grid["eps"], linear_model, source="empirical")
    bnd = wt_ratio_trace(grid["d"], grid["eps"], linear_model, source="bound")
    for re, rb in zip(emp.records, bnd.records):
        assert (re.d, re.epsilon) == (rb.d, rb.epsilon)
        assert re.n_value <= rb.n_value


def test_empirical_trace_scans_each_prime_once_per_d(linear_model, monkeypatch):
    searched = []
    sieve = korobov.bounds.korobov_survivors

    def counting(n, d, *args, **kwargs):
        searched.append((d, n))
        return sieve(n, d, *args, **kwargs)

    monkeypatch.setattr(korobov.bounds, "korobov_survivors", counting)
    eps_grid = [1e-2, 1e-3, 1e-4, 1e-5]
    trace = wt_ratio_trace([2, 3], eps_grid, linear_model, source="empirical")
    expected_n = {
        (2, 1e-5): 331, (2, 1e-4): 211, (2, 1e-3): 131, (2, 1e-2): 67,
        (3, 1e-5): 1621, (3, 1e-4): 937, (3, 1e-3): 443, (3, 1e-2): 167,
    }
    assert {(r.d, r.epsilon): r.n_value for r in trace.records} == expected_n
    for r in trace.records:
        assert r.ratio == math.log(r.n_value) / (r.d + math.log(1.0 / r.epsilon))
    # one ascending scan per d, each prime sieved once, over the primes of
    # each segment from an eps's Minkowski start to its answer: 18 + 173
    # primes of the 67 + 257 up to the largest answers
    for d in (2, 3):
        segments = sorted(
            (minkowski_start(eps, d, linear_model), expected_n[d, eps]) for eps in eps_grid
        )
        visits = sorted({n for lo, hi in segments for n in range(lo + 1, hi + 1) if is_prime(n)})
        assert [n for dd, n in searched if dd == d] == visits
    assert len(searched) == 191


def test_bound_source_overflow_sentinel():
    # constant weights: the product term grows geometrically in d
    model = make_model()
    assert info_complexity_bound(1e-3, 64, model)[0] == math.inf
    log_n = log_info_complexity_bound(1e-3, 64, model)[0]
    assert log_n > 62.0 * math.log(2.0)
    [rec] = wt_ratio_trace([64], [1e-3], model, source="bound").records
    assert rec.n_value == math.inf
    assert rec.ratio == log_n / (64 + math.log(1e3))
    assert 0.0 < rec.ratio < math.inf


def test_t_below_one_rejected(linear_model):
    with pytest.raises(ValueError):
        st_ratio_trace(1.0, 0.5, [2], [0.1], linear_model)


def test_st_s2_decreasing_for_constant_weights():
    # s > 1 needs no weight growth at all
    model = make_model()
    trace = st_ratio_trace(2.0, 1.0, [4, 8, 16, 32], [1e-3], model, source="bound")
    ratios = [r.ratio for r in trace.records]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_st_s_half_decreasing_for_superlog_weights():
    # a_j = j**0.5 has a_j / log j -> infinity, enough for s < 1; the decay
    # sets in once the weight sum saturates, hence the larger d grid
    model = make_model(a=("power", 1.0, 0.5))
    trace = st_ratio_trace(0.5, 1.0, [16, 64, 256, 1024], [1e-3], model, source="bound")
    ratios = [r.ratio for r in trace.records]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_partial_sums_monotone(linear_model):
    report = alg_classify(linear_model, d_max=64)
    sums = report["partial_sums"]
    for lam, rows in sums.items():
        vals = [s for _, s in rows]
        assert vals == sorted(vals)  # nondecreasing in d
    # nonincreasing in lambda at fixed d
    d_idx = 2
    by_lam = sorted(sums.items())
    for (lam1, rows1), (lam2, rows2) in zip(by_lam, by_lam[1:]):
        assert rows1[d_idx][1] >= rows2[d_idx][1] - 1e-12


def test_alg_classify_logarithmic_exact_exponent():
    # kappa * log(1/omega) = 2 with omega = 1/e, kappa = 2: bound exactly 1.0
    model = make_model(omega=math.exp(-1.0), a=("logarithmic", 2.0))
    report = alg_classify(model, d_max=64)
    assert report["a_log_limit"] == pytest.approx(2.0)
    assert report["spt_eps_exponent_bound"] == 1.0


def test_alg_classify_constant_capped_at_two(unit_model):
    report = alg_classify(unit_model, d_max=64)
    assert report["a_log_limit"] == 0.0
    assert report["spt_eps_exponent_bound"] == 2.0
    assert report["growth"]["empirical_class"] == "linear"


def test_alg_classify_linear_weights_bounded(linear_model):
    report = alg_classify(linear_model, d_max=256)
    assert report["a_log_limit"] == math.inf
    assert report["spt_eps_exponent_bound"] == 0.0
    assert report["growth"]["empirical_class"] == "bounded"
    assert report["growth"]["closed_form_class"] == "bounded"
    assert report["growth"]["alg_tractability_class"] == "alg_polynomial"
    assert "disclaimer" in report


def test_alg_classify_borderline_logarithmic():
    # kappa * log(1/omega) = 1: terms (j+1)^-1, S_1(d) ~ log d
    model = make_model(omega=math.exp(-1.0), a=("logarithmic", 1.0))
    report = alg_classify(model, d_max=1024)
    assert report["growth"]["empirical_class"] == "logarithmic"
    assert report["growth"]["closed_form_class"] == "logarithmic"


def test_alg_classify_slow_logarithmic_polynomial_growth():
    # kappa * log(1/omega) = 0.5: S_1(d) ~ d^{1/2}
    model = make_model(omega=math.exp(-0.5), a=("logarithmic", 1.0))
    report = alg_classify(model, d_max=1024)
    assert report["growth"]["closed_form_class"].startswith("polynomial")
    assert report["growth"]["empirical_class"].startswith("polynomial")


def _interleaved_partial_sums(model, d_max):
    """Reference partial sums, lambda-major: one walk over j per lambda,
    recording at d = 4, 8, ... below d_max and at d_max."""
    d_grid = []
    d = 4
    while d < d_max:
        d_grid.append(d)
        d *= 2
    d_grid.append(d_max)
    partial_sums = {}
    for lam in korobov.bounds.LAMBDA_GRID:
        running = 0.0
        j = 0
        row = []
        for d in d_grid:
            while j < d:
                j += 1
                running += model.omega ** (lam * model.a_j(j))
            row.append((d, running))
        partial_sums[lam] = row
    return partial_sums


ALG_MODELS = {
    "constant": make_model(),
    "linear": make_model(a=("linear", 1.0)),
    "logarithmic": make_model(omega=math.exp(-0.5), a=("logarithmic", 1.0)),
    "power": make_model(omega=0.9, a=("power", 1.0, 0.5)),
    "explicit": make_model(a=("explicit", (1.0, 1.5, 2.5, 4.0))),
    "prefix_a": make_model(a=("linear", 1.0), prefix_a=(0.25, 0.5, 0.5)),
}


@pytest.mark.parametrize("d_max", [9, 64, 1000, 1024])
@pytest.mark.parametrize("name", sorted(ALG_MODELS))
def test_alg_partial_sums_bit_identical_to_interleaved_loop(name, d_max):
    model = ALG_MODELS[name]
    got = alg_classify(model, d_max=d_max)["partial_sums"]
    assert got == _interleaved_partial_sums(model, d_max)  # float for float


def test_alg_classify_reads_each_weight_once(linear_model, monkeypatch):
    calls = []
    a_j = korobov.WeightModel.a_j

    def counting_a_j(self, j):
        calls.append(j)
        return a_j(self, j)

    monkeypatch.setattr(korobov.WeightModel, "a_j", counting_a_j)
    alg_classify(linear_model, d_max=1000)
    assert len(calls) <= 1000


@pytest.mark.parametrize("d_max", [4, 5, 6, 7, 8])
def test_alg_classify_rejects_grids_below_three_points(unit_model, d_max):
    # the grid [4] or [4, d_max] makes S_1 at index len // 2 the last point,
    # so the growth would read 0 and constant weights would be called bounded
    with pytest.raises(ValueError, match="d_max must be >= 9"):
        alg_classify(unit_model, d_max=d_max)


def test_alg_classify_constant_weights_linear_from_nine(unit_model):
    report = alg_classify(unit_model, d_max=9)
    assert [d for d, _ in report["partial_sums"][1.0]] == [4, 8, 9]
    assert report["growth"]["empirical_class"] == "linear"
    assert report["growth"]["closed_form_class"] == "linear"
    assert report["growth"]["alg_tractability_class"] == "none_of_the_sufficient_conditions"
