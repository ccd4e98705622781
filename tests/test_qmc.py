import math

import numpy as np
import pytest

from korobov import (
    FourierPolynomial,
    LatticeRule,
    convergence_study,
    dual_witness,
    error_vs_wce,
    exact_qmc_error,
    product_cosine,
    qmc_apply,
    random_sparse,
    rho,
)

from conftest import brute_dominant_frequency, make_model


def test_constant_integrand_exact():
    f = FourierPolynomial.from_terms({(0, 0): 2.5})
    for rule in (LatticeRule(2, (1, 1)), LatticeRule(7, (1, 3))):
        assert qmc_apply(f, rule) == pytest.approx(2.5)
        assert exact_qmc_error(f, rule) == 0


def test_single_frequency_not_in_dual():
    # h=1 with N=2, g=(1): 1 not dual, integrated exactly
    f = FourierPolynomial.from_terms({(1,): 1.0})
    rule = LatticeRule(2, (1,))
    assert abs(qmc_apply(f, rule)) <= 1e-14
    assert exact_qmc_error(f, rule) == 0


def test_single_frequency_in_dual():
    # h=2 with N=2, g=(1): dual; rule integrates it to 1, true integral 0
    f = FourierPolynomial.from_terms({(2,): 1.0})
    rule = LatticeRule(2, (1,))
    assert qmc_apply(f, rule) == pytest.approx(1.0, abs=1e-13)
    assert exact_qmc_error(f, rule) == pytest.approx(1.0)


def test_identity_on_random_corpus():
    rng = np.random.default_rng(42)
    model = make_model(a=("linear", 1.0))
    for _ in range(30):
        d = int(rng.integers(1, 4))
        n = int(rng.choice([3, 5, 7, 13]))
        g = tuple(int(v) for v in rng.integers(0, n, size=d))
        rule = LatticeRule(n, g)
        f = random_sparse(d, model, int(rng.integers(3, 20)), rng)
        lhs = qmc_apply(f, rule) - f.integral()
        rhs = exact_qmc_error(f, rule)
        assert abs(lhs - rhs) <= 1e-12


def test_product_cosine_structure():
    f = product_cosine(2, (0.5, 1.0))
    terms = dict(f.terms)
    assert terms[(0, 0)] == pytest.approx(1.0)
    assert terms[(1, 0)] == pytest.approx(0.25)
    assert terms[(1, 1)] == pytest.approx(0.125)
    assert f.integral() == pytest.approx(1.0)
    # realized error against a rule, cross-checked by direct evaluation
    rule = LatticeRule(5, (1, 2))
    pts = rule.points()
    direct = np.mean(np.prod(1.0 + np.array([0.5, 1.0]) * np.cos(2 * math.pi * pts), axis=1))
    assert qmc_apply(f, rule).real == pytest.approx(float(direct), abs=1e-12)
    assert abs(qmc_apply(f, rule).imag) <= 1e-12


def test_real_corpus_real_values():
    rng = np.random.default_rng(9)
    model = make_model()
    rule = LatticeRule(7, (1, 3))
    for _ in range(10):
        f = random_sparse(2, model, 8, rng)
        assert abs(qmc_apply(f, rule).imag) <= 1e-12


def test_error_dominated_by_wce_times_norm():
    rng = np.random.default_rng(99)
    model = make_model(a=("linear", 1.0))
    rule = LatticeRule(13, (1, 5))
    for _ in range(20):
        f = random_sparse(2, model, 10, rng)
        rep = error_vs_wce(f, rule, model)
        assert rep["realized"] <= rep["bound_upper"] + 1e-10
        assert rep["ratio"] <= 1.0 + 1e-8


def test_ratio_stays_finite_below_the_character_sum_noise():
    # e^2 = 2 * 0.3**37 ~ 9e-20: the closed-form character sum reads it as
    # 0, so the comparison takes it from the dual sum
    model = make_model(omega=0.3, a=("linear", 1.0))
    rule = LatticeRule(37, (11,))
    f = dual_witness(rule, model)
    rep = error_vs_wce(f, rule, model)
    e2 = 2.0 * 0.3**37
    assert rep["bound"] == pytest.approx(math.sqrt(e2) * f.norm(model), rel=1e-12)
    assert rep["ratio"] == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert rep["realized"] <= rep["bound_upper"]


def test_witness_nearly_saturates_bound():
    # max saturation over a witness corpus reaches 1/2 (single instances can
    # fall short when the dominant mass splits across symmetric frequencies)
    model = make_model(omega=0.3, a=("linear", 1.0))
    corpus = [LatticeRule(3, (1,)), LatticeRule(13, (1, 3)), LatticeRule(13, (1, 5))]
    ratios = []
    for rule in corpus:
        f = dual_witness(rule, model)
        assert f.norm(model) == pytest.approx(1.0, rel=1e-12)
        rep = error_vs_wce(f, rule, model)
        ratios.append(rep["ratio"])
        # realized error is exactly sqrt(rho(h*))
        h_star, _ = f.terms[0]
        assert rep["realized"] == pytest.approx(math.sqrt(rho(h_star, model)), rel=1e-12)
        assert rep["ratio"] <= 1.0 + 1e-9
    assert max(ratios) >= 0.5


def test_witness_on_slow_decay_rule():
    # omega = 0.9, b = 1/2: the dual sum's truncation region is far too large
    # to enumerate, but the region up to N * e_1 holds the heaviest frequency
    model = make_model(omega=0.9, b=("constant", 0.5))
    rule = LatticeRule(13, (1, 5, 8))
    [(h_star, _)] = dual_witness(rule, model).terms
    assert h_star == (0, -1, -1)
    assert h_star == brute_dominant_frequency(rule.n, rule.g, model, rule.n)


def test_dimension_mismatch_raises():
    f = FourierPolynomial.from_terms({(1, 0): 1.0})
    with pytest.raises(ValueError):
        qmc_apply(f, LatticeRule(5, (1,)))
    with pytest.raises(ValueError):
        exact_qmc_error(f, LatticeRule(5, (1,)))


def test_conjugate_symmetry_validation():
    with pytest.raises(ValueError):
        FourierPolynomial.from_terms({(1,): 1.0 + 0.5j}, real_symmetric=True)


def test_serialization_round_trip():
    f = product_cosine(2, (0.5, 0.25))
    again = FourierPolynomial.from_dict(f.to_dict())
    assert again == f
    with pytest.raises(ValueError):
        FourierPolynomial.from_dict({"terms": [{"h": [1], "re": 1.0, "weird": 2}]})


@pytest.mark.parametrize(
    "terms, match",
    [
        ([{"h": [1, 0], "re": 1.0}, {"h": [1, 0], "re": 2.0}], "appears twice"),
        ([{"h": [1, 0], "re": 1.0}, {"h": [1.0, 0], "re": 2.0}], "appears twice"),
        ([{"h": [1.7, 0], "re": 1.0}, {"h": [1, 0], "re": 2.0}], "must be an integer"),
        ([{"h": ["1", 0], "re": 1.0}], "must be an integer"),
        ([{"h": [True, 0], "re": 1.0}], "must be an integer"),
    ],
    ids=["duplicate", "duplicate-integral-float", "float-h", "string-h", "bool-h"],
)
def test_polynomial_from_dict_integer_frequencies_once(terms, match):
    with pytest.raises(ValueError, match=match):
        FourierPolynomial.from_dict({"terms": terms})


def test_convergence_study_columns_and_bound(unit_model):
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    rows = convergence_study(1, unit_model, primes)
    assert [r["n"] for r in rows] == primes
    for r in rows:
        assert r["e"] > 0.0
        assert r["n_e"] == pytest.approx(r["n"] * r["e"])
        assert r["n4_e"] == pytest.approx(float(r["n"]) ** 4 * r["e"])
        assert r["e"] <= r["bound"] + 1e-12
    # d=1 decay: N^4 e eventually decreasing
    tail = [r["n4_e"] for r in rows[4:]]
    assert all(a >= b for a, b in zip(tail, tail[1:]))
    with pytest.raises(ValueError):
        convergence_study(1, unit_model, [5, 3])
