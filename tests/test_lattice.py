import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korobov import KorobovParam, LatticeRule, is_prime, korobov_vector, next_prime, primitive_root

from conftest import trial_division_is_prime


def test_korobov_vector_powers():
    assert korobov_vector(KorobovParam(7, 3, 4)).g == (1, 3, 2, 6)
    assert korobov_vector(KorobovParam(5, 1, 3)).g == (1, 1, 1)
    assert korobov_vector(KorobovParam(2, 0, 2)).g == (1, 0)


def test_points_small_cases():
    pts = LatticeRule(2, (1, 1)).points()
    assert pts.tolist() == [[0.0, 0.0], [0.5, 0.5]]
    pts = LatticeRule(5, (1, 2)).points()
    assert pts.tolist() == [
        [0.0, 0.0],
        [0.2, 0.4],
        [0.4, 0.8],
        [0.6, 0.2],
        [0.8, 0.6],
    ]
    pts = LatticeRule(3, (0, 1)).points()
    assert np.all(pts[:, 0] == 0.0)


def test_points_injective_when_some_component_nonzero():
    rule = LatticeRule(13, (0, 5, 10))
    pts = rule.points()
    assert len({tuple(p) for p in pts.tolist()}) == 13


def test_points_exact_rationals():
    rule = LatticeRule(7, (3,))
    pts = rule.points()[:, 0]
    expected = np.array([(k * 3 % 7) for k in range(7)], dtype=np.float64) / 7.0
    assert np.array_equal(pts, expected)


def test_next_prime_examples():
    assert next_prime(8) == 11
    assert next_prime(2) == 2
    assert next_prime(7919) == 7919
    assert trial_division_is_prime(7919)


@given(m=st.integers(2, 50_000))
@settings(max_examples=80, deadline=None)
def test_next_prime_bertrand_and_minimality(m):
    p = next_prime(m)
    assert m <= p < 2 * m
    assert trial_division_is_prime(p)
    assert all(not trial_division_is_prime(q) for q in range(m, p))


def test_is_prime_matches_trial_division():
    # the four witnesses 2, 3, 5, 7 decide every n below 3,215,031,751;
    # vectorised trial division by every f <= sqrt(n) is the reference
    n = np.arange(200_001)
    composite = n < 2
    for f in range(2, int(200_000**0.5) + 1):
        composite |= (n % f == 0) & (n != f)
    assert [is_prime(int(k)) for k in n] == (~composite).tolist()
    assert all(is_prime(n) == trial_division_is_prime(n) for n in range(2_147_483_000, 2_147_483_648))
    assert is_prime(2**31 - 1)  # Mersenne prime, the largest admissible modulus
    # 3,215,031,751 is the least strong pseudoprime to 2, 3, 5 and 7, and
    # 3,825,123,056,546,413,051 to every prime witness up to 23: the larger
    # witness set still rejects both
    for n in (3215031751, 3825123056546413051):
        assert not is_prime(n)


def _multiplicative_order(x, n):
    power, order = x % n, 1
    while power != 1:
        power = power * x % n
        order += 1
    return order


def test_primitive_root_order_brute_force():
    for n in range(2, 2000):
        if not trial_division_is_prime(n):
            continue
        gamma = primitive_root(n)
        assert 1 <= gamma < n
        assert _multiplicative_order(gamma, n) == n - 1
        assert all(_multiplicative_order(x, n) < n - 1 for x in range(2, gamma))
    with pytest.raises(ValueError):
        primitive_root(1001)


def test_rule_validation():
    with pytest.raises(ValueError):
        LatticeRule(4, (1,))  # composite modulus
    with pytest.raises(ValueError):
        LatticeRule(5, (5,))  # out of range
    with pytest.raises(ValueError):
        LatticeRule(5, ())  # empty vector
    with pytest.raises(ValueError):
        LatticeRule(2**31 + 11, (1,))  # above the 64-bit-safe cap
    with pytest.raises(ValueError):
        KorobovParam(6, 1, 2)


def test_rule_serialization_round_trip():
    rule = LatticeRule(101, (1, 12, 42))
    assert LatticeRule.from_dict(rule.to_dict()) == rule
    param = KorobovParam(101, 12, 3)
    assert KorobovParam.from_dict(param.to_dict()) == param
    assert korobov_vector(param).g == (1, 12, 12 * 12 % 101)
    with pytest.raises(ValueError):
        LatticeRule.from_dict({"n": 7, "g": [1], "x": 2})


@pytest.mark.parametrize(
    "data",
    [
        {"n": 101.9, "g": [1, 12, 42]},
        {"n": 101, "g": [1, 12.9, 42]},
        {"n": 101, "g": [1, "12", 42]},
        {"n": 101, "g": [True, 12, 42]},
    ],
    ids=["float-n", "float-g", "string-g", "bool-g"],
)
def test_rule_from_dict_takes_integers_only(data):
    with pytest.raises(ValueError, match="must be an integer"):
        LatticeRule.from_dict(data)


def test_from_dict_integral_floats_load_as_before():
    assert LatticeRule.from_dict({"n": 101.0, "g": [1, 12.0, 42]}) == LatticeRule(101, (1, 12, 42))
    assert KorobovParam.from_dict({"n": 101, "g_scalar": 12, "d": 3.0}) == KorobovParam(101, 12, 3)
    for bad in ({"n": 101, "g_scalar": 12, "d": 3.99}, {"n": 101, "g_scalar": False, "d": 3}):
        with pytest.raises(ValueError, match="must be an integer"):
            KorobovParam.from_dict(bad)


def test_rule_document_with_g_scalar_is_a_korobov_rule():
    rule = LatticeRule.from_dict({"n": 13, "g_scalar": 5, "d": 3})
    assert rule == korobov_vector(KorobovParam(13, 5, 3))


@pytest.mark.parametrize(
    "data, message",
    [
        ({"n": 13, "g": [1, 5], "g_scalar": 5, "d": 2}, "unknown fields ['g'] in Korobov parameter"),
        ({"n": 13, "g_scalar": 5, "d": 2, "x": 1}, "unknown fields ['x'] in Korobov parameter"),
        ({"n": 13, "g": [1, 5], "x": 1}, "unknown fields ['x'] in lattice rule"),
        (13, "lattice rule must be a JSON object, got 13"),
    ],
    ids=["g-and-g-scalar", "korobov-extra-field", "rule-extra-field", "non-object"],
)
def test_rule_document_errors_name_the_document(data, message):
    with pytest.raises(ValueError) as info:
        LatticeRule.from_dict(data)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "n, message",
    [
        (2**31 + 11, f"modulus {2**31 + 11} exceeds the cap {2**31}"),
        (2**31 + 1, f"modulus {2**31 + 1} exceeds the cap {2**31}"),
        (6, "modulus must be prime, got 6"),
    ],
    ids=["prime-above-cap", "composite-above-cap", "composite"],
)
def test_rules_and_parameters_share_the_modulus_check(n, message):
    for make in (lambda: LatticeRule(n, (1,)), lambda: KorobovParam(n, 1, 1)):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message
