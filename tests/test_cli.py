import csv
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from korobov import LatticeRule, qmc_apply, FourierPolynomial, search_korobov, wce2_theta_product
from korobov import (
    KorobovParam,
    a_lambda,
    error_bound,
    exact_qmc_error,
    korobov_vector,
    product_bound,
    st_ratio_trace,
    wce2_dual_enum,
    wce2_kernel_double_sum,
)
from korobov import WeightModel, bounds, cli
from korobov.bounds import LAMBDA_GRID, log_info_complexity_bound
from korobov.cli import main
from korobov.qmc import convergence_study
from korobov.search import family_errors
from korobov.space import CHUNK_CELLS
from korobov.tract import ALG_D_MAX_CAP, alg_classify

from conftest import brute_dual_e2, first_sieved_prime, make_model

MODEL = {"omega": 0.5, "a": {"kind": "linear", "kappa": 1.0}, "b": {"kind": "constant", "kappa": 1.0}}


@pytest.fixture
def model_path(tmp_path):
    p = tmp_path / "model.json"
    p.write_text(json.dumps(MODEL))
    return str(p)


def run_cli(args):
    return main(args)


def test_wce_emits_required_keys(model_path, tmp_path, capsys):
    out = tmp_path / "wce.json"
    code = run_cli(
        ["wce", "--model", model_path, "--n", "13", "--g", "1,5", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "korobov/2"
    assert payload["config"]["model"] == MODEL
    result = payload["result"]
    for key in ("n", "g", "e2", "e", "trunc_bound", "method"):
        assert key in result
    expected = wce2_theta_product(LatticeRule(13, (1, 5)), make_model(a=("linear", 1.0)))
    assert result["e2"] == pytest.approx(expected.value, rel=1e-12)


def test_wce_korobov_scalar_form(model_path, tmp_path):
    out = tmp_path / "wce.json"
    assert run_cli(["wce", "--model", model_path, "--n", "13", "--g-scalar", "5", "--d", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["g"] == [1, 5]


def test_search_json_and_determinism(model_path, tmp_path):
    out1, out2, out3 = (tmp_path / f"s{i}.json" for i in range(3))
    for out, threads in ((out1, "1"), (out2, "1"), (out3, "4")):
        code = run_cli(
            ["search", "--model", model_path, "--n", "31", "--d", "2", "--threads", threads, "--out", str(out)]
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()
    res = json.loads(out1.read_text())["result"]
    lib = search_korobov(31, 2, make_model(a=("linear", 1.0)))
    assert res["best_rule"] == lib.best_rule.to_dict()
    assert res["evaluated"] == 31


def test_search_candidate_csv(model_path, tmp_path):
    out = tmp_path / "cands.csv"
    code = run_cli(
        ["search", "--model", model_path, "--n", "5", "--d", "2", "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema: korobov/2"
    assert lines[1].startswith("# config: ")
    assert lines[2] == "g,e2,trunc_bound"
    assert len(lines) == 3 + 5
    # decimal points, not commas, in float cells
    assert "." in lines[3].split(",")[1]


def test_search_outputs_thread_invariant(model_path, tmp_path, monkeypatch):
    # the general family at N = 13, d = 4 spans six blocks of
    # CHUNK_CELLS // N vectors, so every thread count splits them
    assert 13**4 > 5 * (CHUNK_CELLS // 13)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)  # three workers on any machine
    for fmt in ("csv", "json"):
        outs = []
        for threads in ("1", "2", "3"):
            out = tmp_path / f"s{threads}.{fmt}"
            code = run_cli(
                ["search", "--model", model_path, "--n", "13", "--d", "4", "--variant", "general",
                 "--format", fmt, "--threads", threads, "--out", str(out)]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]


def test_bound_report(model_path, tmp_path):
    out = tmp_path / "bound.json"
    assert run_cli(["bound", "--model", model_path, "--n", "13", "--d", "2", "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    for key in ("lambda", "a_lambda", "product_term", "bound_value", "variant"):
        assert key in result
    assert result["product_term"] >= 1.0


def test_nofe_output(model_path, tmp_path):
    out = tmp_path / "nofe.json"
    assert run_cli(["nofe", "--model", model_path, "--epsilon", "0.4", "--d", "1", "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert set(result) == {"epsilon", "d", "n_lower", "n_upper", "n_bound", "lambda_star"}
    assert result["n_lower"] <= result["n_upper"] <= result["n_bound"]


def test_tract_csv_and_alg_json(model_path, tmp_path):
    out = tmp_path / "trace.csv"
    code = run_cli(
        ["tract", "--model", model_path, "--mode", "wt", "--d-list", "1,2", "--eps-list", "0.5,0.3", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "d,epsilon,n,ratio,mode,source"
    assert len(lines) == 3 + 4
    out2 = tmp_path / "alg.json"
    assert run_cli(["tract", "--model", model_path, "--mode", "alg", "--out", str(out2)]) == 0
    payload = json.loads(out2.read_text())
    assert payload["result"]["spt_eps_exponent_bound"] == 0.0  # linear weights
    assert "tol" not in payload["config"]  # the alg report reads no tolerance


def test_tract_alg_partial_sums_in_ascending_lambda(model_path, tmp_path):
    out = tmp_path / "alg.json"
    assert run_cli(["tract", "--model", model_path, "--mode", "alg", "--out", str(out)]) == 0
    written = json.loads(out.read_text())["result"]["partial_sums"]
    assert list(written) == [repr(lam) for lam in sorted(LAMBDA_GRID)]  # file order
    expected = alg_classify(WeightModel.from_dict(MODEL), 1024)["partial_sums"]
    assert written == {repr(lam): [list(row) for row in rows] for lam, rows in expected.items()}


@pytest.mark.parametrize("d_max", ["4", "8"])
def test_tract_alg_d_max_below_nine_is_config_error(model_path, capsys, d_max):
    code = run_cli(["tract", "--model", model_path, "--mode", "alg", "--d-max", d_max])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "config"


def test_exit_code_cap_exceeded_by_tract_alg(model_path, capsys):
    # the cap is checked before the first weight is read
    code = run_cli(["tract", "--model", model_path, "--mode", "alg",
                    "--d-max", str(ALG_D_MAX_CAP + 1)])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "cap_exceeded"


def test_integrate_matches_library(model_path, tmp_path):
    poly = {"terms": [{"h": [2, 0], "re": 0.5, "im": 0.0}, {"h": [0, 0], "re": 1.0, "im": 0.0}]}
    rule = {"n": 5, "g": [1, 2]}
    pp, rp = tmp_path / "poly.json", tmp_path / "rule.json"
    pp.write_text(json.dumps(poly))
    rp.write_text(json.dumps(rule))
    out = tmp_path / "int.json"
    code = run_cli(
        ["integrate", "--poly", str(pp), "--rule", str(rp), "--model", model_path, "--out", str(out)]
    )
    assert code == 0
    result = json.loads(out.read_text())["result"]
    f = FourierPolynomial.from_dict(poly)
    q = qmc_apply(f, LatticeRule(5, (1, 2)))
    assert result["q_re"] == pytest.approx(q.real, abs=1e-13)
    assert result["vs_wce"]["ratio"] <= 1.0 + 1e-9


def test_integrate_tol_needs_model(model_path, tmp_path, capsys):
    poly = {"terms": [{"h": [0, 0], "re": 1.0, "im": 0.0}]}
    pp, rp = tmp_path / "poly.json", tmp_path / "rule.json"
    pp.write_text(json.dumps(poly))
    rp.write_text(json.dumps({"n": 5, "g": [1, 2]}))
    base = ["integrate", "--poly", str(pp), "--rule", str(rp)]
    with pytest.raises(SystemExit) as exc:
        main([*base, "--tol", "1e-12"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol" in json.loads(captured.err)["error"]["message"]
    # without --model no tolerance is read, so none is echoed; with --model it is read
    out = tmp_path / "int.json"
    assert run_cli([*base, "--out", str(out)]) == 0
    assert "tol" not in json.loads(out.read_text())["config"]
    assert run_cli([*base, "--model", model_path, "--tol", "1e-12", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["tol"] == 1e-12


def test_convergence_csv(model_path, tmp_path):
    out = tmp_path / "conv.csv"
    code = run_cli(
        ["convergence", "--model", model_path, "--d", "1", "--primes-up-to", "23", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "n,e,n_e,n2_e,n4_e,bound"
    assert len(lines) == 3 + 9  # primes up to 23


def test_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"omega": 0.5, "a": {"kind": "cubic", "kappa": 1.0}, "b": {"kind": "constant", "kappa": 1.0}}))
    code = run_cli(["search", "--model", str(bad), "--n", "5", "--d", "2"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config"


def test_exit_code_cap_exceeded(model_path, capsys):
    code = run_cli(
        ["search", "--model", model_path, "--n", "101", "--d", "3", "--variant", "general"]
    )
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "cap_exceeded"


def test_exit_code_cap_exceeded_by_theta_table(model_path, capsys):
    # N * d = 2**32 - 2 cells exceed the theta table's cap of 1e7, which is
    # checked before any row is allocated (a row alone would take 17 GB)
    code = run_cli(["wce", "--model", model_path, "--n", "2147483647", "--g", "1,2"])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "cap_exceeded"


def test_search_modulus_above_the_cap_exits_two_like_wce(model_path, capsys):
    # search checks its modulus with the rules' own check before any table
    # is sized, so a prime above the cap is a config error, not a table cap
    errors = []
    for argv in (["search", "--n", "2147483659", "--d", "1"], ["wce", "--n", "2147483659", "--g", "1"]):
        assert main([argv[0], "--model", model_path, *argv[1:]]) == 2
        errors.append(json.loads(capsys.readouterr().err)["error"])
    assert errors == [{"type": "config", "message": "modulus 2147483659 exceeds the cap 2147483648"}] * 2
    assert main(["search", "--model", model_path, "--n", "9", "--d", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["message"] == "modulus must be prime, got 9"


@pytest.mark.parametrize(
    "g, e2", [("1,2", 2.0 / 15.0), ("1,1073741824", 2.0 / 31.0)], ids=["g2", "g2-inverse"]
)
def test_dual_enum_at_largest_modulus(model_path, tmp_path, g, e2):
    # N = 2**31 - 1: the only dual h of weight above 1e-30 are t * (-2, 1),
    # or t * (1, -2) since 2**30 = 2**-1 mod N, so e2 = 2 sum_t 2**(-4t) or
    # 2 sum_t 2**(-5t); no array of length N is allocated
    out = tmp_path / "wce.json"
    code = run_cli(["wce", "--model", model_path, "--n", "2147483647", "--g", g,
                    "--method", "dual_enum", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["result"]["e2"] == pytest.approx(e2, abs=1e-15)


@pytest.mark.parametrize(
    "primes",
    [["--primes-up-to", "2000000000"], ["--primes", "5,7,2147483647"]],
    ids=["primes-up-to", "primes"],
)
def test_exit_code_cap_exceeded_by_convergence(model_path, capsys, primes):
    # moduli above the scan cap are rejected before the prime list is built
    # or any search runs
    code = run_cli(["convergence", "--model", model_path, "--d", "1", *primes])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "cap_exceeded"


def test_exit_code_cap_exceeded_by_minkowski_start(model_path, capsys, monkeypatch):
    # at eps = 1e-25, d = 3 Minkowski excludes every modulus up to 129598,
    # above the scan cap, so nofe exits 3 before it sieves any prime
    searched = []
    monkeypatch.setattr(bounds, "korobov_survivors", lambda *args: searched.append(args))
    code = run_cli(["nofe", "--model", model_path, "--epsilon", "1e-25", "--d", "3"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "cap_exceeded"
    assert "129598" in err["message"]
    assert searched == []


def test_exit_code_cap_exceeded_by_the_sieve_walk(tmp_path, capsys):
    # omega = 0.1, constant a, b = 1/2, d = 9: the sieve's prefix region at
    # eps = 1e-6 holds about 8.6e8 cells, over the enumeration cap, so nofe
    # exits 3 at the first prime above the Minkowski start 17770
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps({"omega": 0.1, "a": {"kind": "constant", "kappa": 1.0}, "b": {"kind": "constant", "kappa": 0.5}})
    )
    code = run_cli(["nofe", "--model", str(path), "--epsilon", "1e-6", "--d", "9"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "cap_exceeded"
    assert err["message"].startswith("prime 17783, eps = 1e-06: sieve ")


def test_exit_code_cap_exceeded_by_integrate(tmp_path, capsys):
    # N * (d + terms) = 3 * (2**31 - 1) cells exceed qmc_apply's cap of 2e6,
    # which is checked before the (N, d) node array is built
    pp, rp = tmp_path / "poly.json", tmp_path / "rule.json"
    pp.write_text(json.dumps({"terms": [{"h": [1, 0], "re": 1.0, "im": 0.0}]}))
    rp.write_text(json.dumps({"n": 2147483647, "g": [1, 2]}))
    code = run_cli(["integrate", "--poly", str(pp), "--rule", str(rp)])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "cap_exceeded"


def test_exit_code_cap_exceeded_by_kernel_double_sum(model_path, capsys):
    # 10007**2 pairs exceed the double sum's cap of 1e8
    code = run_cli(
        ["wce", "--model", model_path, "--n", "10007", "--g", "1,5", "--method", "kernel_double_sum"]
    )
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "cap_exceeded"


def test_exit_code_cap_exceeded_by_kernel_double_sum_factor_cells(tmp_path, capsys):
    # 1009**2 pairs are within the cap, but the slow model's series need
    # 1009 * sum_j H_j ~ 6.4e8 factor cells, refused before any is computed
    slow = tmp_path / "slow.json"
    slow.write_text(
        json.dumps({"omega": 0.9, "a": {"kind": "logarithmic", "kappa": 1.0}, "b": {"kind": "constant", "kappa": 0.5}})
    )
    code = run_cli(["wce", "--model", str(slow), "--n", "1009", "--g", "1,5", "--method", "kernel_double_sum"])
    assert code == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "cap_exceeded"
    assert "factor cells" in error["message"]


def test_exit_code_certificate_failure(tmp_path, capsys):
    # omega near 1 with slow fractional-power decay cannot be certified
    pathological = tmp_path / "p.json"
    pathological.write_text(
        json.dumps({"omega": 0.99, "a": {"kind": "constant", "kappa": 0.01}, "b": {"kind": "constant", "kappa": 0.2}})
    )
    code = run_cli(["wce", "--model", str(pathological), "--n", "5", "--g", "1"])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "certificate"


def test_straddled_certificate_exits_four(model_path, capsys):
    # eps^2 = 1e-16 lies inside the certified interval of prime 757, the
    # first prime above the Minkowski start whose Korobov family keeps a
    # generator with no dual h of E(h) <= T' = log(2 / eps^2) / log 2,
    # found here by box enumeration
    t_cut = math.log(2.0 / 1e-16) / math.log(2.0) * (1.0 - bounds.MINKOWSKI_MARGIN)
    model = WeightModel.from_dict(MODEL)
    n = first_sieved_prime(bounds.minkowski_start(1e-8, 2, model), 2, model, t_cut)
    assert n == 757
    code = run_cli(["nofe", "--model", model_path, "--epsilon", "1e-8", "--d", "2"])
    assert code == 4
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "certificate"
    assert f"prime {n}:" in err["message"]


def test_straddle_at_the_first_sieved_prime_in_three_dimensions(model_path, capsys):
    # at d = 3 the sieve skips every prime from the Minkowski start 4421 up
    # to 5569, the first whose Korobov family keeps a generator
    code = run_cli(["nofe", "--model", model_path, "--epsilon", "1e-8", "--d", "3"])
    assert code == 4
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "certificate"
    assert "prime 5569:" in err["message"]


def test_parser_survives_an_argument_error(model_path, tmp_path):
    # the parser is built once per process; an argument error in one call
    # leaves the next call's output as it is in a fresh process
    alone, after = tmp_path / "alone.json", tmp_path / "after.json"
    argv = ["wce", "--model", model_path, "--n", "13", "--g", "1,5", "--method", "dual_enum"]
    proc = subprocess.run(
        [sys.executable, "-m", "korobov.cli", *argv, "--out", str(alone)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    cli._build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["wce", "--model", model_path, "--n", "13", "--g", "1,5", "--d", "2"])
    assert exc.value.code == 2
    assert main([*argv, "--out", str(after)]) == 0
    assert after.read_bytes() == alone.read_bytes()
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize(
    "poly, rule",
    [
        pytest.param({"terms": [{"h": [1, 0], "re": 1.0}]}, {"n": 101.9, "g": [1, 12]}, id="rule-float-n"),
        pytest.param({"terms": [{"h": [1, 0], "re": 1.0}]}, {"n": 101, "g": [1, 12.9]}, id="rule-float-g"),
        pytest.param({"terms": [{"h": [1, 0], "re": 1.0}]}, {"n": 101, "g_scalar": 12, "d": 2.99}, id="param-float-d"),
        pytest.param(
            {"terms": [{"h": [1, 0], "re": 1.0}, {"h": [1, 0], "re": 2.0}]}, {"n": 101, "g": [1, 12]}, id="poly-duplicate"
        ),
        pytest.param(
            {"terms": [{"h": [1.7, 0], "re": 1.0}, {"h": [1, 0], "re": 2.0}]}, {"n": 101, "g": [1, 12]}, id="poly-float-h"
        ),
    ],
)
def test_bad_rule_or_polynomial_file_exits_two(tmp_path, capsys, poly, rule):
    pp, rp = tmp_path / "poly.json", tmp_path / "rule.json"
    pp.write_text(json.dumps(poly))
    rp.write_text(json.dumps(rule))
    assert run_cli(["integrate", "--poly", str(pp), "--rule", str(rp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "config"


RULE = {"n": 101, "g": [1, 12]}
POLY = {"terms": [{"h": [1, 0], "re": 1.0}]}


@pytest.mark.parametrize(
    "poly, rule, message",
    [
        pytest.param(
            {"terms": [{"h": [1, 0], "re": 0.5}, {"h": [-1, 0], "re": 0.5}], "real_symmetric": "no"}, RULE,
            "real_symmetric must be a boolean, got 'no'", id="poly-string-real-symmetric",
        ),
        pytest.param(
            {"terms": [{"h": [1, 0], "re": "0.5"}]}, RULE, "re must be a number, got '0.5'", id="poly-string-re"
        ),
        pytest.param(
            {"terms": [{"h": [1, 0], "im": True}]}, RULE, "im must be a number, got True", id="poly-boolean-im"
        ),
        pytest.param({"terms": [{"h": "10", "re": 1.0}]}, RULE, "h must be an array, got '10'", id="poly-string-h"),
        pytest.param({"terms": POLY["terms"][0]}, RULE, "terms must be an array", id="poly-object-terms"),
        pytest.param(POLY, {"n": 101, "g": "112"}, "g must be an array, got '112'", id="rule-string-g"),
        pytest.param({"real_symmetric": False}, RULE, "polynomial is missing field 'terms'", id="poly-no-terms"),
        pytest.param({"terms": [{"re": 1.0}]}, RULE, "polynomial term is missing field 'h'", id="poly-term-no-h"),
        pytest.param({"terms": [5]}, RULE, "polynomial term must be a JSON object, got 5", id="poly-int-term"),
        pytest.param(
            {"terms": ["ab"]}, RULE, "polynomial term must be a JSON object, got 'ab'", id="poly-string-term"
        ),
        pytest.param([POLY], RULE, "polynomial must be a JSON object, got [", id="poly-array-document"),
        pytest.param(POLY, {"n": 101}, "lattice rule is missing field 'g'", id="rule-no-g"),
        pytest.param(POLY, {"g": [1, 12]}, "lattice rule is missing field 'n'", id="rule-no-n"),
        pytest.param(POLY, [13], "lattice rule must be a JSON object, got [13]", id="rule-array-document"),
        pytest.param(POLY, 13, "lattice rule must be a JSON object, got 13", id="rule-int-document"),
        pytest.param(
            POLY, {"n": 101, "g_scalar": 12}, "Korobov parameter is missing field 'd'", id="param-no-d"
        ),
    ],
)
def test_mistyped_rule_or_polynomial_field_exits_two(tmp_path, capsys, poly, rule, message):
    pp, rp = tmp_path / "poly.json", tmp_path / "rule.json"
    pp.write_text(json.dumps(poly))
    rp.write_text(json.dumps(rule))
    assert run_cli(["integrate", "--poly", str(pp), "--rule", str(rp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in json.loads(captured.err)["error"]["message"]


def _model_with(**fields):
    return {**MODEL, **fields}


@pytest.mark.parametrize(
    "model, message",
    [
        pytest.param(_model_with(omega="0.5"), "omega must be a number, got '0.5'", id="string-omega"),
        pytest.param(
            _model_with(a={"kind": "linear", "kappa": True}), "kappa must be a number, got True", id="boolean-kappa"
        ),
        pytest.param(
            _model_with(a={"kind": "linear", "kappa": 10**400}), "kappa lies beyond the float range",
            id="integer-kappa-past-float-range",
        ),
        pytest.param(
            _model_with(a={"kind": "explicit", "values": "12"}), "values must be an array, got '12'",
            id="string-values",
        ),
        pytest.param(
            _model_with(a={"kind": "explicit", "values": [1.0, "2"]}), "values entry must be a number, got '2'",
            id="string-values-entry",
        ),
        pytest.param(
            _model_with(b={"kind": "power", "kappa": 1.0, "p": "2"}), "p must be a number, got '2'",
            id="string-power-p",
        ),
        pytest.param(_model_with(prefix_a="5"), "prefix_a must be an array, got '5'", id="string-prefix-a"),
        pytest.param(
            _model_with(prefix_b=[1.0, False]), "prefix_b entry must be a number, got False",
            id="boolean-prefix-b-entry",
        ),
        pytest.param(
            _model_with(a={"kind": "linear"}), "weight family 'linear' is missing field 'kappa'", id="no-kappa"
        ),
        pytest.param(
            _model_with(b={"kind": "power", "kappa": 1.0}), "weight family 'power' is missing field 'p'",
            id="no-power-p",
        ),
        pytest.param(
            {key: MODEL[key] for key in ("a", "b")}, "weight model is missing field 'omega'", id="no-omega"
        ),
        pytest.param(5, "weight model must be a JSON object, got 5", id="int-document"),
    ],
)
def test_mistyped_model_field_exits_two(tmp_path, capsys, model, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert run_cli(["wce", "--model", str(path), "--n", "13", "--g", "1,5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["message"] == f"invalid weight model: {message}"


def test_model_file_takes_integers_for_numbers(tmp_path):
    explicit, constant = {"kind": "explicit", "values": [1, 2]}, {"kind": "constant", "kappa": 1}
    path, out = tmp_path / "model.json", tmp_path / "wce.json"
    path.write_text(json.dumps(_model_with(a=explicit, b=constant, prefix_b=[2])))
    assert run_cli(["wce", "--model", str(path), "--n", "13", "--g", "1,5", "--out", str(out)]) == 0
    echoed = json.loads(out.read_text())["config"]["model"]
    assert echoed["a"]["values"] == [1.0, 2.0] and echoed["b"]["kappa"] == 1.0 and echoed["prefix_b"] == [2.0]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["search", "--n", "13", "--d", "0"], "dimension must be >= 1, got 0", id="search-d-zero"),
        pytest.param(["search", "--n", "13", "--d", "-1"], "dimension must be >= 1, got -1", id="search-d-negative"),
        pytest.param(
            ["search", "--n", "7", "--d", "0", "--variant", "general"], "dimension must be >= 1, got 0",
            id="search-general-d-zero",
        ),
        pytest.param(
            ["convergence", "--d", "0", "--primes", "5"], "dimension must be >= 1, got 0", id="convergence-d-zero"
        ),
        pytest.param(["bound", "--n", "0", "--d", "3"], "modulus must be >= 1, got 0", id="bound-n-zero"),
        pytest.param(["bound", "--n", "-5", "--d", "3"], "modulus must be >= 1, got -5", id="bound-n-negative"),
        pytest.param(
            ["bound", "--n", "0", "--d", "3", "--lambda", "0.5"], "modulus must be >= 1, got 0",
            id="bound-lambda-n-zero",
        ),
        pytest.param(["bound", "--n", "13", "--d", "0"], "dimension must be >= 1, got 0", id="bound-d-zero"),
        pytest.param(["nofe", "--epsilon", "0.1", "--d", "0"], "dimension must be >= 1, got 0", id="nofe-d-zero"),
        pytest.param(
            ["search", "--n", "13", "--d", "2", "--threads", "0"], "threads must be >= 1, got 0", id="threads-zero"
        ),
        pytest.param(
            ["search", "--n", "13", "--d", "2", "--threads", "-4", "--format", "csv"],
            "threads must be >= 1, got -4", id="threads-negative-csv",
        ),
        pytest.param(
            ["search", "--n", "7", "--d", "2", "--threads", "0", "--variant", "general"],
            "threads must be >= 1, got 0", id="threads-zero-general",
        ),
    ],
)
def test_bad_size_or_threads_exits_two_naming_it(model_path, capsys, argv, message):
    assert main([argv[0], "--model", model_path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {"type": "config", "message": message}


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["search", "--frobnicate", "1"], id="search-frobnicate"),
        # flags that only search (--threads) or search/tract/convergence (--format)
        # read, and --seed, which nothing read, are not accepted elsewhere
        pytest.param(["wce", "--n", "13", "--g", "1,5", "--seed", "1"], id="wce-seed"),
        pytest.param(["bound", "--n", "13", "--d", "2", "--format", "csv"], id="bound-format"),
        pytest.param(["nofe", "--epsilon", "0.1", "--d", "2", "--threads", "2"], id="nofe-threads"),
        pytest.param(
            ["integrate", "--poly", "p.json", "--rule", "r.json", "--format", "csv"],
            id="integrate-format",
        ),
    ],
)
def test_unknown_flag_exits_two(model_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--model", model_path, *argv[1:]])
    assert exc.value.code == 2


def test_console_entry_point(model_path):
    proc = subprocess.run(
        [sys.executable, "-m", "korobov.cli", "search", "--model", model_path, "--n", "5", "--d", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == "korobov/2"


# ---------------------------------------------------------------------------
# CLI paths checked against the matching library call
# ---------------------------------------------------------------------------

LINEAR = make_model(a=("linear", 1.0))


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    return lines[2].split(","), [line.split(",") for line in lines[3:]]


@pytest.mark.parametrize(
    "method, fn, lam",
    [
        pytest.param("dual_enum", wce2_dual_enum, 1.0, id="dual_enum-wce2_dual_enum"),
        pytest.param(
            "kernel_double_sum", wce2_kernel_double_sum, 1.0, id="kernel_double_sum-wce2_kernel_double_sum"
        ),
        pytest.param("kernel_double_sum", wce2_kernel_double_sum, 0.5, id="kernel_double_sum-lambda-0.5"),
    ],
)
def test_wce_methods_match_library(model_path, tmp_path, method, fn, lam):
    out = tmp_path / "wce.json"
    argv = ["wce", "--model", model_path, "--n", "13", "--g", "1,5", "--method", method,
            "--lambda", repr(lam), "--out", str(out)]
    assert run_cli(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["method"] == method
    assert payload["config"]["lambda"] == lam
    expected = fn(LatticeRule(13, (1, 5)), LINEAR.scaled(lam)).to_dict()
    assert payload["result"] == {"n": 13, "g": [1, 5], **expected}


def test_bound_fixed_lambda_matches_library(model_path, tmp_path):
    out = tmp_path / "bound.json"
    argv = ["bound", "--model", model_path, "--n", "13", "--d", "2", "--lambda", "0.5", "--out", str(out)]
    assert run_cli(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["lambda"] == 0.5
    assert payload["result"] == {
        "lambda": 0.5,
        "a_lambda": a_lambda(0.5, LINEAR),
        "product_term": product_bound(2, 0.5, LINEAR),
        "bound_value": error_bound(13, 2, 0.5, LINEAR, "korobov"),
        "variant": "korobov",
    }


def test_tract_st_csv_matches_library(model_path, tmp_path):
    out = tmp_path / "st.csv"
    argv = ["tract", "--model", model_path, "--mode", "st", "--s", "2",
            "--d-list", "4,8", "--eps-list", "1e-3,0.1", "--out", str(out)]
    assert run_cli(argv) == 0
    header, *rows = csv.reader(out.read_text().splitlines()[2:])
    assert header == ["d", "epsilon", "n", "ratio", "mode", "source"]
    expected = st_ratio_trace(2.0, 1.0, [4, 8], [1e-3, 0.1], LINEAR, "bound").rows()
    assert len(rows) == len(expected) == 4
    for row, rec in zip(rows, expected):
        assert (int(row[0]), float(row[1]), float(row[2]), float(row[3])) == (
            rec["d"], rec["epsilon"], rec["n"], rec["ratio"]
        )
        # the mode label holds a comma, so its cell is quoted and reads back whole
        assert row[4:] == ["exp_st_wt(s=2,t=1)", "bound"]


def test_tract_json_matches_library(model_path, tmp_path):
    out = tmp_path / "wt.json"
    argv = ["tract", "--model", model_path, "--mode", "wt", "--format", "json",
            "--d-list", "1,2", "--eps-list", "0.5,0.3", "--out", str(out)]
    assert run_cli(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["d_list"] == [1, 2]
    assert payload["result"] == st_ratio_trace(1.0, 1.0, [1, 2], [0.5, 0.3], LINEAR).rows()


def test_convergence_explicit_primes_json(model_path, tmp_path):
    out = tmp_path / "conv.json"
    argv = ["convergence", "--model", model_path, "--d", "2", "--primes", "5,7,11",
            "--format", "json", "--out", str(out)]
    assert run_cli(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["primes"] == [5, 7, 11]
    assert payload["result"] == convergence_study(2, LINEAR, [5, 7, 11])


def test_convergence_rejects_non_prime(model_path, capsys):
    code = run_cli(["convergence", "--model", model_path, "--d", "2", "--primes", "5,9,11"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config"
    assert "[9]" in err["message"]


def test_integrate_korobov_scalar_rule(model_path, tmp_path):
    poly = {"terms": [{"h": [1, 5], "re": 0.25, "im": 0.0}, {"h": [0, 0], "re": 1.0, "im": 0.0}]}
    pp, rp = tmp_path / "poly.json", tmp_path / "rule.json"
    pp.write_text(json.dumps(poly))
    rp.write_text(json.dumps({"n": 13, "g_scalar": 5, "d": 2}))
    out = tmp_path / "int.json"
    assert run_cli(["integrate", "--poly", str(pp), "--rule", str(rp), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    rule = korobov_vector(KorobovParam(n=13, g=5, d=2))
    assert payload["config"]["rule"] == rule.to_dict() == {"n": 13, "g": [1, 5]}
    assert "model" not in payload["config"]
    f = FourierPolynomial.from_dict(poly)
    assert payload["result"]["q_re"] == qmc_apply(f, rule).real
    # h = (1, 5) lies in the dual lattice (1 + 25 = 26 = 0 mod 13): its
    # coefficient is the whole error
    assert payload["result"]["error_abs"] == abs(exact_qmc_error(f, rule)) == 0.25


def test_search_general_csv_labels(model_path, tmp_path):
    out = tmp_path / "general.csv"
    argv = ["search", "--model", model_path, "--n", "5", "--d", "2", "--variant", "general",
            "--format", "csv", "--out", str(out)]
    assert run_cli(argv) == 0
    header, rows = read_csv_rows(out)
    assert header == ["g", "e2", "trunc_bound"]
    e2, bound = family_errors(5, 2, LINEAR, family="general")
    assert [row[0] for row in rows] == [f"{a};{b}" for a in range(5) for b in range(5)]
    assert [float(row[1]) for row in rows] == e2.tolist()
    assert {float(row[2]) for row in rows} == {bound}


# ---------------------------------------------------------------------------
# The parser's contract: flags that would be ignored, missing or unknown
# flags and bad choices all exit 2 with one JSON config error
# ---------------------------------------------------------------------------

TRACE = ["--d-list", "4", "--eps-list", "0.1"]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["tract", "--mode", "alg", "--format", "csv"], id="tract-alg-format"),
        pytest.param(["tract", "--mode", "alg", "--d-list", "4"], id="tract-alg-d-list"),
        pytest.param(["tract", "--mode", "alg", "--eps-list", "0.1"], id="tract-alg-eps-list"),
        pytest.param(["tract", "--mode", "alg", "--s", "2"], id="tract-alg-s"),
        pytest.param(["tract", "--mode", "alg", "--t", "2"], id="tract-alg-t"),
        pytest.param(["tract", "--mode", "alg", "--source", "empirical"], id="tract-alg-source"),
        pytest.param(["tract", "--mode", "alg", "--tol", "1e-3"], id="tract-alg-tol"),
        pytest.param(["tract", "--mode", "wt", "--s", "2", *TRACE], id="tract-wt-s"),
        pytest.param(["tract", "--mode", "wt", "--t", "2", *TRACE], id="tract-wt-t"),
        pytest.param(["tract", "--mode", "wt", "--d-max", "64", *TRACE], id="tract-wt-d-max"),
        pytest.param(["tract", "--mode", "st", "--d-max", "64", *TRACE], id="tract-st-d-max"),
        pytest.param(["wce", "--n", "13", "--g", "1,5", "--d", "2"], id="wce-g-with-d"),
        pytest.param(["wce", "--n", "13", "--g", "1,5", "--g-scalar", "5", "--d", "2"], id="wce-g-and-g-scalar"),
        pytest.param(["wce", "--n", "13", "--g", "1,5", "--lambda", "1.5"], id="wce-lambda-above-one"),
        pytest.param(["wce", "--n", "13", "--g", "1,5", "--lambda", "0"], id="wce-lambda-zero"),
        pytest.param(
            ["convergence", "--d", "1", "--primes", "5,7", "--primes-up-to", "23"],
            id="convergence-primes-and-up-to",
        ),
        pytest.param(["wce", "--n", "13", "--g-scalar", "5"], id="wce-g-scalar-without-d"),
        pytest.param(["tract", "--mode", "st", "--d-list", "4"], id="tract-st-without-eps-list"),
        pytest.param(["search", "--n", "13"], id="search-missing-d"),
        pytest.param(["search", "--n", "13", "--d", "2", "--frobnicate", "1"], id="search-unknown-flag"),
        pytest.param(["convergence", "--d", "1", "--primes", "5", "--format", "xml"], id="convergence-bad-format"),
    ],
)
def test_rejected_flags_exit_two_with_json(model_path, argv, capsys):
    try:
        code = main([argv[0], "--model", model_path, *argv[1:]])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "config"


def test_readme_command_lines_parse():
    """Every ``korobov ...`` line of README's Command line block is valid."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    lines = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("korobov ")]
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line.replace("[", " ").replace("]", " "))[1:]
        parser = cli._build_parser()
        args = parser.parse_args(argv)
        cli._check_combinations(parser, args)


# The bench's slow-decay model (omega = 0.9, logarithmic a, b = 1/2), whose
# A_lambda needs millions of terms by direct summation.  Rows, A_1 and
# lambda* are frozen from the lambda search run on that direct summation
# (math.fsum over the whole horizon, c = lam * a_1 * -log(omega)), which the
# Euler-Maclaurin A_lambda must reproduce byte for byte.  lambda* is set by
# rounding below about 1e-7 relative.
SLOW_MODEL = {"omega": 0.9, "a": {"kind": "logarithmic", "kappa": 1.0}, "b": {"kind": "constant", "kappa": 0.5}}
SLOW_TRACT_ROWS = {
    "wt": ["2,0.01,6779005649,3.4271783513907512,exp_wt,bound",
           "4,0.01,38662881312567384,4.4384545069961723,exp_wt,bound"],
    "st": ['3,0.01,24770451129510,4.8665925653148525,"exp_st_wt(s=0.5,t=1)",bound'],
}
SLOW_LAMBDA_STAR = {2: 0.4363145033760424, 3: 0.6597065465951256, 4: 0.8889749224155022}


def test_slow_model_bound_outputs_are_pinned(tmp_path):
    model_path = tmp_path / "slow.json"
    model_path.write_text(json.dumps(SLOW_MODEL))
    argvs = {
        "wt": ["--mode", "wt", "--d-list", "2,4"],
        "st": ["--mode", "st", "--s", "0.5", "--t", "1", "--d-list", "3"],
    }
    for mode, argv in argvs.items():
        out = tmp_path / f"{mode}.csv"
        assert run_cli(["tract", "--model", str(model_path), *argv, "--source", "bound",
                        "--eps-list", "0.01", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[3:] == SLOW_TRACT_ROWS[mode]
    model = WeightModel.from_dict(SLOW_MODEL)
    for d, lam in SLOW_LAMBDA_STAR.items():
        assert log_info_complexity_bound(0.01, d, model)[1] == lam
    out = tmp_path / "bound.json"
    assert run_cli(["bound", "--model", str(model_path), "--n", "1009", "--d", "4", "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["lambda"] == 1.0
    assert abs(result["a_lambda"] - 402.8820034071716) <= 32 * 2.0**-52 * 402.9


# ---------------------------------------------------------------------------
# Fast decay and large d: the series underflow instead of overflowing
# ---------------------------------------------------------------------------

def _write_model(tmp_path, omega, a, b):
    model = make_model(omega=omega, a=a, b=("constant", b))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model.to_dict()))
    return str(path), model


def test_search_past_the_underflow_of_the_theta_series(tmp_path):
    # at d = 1075 on the linear model, c = a_j log 2 passes 745, where
    # exp(-c) underflows to 0: the row's tail past h = 1 is below every tol
    model, _ = _write_model(tmp_path, 0.5, ("linear", 1.0), 2.0)
    out = tmp_path / "search.json"
    assert run_cli(["search", "--model", model, "--n", "101", "--d", "1075", "--out", str(out)]) == 0
    best = json.loads(out.read_text())["result"]["best_e2"]
    assert 0.0 < best["e2"] < 1.0 and math.isfinite(best["trunc_bound"])


def test_kernel_double_sum_past_the_underflow_of_the_theta_series(tmp_path):
    # the kernel double sum's series at d = 1076 (b = 1) meet the same
    # underflow and agree with the closed-form theta product
    model, _ = _write_model(tmp_path, 0.5, ("linear", 1.0), 1.0)
    e2 = {}
    for method in ("kernel_double_sum", "theta_product"):
        out = tmp_path / f"{method}.json"
        argv = ["wce", "--model", model, "--n", "101", "--g-scalar", "3", "--d", "1076", "--method", method]
        assert run_cli([*argv, "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        assert math.isfinite(result["trunc_bound"])
        e2[method] = result["e2"]
    assert 0.07 < e2["theta_product"] < 0.08
    assert e2["kernel_double_sum"] == pytest.approx(e2["theta_product"], abs=1e-14)


@pytest.mark.parametrize("b", [0.5, 2.0])
def test_bounds_where_the_lambda_grid_passes_the_overflow_of_exp_c(tmp_path, b):
    # omega = 0.01, a = 200: c = lam * 200 * log 100 passes 709.8, where
    # e**c overflows, for lam above 0.77, which the lambda grid probes
    model_path, model = _write_model(tmp_path, 0.01, ("constant", 200.0), b)
    out = tmp_path / "out"
    assert run_cli(["bound", "--model", model_path, "--n", "101", "--d", "3", "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert all(math.isfinite(result[key]) for key in ("a_lambda", "bound_value", "lambda", "product_term"))
    assert run_cli(["nofe", "--model", model_path, "--epsilon", "1e-3", "--d", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["n_upper"] > 0
    assert run_cli(["tract", "--model", model_path, "--d-list", "1,2", "--eps-list", "0.1",
                    "--source", "bound", "--out", str(out)]) == 0
    _, rows = read_csv_rows(out)
    assert len(rows) == 2 and all(math.isfinite(float(row[3])) for row in rows)
    # A_lambda = sum_h exp(-c (h**b - 1)), here within 1e-14 after 10**4 terms
    for lam in (result["lambda"], 0.5, 0.8, 1.0):
        c = lam * 200.0 * math.log(100.0)
        direct = math.fsum(math.exp(-c * (h**b - 1.0)) for h in range(1, 10**4))
        assert a_lambda(lam, model) == pytest.approx(direct, rel=0, abs=2e-14), lam


def test_bound_at_a_large_b_star(tmp_path):
    # b* = 300: the horizon search forms no h**b past twice the least
    # horizon, so it never reaches 16**300, which is outside the float range.
    # The least bound lies below exp's underflow, about e**-745, and reads
    # as the least positive float, an upper bound on it, not as 0
    model_path, _ = _write_model(tmp_path, 0.5, ("constant", 1.0), 300.0)
    out = tmp_path / "bound.json"
    assert run_cli(["bound", "--model", model_path, "--n", "101", "--d", "3", "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["a_lambda"] == 1.0 and math.isfinite(result["product_term"])
    assert result["bound_value"] == math.ulp(0.0) > 0.0


# b = 2000: h**b is past the float range for every |h| >= 2, so those h carry
# mass 0 and e^2 is the dual sum over h in {-1, 0, 1}^d
B_PAST_RANGE = 2000.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["theta_product", "dual_enum", "kernel_double_sum"])
def test_wce_at_a_weight_exponent_past_the_float_range(tmp_path, method):
    # the dual h = +-(1, -1, 1) of (1, 3, 2) mod 7 carry all the mass, 2 omega^3
    model_path, model = _write_model(tmp_path, 0.5, ("constant", 1.0), B_PAST_RANGE)
    out = tmp_path / "wce.json"
    argv = ["wce", "--model", model_path, "--g-scalar", "3", "--d", "3", "--n", "7", "--method", method]
    assert run_cli([*argv, "--out", str(out)]) == 0
    e2 = json.loads(out.read_text())["result"]["e2"]
    assert e2 == pytest.approx(brute_dual_e2(7, (1, 3, 2), model, box=1), abs=1e-14) == 0.25


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_search_at_a_weight_exponent_past_the_float_range(tmp_path):
    model_path, model = _write_model(tmp_path, 0.5, ("constant", 1.0), B_PAST_RANGE)
    out = tmp_path / "search.json"
    assert run_cli(["search", "--model", model_path, "--n", "101", "--d", "3", "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    rule, best = result["best_rule"], result["best_e2"]
    assert best["e2"] == pytest.approx(brute_dual_e2(rule["n"], rule["g"], model, box=1), abs=1e-13)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--n", "101", "--d", "3"],
        ["nofe", "--epsilon", "0.1", "--d", "2"],
        ["tract", "--source", "empirical", "--mode", "wt", "--d-list", "1,2,3", "--eps-list", "0.1,0.01"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_at_a_weight_exponent_past_the_float_range(tmp_path, argv):
    model_path, _ = _write_model(tmp_path, 0.5, ("constant", 1.0), B_PAST_RANGE)
    assert run_cli([*argv, "--model", model_path, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_integrate_at_a_weight_exponent_past_the_float_range(tmp_path):
    # rho(2, 1, 0) underflows to 0, so the polynomial's norm and bound are inf
    model_path, _ = _write_model(tmp_path, 0.5, ("constant", 1.0), B_PAST_RANGE)
    pp, rp, out = tmp_path / "poly.json", tmp_path / "rule.json", tmp_path / "int.json"
    pp.write_text(json.dumps({"terms": [{"h": [2, 1, 0], "re": 1.0, "im": 0.0}]}))
    rp.write_text(json.dumps({"n": 7, "g": [1, 3, 2]}))
    argv = ["integrate", "--poly", str(pp), "--rule", str(rp), "--model", model_path, "--out", str(out)]
    assert run_cli(argv) == 0
    vs_wce = json.loads(out.read_text())["result"]["vs_wce"]
    assert vs_wce["bound"] == math.inf and vs_wce["ratio"] == 0.0


def test_wce_lambda_that_rounds_omega_to_one_names_lambda(model_path, capsys):
    # omega**1e-300 rounds to 1: the message names lambda, not an omega of 1
    argv = ["wce", "--model", model_path, "--lambda", "1e-300", "--g-scalar", "3", "--d", "2", "--n", "7"]
    assert main(argv) == 2
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert "lambda" in message and "must lie in (0, 1)" not in message


# ---------------------------------------------------------------------------
# output destinations, unreadable inputs and the input checks of the models,
# flags and files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_out_exits_two_naming_it(model_path, tmp_path, capsys, target):
    out = tmp_path / "taken" if target == "directory" else tmp_path / "missing" / "x.json"
    if target == "directory":
        out.mkdir()
    assert main(["bound", "--model", model_path, "--n", "101", "--d", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    error = json.loads(captured.err)["error"]
    assert captured.out == "" and error["type"] == "config"
    assert error["message"].startswith(f"cannot write output to {out}: ")
    assert not list(tmp_path.rglob(".korobov-*"))


def test_stdout_output_equals_the_out_file(model_path, tmp_path, capsys):
    argv = ["bound", "--model", model_path, "--n", "101", "--d", "2"]
    out = tmp_path / "bound.json"
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert printed.encode("utf-8") == out.read_bytes()


@pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "not-json"])
def test_unreadable_model_file_exits_two(tmp_path, capsys, content):
    path = tmp_path / "model.json"
    if content is not None:
        path.write_text(content)
    assert main(["bound", "--model", str(path), "--n", "13", "--d", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot read JSON from {path}: " in json.loads(captured.err)["error"]["message"]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["tract", "--d-list", "1,x", "--eps-list", "0.1"], "--d-list must be a comma-separated int list", id="d-list"),
        pytest.param(["tract", "--d-list", "1", "--eps-list", "0.1,x"], "--eps-list must be a comma-separated float list", id="eps-list"),
        pytest.param(["convergence", "--d", "1", "--primes", "2,x"], "--primes must be a comma-separated int list", id="primes"),
        pytest.param(["wce", "--n", "13", "--g", "1,x"], "--g must be a comma-separated int list", id="g"),
    ],
)
def test_malformed_list_exits_two(model_path, capsys, argv, message):
    assert main([argv[0], "--model", model_path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {"type": "config", "message": message}


LINEAR_FAMILY = '{"kind": "linear", "kappa": 1.0}'
CONSTANT_FAMILY = '{"kind": "constant", "kappa": 1.0}'


def _model_text(a=LINEAR_FAMILY, b=CONSTANT_FAMILY, extra=""):
    return f'{{"omega": 0.5, "a": {a}, "b": {b}{extra}}}'


@pytest.mark.parametrize(
    "files, argv, message",
    [
        pytest.param(
            {"model": _model_text(a='{"kind": "cubic", "kappa": 1.0}')}, ["bound", "--n", "13", "--d", "2"],
            "invalid weight model: unknown weight family kind 'cubic'", id="family-unknown-kind",
        ),
        pytest.param(
            {"model": _model_text(a='{"kind": "explicit", "values": []}')}, ["bound", "--n", "13", "--d", "2"],
            "invalid weight model: explicit weight family needs a nonempty values list", id="family-explicit-empty",
        ),
        pytest.param(
            {"model": _model_text(a='{"kind": "explicit", "values": [1.0, -2.0]}')}, ["bound", "--n", "13", "--d", "2"],
            "invalid weight model: explicit weight values must be positive", id="family-explicit-negative",
        ),
        pytest.param(
            {"model": _model_text(a='{"kind": "power", "kappa": 1.0, "p": 1e400}')}, ["bound", "--n", "13", "--d", "2"],
            "invalid weight model: power family exponent must be finite", id="family-power-p-past-float-range",
        ),
        pytest.param(
            {"model": _model_text(a='{"kappa": 1.0}')}, ["bound", "--n", "13", "--d", "2"],
            "invalid weight model: weight family must be an object with a 'kind' field", id="family-no-kind",
        ),
        pytest.param(
            {"model": _model_text(extra=', "prefix_a": [2.0, 1.0]')}, ["bound", "--n", "13", "--d", "2"],
            "invalid weight model: a-weight prefix must be nondecreasing", id="prefix-a-decreasing",
        ),
        pytest.param(
            {"model": _model_text(extra=', "prefix_a": [1.0, -1.0]')}, ["bound", "--n", "13", "--d", "2"],
            "invalid weight model: a-weight prefix values must be positive", id="prefix-a-negative",
        ),
        pytest.param(
            {"model": _model_text(extra=', "prefix_b": [0]')}, ["bound", "--n", "13", "--d", "2"],
            "invalid weight model: b-weight prefix values must be positive", id="prefix-b-zero",
        ),
        pytest.param(
            {"model": _model_text()}, ["bound", "--n", "13", "--d", "2", "--tol", "0"],
            "tolerance must be positive, got 0.0", id="tol-zero",
        ),
        pytest.param(
            {"model": _model_text()}, ["wce", "--n", "7", "--g-scalar", "9", "--d", "2"],
            "scalar generator must lie in {0, ..., n-1}, got 9", id="wce-g-scalar-past-n",
        ),
        pytest.param(
            {"model": _model_text()}, ["tract", "--mode", "st", "--s", "0", "--d-list", "2", "--eps-list", "0.1"],
            "s must be positive, got 0.0", id="tract-st-s-zero",
        ),
        pytest.param(
            {"poly": '{"terms": []}', "rule": json.dumps(RULE)}, ["integrate"],
            "a Fourier polynomial needs at least one term", id="integrate-no-terms",
        ),
        pytest.param(
            {"poly": '{"terms": [{"h": [1, 0], "re": 1.0}, {"h": [1, 0, 2], "re": 1.0}]}', "rule": json.dumps(RULE)},
            ["integrate"], "all frequency vectors must share one dimension", id="integrate-mixed-lengths",
        ),
    ],
)
def test_input_checks_exit_two_with_their_message(tmp_path, capsys, files, argv, message):
    flags = []
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
        flags += [f"--{name}", str(tmp_path / f"{name}.json")]
    assert main([argv[0], *flags, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {"type": "config", "message": message}
