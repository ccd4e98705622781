import json
import subprocess
import sys

import pytest

from korobov import LatticeRule, qmc_apply, FourierPolynomial, search_korobov, wce2_theta_product
from korobov.cli import main

from conftest import make_model

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


def test_search_outputs_thread_invariant(model_path, tmp_path):
    # N = 1009 spans several evaluation chunks, so every thread count splits work
    for fmt in ("csv", "json"):
        outs = []
        for threads in ("1", "2", "3"):
            out = tmp_path / f"s{threads}.{fmt}"
            code = run_cli(
                ["search", "--model", model_path, "--n", "1009", "--d", "3",
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
    assert set(result) == {"epsilon", "d", "n_upper", "n_bound", "lambda_star"}
    assert result["n_upper"] <= result["n_bound"]


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
    report = json.loads(out2.read_text())["result"]
    assert report["spt_eps_exponent_bound"] == 0.0  # linear weights


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


def test_exit_code_certificate_failure(tmp_path, capsys):
    # omega near 1 with slow fractional-power decay cannot be certified
    pathological = tmp_path / "p.json"
    pathological.write_text(
        json.dumps({"omega": 0.99, "a": {"kind": "constant", "kappa": 0.01}, "b": {"kind": "constant", "kappa": 0.2}})
    )
    code = run_cli(["wce", "--model", str(pathological), "--n", "5", "--g", "1"])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "certificate"


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
