"""Command-line interface: corpus regressions, determinism and exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from expected_matrices import G_QMC
from qhit.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = "tests/corpus"
EXPECTED = ROOT / "tests" / "corpus" / "expected"


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch):
    # corpus paths inside the recorded outputs are relative to the repo root
    monkeypatch.chdir(ROOT)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


CORPUS_CASES = [
    (["validate", f"{CORPUS}/sec5.json", "--json"], "validate_sec5.json"),
    (["hitting", f"{CORPUS}/sec5.json", "--json"], "hitting_sec5.json"),
    (["hitting", f"{CORPUS}/hadamard.json", "--json"], "hitting_hadamard.json"),
    (["hitting", f"{CORPUS}/order4.json", "--json"], "hitting_order4.json"),
    (["hitting", f"{CORPUS}/randomization.json", "--json"],
     "hitting_randomization.json"),
    (["hitting", f"{CORPUS}/goal2.json", "--json"], "hitting_goal2.json"),
    (["ginverse", f"{CORPUS}/hadamard.json", "--json"], "ginverse_hadamard.json"),
    (["sweep", f"{CORPUS}/randomization.json", "--values", "1,0.5,0.1,0.01",
      "--json"], "sweep_randomization.json"),
]


@pytest.mark.parametrize("argv,expected", CORPUS_CASES,
                         ids=[e.removesuffix(".json") for _, e in CORPUS_CASES])
def test_corpus_regression(capsys, argv, expected):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out) == json.loads((EXPECTED / expected).read_text())


def test_json_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "hitting", f"{CORPUS}/sec5.json", "--json")
    _, second = run_cli(capsys, "hitting", f"{CORPUS}/sec5.json", "--json")
    assert first == second


def test_text_output_mode(capsys):
    code, out = run_cli(capsys, "hitting", f"{CORPUS}/sec5.json")
    assert code == 0
    assert "tau" in out and "6" in out


def test_single_method_selection(capsys):
    code, out = run_cli(capsys, "hitting", f"{CORPUS}/sec5.json",
                        "--method", "analytic", "--json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc["methods"]) == ["analytic"]
    assert doc["methods"]["analytic"]["tau"] == 6.0


def test_invalid_kraus_exits_2(capsys):
    code, _ = run_cli(capsys, "validate", f"{CORPUS}/invalid_kraus.json", "--json")
    assert code == 2


def test_missing_file_exits_2(capsys):
    code, _ = run_cli(capsys, "validate", f"{CORPUS}/no_such_file.json")
    assert code == 2


@pytest.mark.parametrize("spec,edit", [("hadamard", {"subspace": [[1, 0, 0]]}),
                                       ("sec5", {"dim": 3})],
                         ids=["subspace-length", "kraus-dim"])
def test_hitting_on_spec_with_disagreeing_shapes_exits_2(capsys, tmp_path, spec,
                                                         edit):
    node = json.loads((ROOT / CORPUS / f"{spec}.json").read_text())
    path = tmp_path / f"{spec}.json"
    path.write_text(json.dumps({**node, **edit}))
    assert main(["hitting", str(path), "--json"]) == 2
    assert capsys.readouterr().err.startswith("validation error")


@pytest.mark.parametrize("method", ["all", "series", "analytic", "ksmh-g",
                                    "ksmh-group"])
def test_hitting_refuses_a_superop_that_is_not_trace_preserving(capsys, tmp_path,
                                                               method):
    # diag(0.5, 1, 1, 1) loses half the weight of |0><0|: every route refuses
    # it before running (analytic once printed tau = -8, exit 0)
    node = json.loads((ROOT / CORPUS / "sec5.json").read_text())
    spec = {"kind": "superop", "superop": np.diag([0.5, 1, 1, 1]).tolist(),
            "subspace": node["subspace"], "initial_state": node["initial_state"]}
    path = tmp_path / "lossy.json"
    path.write_text(json.dumps(spec))
    assert main(["hitting", str(path), "--method", method, "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "not trace preserving" in err


def test_validate_reports_a_superop_that_does_not_preserve_hermiticity(capsys,
                                                                      tmp_path):
    # diag(1, i, 1, 1) turns X_01 by i and keeps X_10: trace preserving, but
    # a Hermitian X goes to a non-Hermitian one
    superop = [[1, 0, 0, 0], [0, [0, 1], 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    path = tmp_path / "turn.json"
    path.write_text(json.dumps({"kind": "superop", "superop": superop}))
    code, out = run_cli(capsys, "validate", str(path), "--json")
    assert code == 2
    doc = json.loads(out)
    assert doc["valid"] is False and "Hermiticity" in doc["error"]


def test_no_finite_tau_exits_3(capsys):
    code, _ = run_cli(capsys, "hitting", f"{CORPUS}/hadamard_bad_alpha.json",
                      "--json")
    assert code == 3


def test_hunter_ginverse_matches_reference(capsys):
    e1 = "[1,0,0,0,0,0,0,0]"
    code, out = run_cli(capsys, "ginverse", f"{CORPUS}/sec5.json",
                        "--kind", "hunter", "--u", e1, "--f", e1, "--json")
    assert code == 0
    doc = json.loads(out)
    G = np.array([[complex(re, im) for re, im in row] for row in doc["G"]])
    assert np.max(np.abs(G - G_QMC)) < 1e-9


def test_sweep_taus_match_closed_form(capsys):
    # tau(p) = 4 / (1 - p + 2 p s) with s = 1/2 is identically 4
    code, out = run_cli(capsys, "sweep", f"{CORPUS}/randomization.json",
                        "--values", "0.9,0.3,0.05", "--json")
    assert code == 0
    doc = json.loads(out)
    for row in doc["table"]:
        assert abs(row["tau"] - 4.0) < 1e-8
    assert doc["g_norms_diverge"] is True


def test_sweep_rejects_bad_values(capsys):
    code, _ = run_cli(capsys, "sweep", f"{CORPUS}/randomization.json",
                      "--values", "abc")
    assert code == 2


@pytest.mark.parametrize("key", ["left", "right", "p"])
def test_sweep_on_spec_without_mix_key_exits_2(capsys, tmp_path, key):
    # sweep checks the mix object as hitting does: a missing key is an
    # invalid spec, not a KeyError
    spec = json.loads((ROOT / CORPUS / "randomization.json").read_text())
    del spec["mix"][key]
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(spec))
    for cmd in (["sweep", str(path), "--values", "0.5,0.1"], ["hitting", str(path)]):
        assert main(cmd) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"$.mix.{key}: missing" in err


def _corpus_spec(name: str, **edit) -> dict:
    return {**json.loads((ROOT / CORPUS / f"{name}.json").read_text()), **edit}


def _mix_p(p) -> dict:
    spec = _corpus_spec("randomization")
    spec["mix"]["p"] = p
    return spec


@pytest.mark.parametrize("spec,where", [
    (_mix_p("half"), "$.mix.p"),
    (_mix_p("0.5"), "$.mix.p"),
    (_mix_p(True), "$.mix.p"),
    (_corpus_spec("sec5", dim="two"), "$.dim"),
    (_corpus_spec("sec5", dim=2.5), "$.dim"),
    ({"kind": "unitary", "unitary": [[0, True], [1, 0]], "subspace": [[1, 0]],
      "initial_state": [0, 1]}, "$.unitary[0][1]"),
], ids=["p-word", "p-string", "p-bool", "dim-word", "dim-fraction", "bool-entry"])
def test_spec_value_of_the_wrong_json_type_exits_2(capsys, tmp_path, spec, where):
    # a string or bool where a number belongs, or a fraction where an integer
    # belongs, is an invalid spec: not a crash, not a silent conversion
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    cmds = [["hitting", str(path)]]
    if spec["kind"] == "randomization":
        cmds.append(["sweep", str(path), "--values", "0.5,0.1"])
    for cmd in cmds:
        assert main(cmd) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{where}: expected" in err


def test_hitting_dump_intermediates(capsys):
    code, out = run_cli(capsys, "hitting", f"{CORPUS}/sec5.json",
                        "--dump-intermediates", "--json")
    assert code == 0
    doc = json.loads(out)
    assert "intermediates" in doc["methods"]["analytic"]
    assert "K" in doc["methods"]["analytic"]["intermediates"]


def test_cli_runs_without_scipy():
    # numpy is the only runtime dependency: a fresh process that runs the
    # corpus commands must never load a scipy module
    runs = [["hitting", f"{CORPUS}/{name}.json", "--json"]
            for name in ("sec5", "hadamard", "order4", "randomization", "goal2")]
    runs.append(["ginverse", f"{CORPUS}/hadamard.json", "--json"])
    code = "\n".join([
        "import contextlib, io, sys",
        f"sys.path.insert(0, {str(ROOT / 'src')!r})",
        "from qhit.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    codes = [main(argv) for argv in {runs!r}]",
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[0, 0, 0, 0, 0, 0] []"
