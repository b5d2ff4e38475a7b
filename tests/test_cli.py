"""Command-line interface: corpus regressions, determinism and exit codes."""

import copy
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from expected_matrices import G_QMC
from qhit import cli, ginverse
from qhit.cli import main
from qhit.errors import NotIrreducibleError, NumericalError

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
    (["hitting", f"{CORPUS}/goal2_dependent.json", "--json"],
     "hitting_goal2_dependent.json"),
    (["ginverse", f"{CORPUS}/hadamard.json", "--json"], "ginverse_hadamard.json"),
    (["sweep", f"{CORPUS}/randomization.json", "--values", "1,0.5,0.1,0.01",
      "--json"], "sweep_randomization.json"),
    (["hitting", f"{CORPUS}/sec5.json", "--json", "--dump-intermediates"],
     "hitting_sec5_intermediates.json"),
    (["hitting", f"{CORPUS}/hadamard.json", "--json", "--dump-intermediates"],
     "hitting_hadamard_intermediates.json"),
    (["ginverse", f"{CORPUS}/sec5.json", "--kind", "hunter", "--json"],
     "ginverse_hunter_sec5.json"),
    (["validate", f"{CORPUS}/hadamard.json", "--json"], "validate_hadamard.json"),
    (["validate", f"{CORPUS}/hadamard_bad_alpha.json", "--json"],
     "validate_hadamard_bad_alpha.json"),
    (["validate", f"{CORPUS}/sec5.json"], "validate_sec5.txt"),
    (["hitting", f"{CORPUS}/hadamard.json"], "hitting_hadamard.txt"),
    (["sweep", f"{CORPUS}/randomization.json", "--values", "1,0.5,0.1,0.01"],
     "sweep_randomization.txt"),
    (["ginverse", f"{CORPUS}/hadamard.json"], "ginverse_hadamard.txt"),
    (["validate", f"{CORPUS}/order4.json", "--json"], "validate_order4.json"),
    (["ginverse", f"{CORPUS}/order4.json", "--json"], "ginverse_order4.json"),
]


@pytest.mark.parametrize("argv,expected", CORPUS_CASES,
                         ids=[e.removesuffix(".json") for _, e in CORPUS_CASES])
def test_corpus_regression(capsys, argv, expected):
    # bytes, not parsed JSON: parsing would accept 6 for 6.0 or reordered keys
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == (EXPECTED / expected).read_text()


@pytest.mark.parametrize("name", ["sec5", "randomization", "hadamard", "order4", "goal2",
                                  "goal2_dependent", "hadamard_bad_alpha"])
def test_series_hitting_probability_is_a_probability(capsys, name):
    # the sum g a is clamped once to [0, 1]: on hadamard_bad_alpha, whose
    # hitting time exits 3, it is -2.5e-31 before the clamp
    code, out = run_cli(capsys, "hitting", f"{CORPUS}/{name}.json", "--json")
    assert code == (3 if name == "hadamard_bad_alpha" else 0)
    p = json.loads(out)["methods"]["series"]["preconditions"]["hitting_probability"]
    assert 0.0 <= p <= 1.0


def test_dependent_spanning_vectors_give_the_subspace_they_span(capsys):
    # goal2's channel with V spanned by e_0, e_0 + 1e-12 e_1 and e_1: that is
    # goal2's own V = span{e_0, e_1}, so every route gives its tau = 1.2, not
    # the 1.92592592593 of span{e_0}
    taus = {}
    for name in ("goal2", "goal2_dependent"):
        code, out = run_cli(capsys, "hitting", f"{CORPUS}/{name}.json", "--json")
        assert code == 0
        taus[name] = {m: e["tau"] for m, e in json.loads(out)["methods"].items()}
    assert taus["goal2_dependent"] == taus["goal2"]
    assert set(taus["goal2"].values()) == {1.2}


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
                                       ("sec5", {"dim": 3}),
                                       ("sec5", {"subspace": [[1, 0], [1]]})],
                         ids=["subspace-length", "kraus-dim", "ragged-subspace"])
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


@pytest.mark.parametrize("name", ["hadamard", "order4", "hadamard_bad_alpha"])
def test_validate_json_is_strict_json(capsys, name):
    # these maps have no fixed density: the field is null, not NaN, which
    # strict JSON parsers reject
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    code, out = run_cli(capsys, "validate", f"{CORPUS}/{name}.json", "--json")
    assert code == 0
    doc = json.loads(out, parse_constant=refuse)
    assert doc["diagnostics"]["fixed_density_min_eig"] is None


def test_no_finite_tau_exits_3(capsys):
    code, _ = run_cli(capsys, "hitting", f"{CORPUS}/hadamard_bad_alpha.json",
                      "--json")
    assert code == 3


def test_hunter_ginverse_matches_reference(capsys):
    e1 = "[1,0,0,0,0,0,0,0]"
    code, out = run_cli(capsys, "ginverse", f"{CORPUS}/sec5.json",
                        "--kind", "hunter", "--t", e1, "--g", e1, "--json")
    assert code == 0
    doc = json.loads(out)
    G = np.array([[complex(re, im) for re, im in row] for row in doc["G"]])
    assert np.max(np.abs(G - G_QMC)) < 1e-9


@pytest.mark.parametrize("params", [[], ["--t", "[1,0,0,0,0,0,0,0]",
                                         "--g", "[1,0,0,0,0,0,0,0]"]])
def test_hunter_ginverse_prints_the_defect_of_its_one_check(capsys, monkeypatch, params):
    # A G A = A is multiplied out once, at the chain's order, by the check
    # inside the Hunter constructor; the printed residual is its defect
    defects = []

    def spy(A, G, _f=ginverse.verify_ginverse):
        defects.append(_f(A, G))
        return defects[-1]

    monkeypatch.setattr(ginverse, "verify_ginverse", spy)
    code, out = run_cli(capsys, "ginverse", f"{CORPUS}/sec5.json", "--kind", "hunter",
                        *params, "--json")
    assert code == 0
    assert len(defects) == 1
    assert json.loads(out)["residuals"] == {"AGA-A": cli._fmt(defects[0])}


@pytest.mark.parametrize("kind,method,spec", [
    ("group", "ksmh-group", "hadamard"), ("group", "ksmh-group", "sec5"),
    ("hunter", "ksmh-g", "sec5"), ("hunter", "ksmh-g", "goal2")])
def test_ginverse_prints_the_inverse_of_the_route(capsys, kind, method, spec):
    # `qhit ginverse` and the KSMH route call the same constructor: the
    # printed A^# (group) or default Hunter G is the route's own G
    code, out = run_cli(capsys, "ginverse", f"{CORPUS}/{spec}.json", "--kind", kind,
                        "--json")
    assert code == 0
    printed = json.loads(out)["Asharp" if kind == "group" else "G"]
    code, out = run_cli(capsys, "hitting", f"{CORPUS}/{spec}.json", "--method", method,
                        "--dump-intermediates", "--json")
    assert code == 0
    assert printed == json.loads(out)["methods"][method]["intermediates"]["G"]


@pytest.mark.parametrize("flag", ["t", "u", "f", "g"])
def test_group_ginverse_refuses_hunter_flags(capsys, flag):
    # a Hunter parameter, malformed or not, is refused with the flag named
    # rather than ignored; group is the default kind
    for kind in (["--kind", "group"], []):
        assert main(["ginverse", f"{CORPUS}/sec5.json", *kind, f"--{flag}", "[9]",
                     "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"validation error: --{flag}: is a Hunter parameter")


@pytest.mark.parametrize("name", ["hadamard", "order4"])
def test_hunter_ginverse_on_a_reducible_chain_exits_3(capsys, name):
    # the induced chain's fixed space has dimension 2 (hadamard) or 4
    # (order4): no rank-one update makes I - Phi invertible, so the Hunter
    # family refuses up front rather than failing A G A = A (exit 4)
    assert main(["ginverse", f"{CORPUS}/{name}.json", "--kind", "hunter",
                 "--json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("no applicable method") and "one-dimensional" in err


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
    (_mix_p(float("nan")), "$.mix.p"),
    (_corpus_spec("sec5", dim="two"), "$.dim"),
    (_corpus_spec("sec5", dim=2.5), "$.dim"),
    ({"kind": "unitary", "unitary": [[0, True], [1, 0]], "subspace": [[1, 0]],
      "initial_state": [0, 1]}, "$.unitary[0][1]"),
], ids=["p-word", "p-string", "p-bool", "p-nan", "dim-word", "dim-fraction",
        "bool-entry"])
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


def _obstructed_limit_spec() -> dict:
    """sec5's Kraus channel mixed into hadamard_bad_alpha's unitary, with that
    spec's subspace and state: finite tau at every p > 0, none at p = 0."""
    sec5, bad = _corpus_spec("sec5"), _corpus_spec("hadamard_bad_alpha")
    return {"kind": "randomization",
            "mix": {"p": 0.5, "left": {k: sec5[k] for k in ("kind", "kraus")},
                    "right": {k: bad[k] for k in ("kind", "unitary")}},
            "subspace": bad["subspace"], "initial_state": bad["initial_state"]}


@pytest.mark.parametrize("spec,values,reason", [
    (_obstructed_limit_spec(), "0.1,0.01,0.001",
     "p = 0: 1 lies in the spectrum of Q_0 Phi"),
    (_corpus_spec("goal2"), "1", "p = 1.0: channel is not irreducible"),
], ids=["obstructed-limit", "goal2-reducible"])
def test_sweep_exits_3_when_a_route_refuses(capsys, tmp_path, spec, values, reason):
    # the sweep runs the KSMH routes of tau_channel, so it refuses where they
    # do, naming p: at the obstructed limit, and where the mixture is a
    # unitary channel, which is not irreducible
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", str(path), "--values", values, "--json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("no applicable method") and reason in err


# Values that replace one node of a corpus spec: every JSON type, plus shapes
# that a matrix or vector parser can mistake for its own.
MUTANT_VALUES = ["x", True, None, [], [[]], [1, "a"], {}, -1, 0, 2.5,
                 [[1, 0], [1]], [[1, 0], [0, 1]], [1, 0], [[[1]]]]


def _node_paths(node, depth: int = 2, path: tuple = ()):
    """The key paths of node and of every node below it, down to depth."""
    yield path
    if depth == 0:
        return
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _node_paths(child, depth - 1, path + (key,))


def _replaced(node, path: tuple, value):
    """A copy of node with the node at path replaced by value."""
    if not path:
        return copy.deepcopy(value)
    out = copy.deepcopy(node)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(value)
    return out


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / CORPUS).glob("*.json")))
def test_mutated_corpus_specs_never_crash_the_cli(monkeypatch, capsys, name):
    # every node at depth <= 2 of each corpus spec, replaced by each value of
    # MUTANT_VALUES in turn: main returns an exit code and never raises; a top
    # level that is not a spec, and a ragged subspace, are invalid specs.
    # Building the argument parser (about 1 ms) would dominate these thousands
    # of short runs, so one parser serves them all, and each mutant reaches
    # the commands as load_spec would return it, without a file.
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    mutant = {}
    monkeypatch.setattr(cli, "load_spec", lambda _: mutant["spec"])
    spec = _corpus_spec(name)
    commands = (["validate"], ["hitting"], ["sweep", "--values", "0.5,0.1"])
    for where in _node_paths(spec):
        for value in MUTANT_VALUES:
            mutant["spec"] = _replaced(spec, where, value)
            for cmd, *opts in commands:
                code = main([cmd, f"{name}.json", *opts])
                assert code in (0, 2, 3, 4), (where, value, cmd)
                if where == () or (where == ("subspace",)
                                   and value == [[1, 0], [1]]):
                    assert code == 2, (where, value, cmd)
            capsys.readouterr()


def test_a_route_refusal_leaves_the_other_routes_reported(capsys, monkeypatch):
    # a refusal raised while one route builds its inverse is that route's
    # report: the other three still print, and the command succeeds
    def refuse(q, u=None, f=None):
        raise NotIrreducibleError("stand-in refusal")
    monkeypatch.setattr(ginverse, "hunter_special", refuse)
    code, out = run_cli(capsys, "hitting", f"{CORPUS}/sec5.json", "--json")
    assert code == 0
    methods = json.loads(out)["methods"]
    assert list(methods) == ["series", "analytic", "ksmh-g", "ksmh-group"]
    assert methods["ksmh-g"]["ok"] is False
    assert methods["ksmh-g"]["detail"] == "stand-in refusal"
    assert all(methods[m]["ok"] for m in ("series", "analytic", "ksmh-group"))


def test_a_ksmh_refusal_prints_its_preconditions(capsys, tmp_path):
    # amplitude damping with K0 scaled by sqrt(1 + 5e-10), mixed 1:1 with
    # Hadamard: the group inverse fails its axioms, and the entry keeps the
    # shape of every other entry
    K0 = np.sqrt(1 + 5e-10) * np.diag([1.0, np.sqrt(0.7)])
    K1 = [[0.0, np.sqrt(0.3)], [0.0, 0.0]]
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    spec = {"kind": "randomization",
            "mix": {"p": 0.5,
                    "left": {"kind": "kraus", "kraus": [K0.tolist(), K1]},
                    "right": {"kind": "unitary", "unitary": H.tolist()}},
            "subspace": [[1, 0]], "initial_state": [0, 1]}
    path = tmp_path / "near_tp.json"
    path.write_text(json.dumps(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the rank rule
        code, out = run_cli(capsys, "hitting", str(path), "--method",
                            "ksmh-group", "--json")
    assert code == 3
    entry = json.loads(out)["methods"]["ksmh-group"]
    assert entry == {"ok": False, "tau": None,
                     "preconditions": {"site0_operator_available": True,
                                       "site1_operator_available": True},
                     "detail": "group inverse candidate violates A G A = A"}


def test_text_mode_prints_a_matrix_at_twelve_digits(capsys):
    # each [re, im] entry of the JSON run, one row per line
    code, out = run_cli(capsys, "ginverse", f"{CORPUS}/hadamard.json", "--json")
    assert code == 0
    rows = json.loads(out)["Asharp"]
    code, text = run_cli(capsys, "ginverse", f"{CORPUS}/hadamard.json")
    assert code == 0
    lines = text.splitlines()
    start = lines.index("Asharp:") + 1
    for row, line in zip(rows, lines[start:start + len(rows)], strict=True):
        cells = [f"{re:.12g}" if im == 0 else f"{re:.12g}{im:+.12g}j" for re, im in row]
        assert line.split() == cells


def _without(name: str, key: str) -> dict:
    spec = _corpus_spec(name)
    del spec[key]
    return spec


def test_channel_scope_group_ginverse_is_the_complex_group_inverse(capsys, monkeypatch,
                                                                  tmp_path):
    # without a subspace, A^# of I - S is taken on S's real form and printed
    # in vec coordinates; the JSON rounds to 12 digits, so the report handed
    # to emit is compared with the complex group inverse of I - S.mat
    spec = _without("sec5", "subspace")
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(spec))
    reports = []

    def spy(report, as_json, _emit=cli.emit):
        reports.append(report)
        _emit(report, as_json)

    monkeypatch.setattr(cli, "emit", spy)
    code, out = run_cli(capsys, "ginverse", str(path), "--json")
    assert code == 0 and json.loads(out)["scope"] == "channel"
    S = cli.parse_channel(spec)
    ref = ginverse.group_inverse(np.eye(S.dim**2) - S.mat)
    assert reports[0]["index"] == ref.index
    assert np.max(np.abs(reports[0]["Asharp"] - ref.Asharp)) <= 1e-12


def test_channel_scope_group_ginverse_refuses_a_map_that_does_not_preserve_hermiticity(
        capsys, tmp_path):
    # diag(1, i, 1, 1), as in validate: the real form it is inverted on
    # refuses it, so it exits 2 as validate does
    superop = [[1, 0, 0, 0], [0, [0, 1], 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    path = tmp_path / "turn.json"
    path.write_text(json.dumps({"kind": "superop", "superop": superop}))
    assert main(["ginverse", str(path), "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("validation error: map does not preserve Hermiticity")


NOT_FINITE = "expected a finite number or an [re, im] pair"


@pytest.mark.parametrize("cmd,spec,opts,error", [
    ("sweep", _corpus_spec("randomization"), ["--values", ","], "--values: "),
    ("ginverse", _without("sec5", "subspace"), ["--kind", "hunter"], "$.subspace: "),
    ("hitting", _without("sec5", "initial_state"), [], "$.initial_state: "),
    ("hitting", _without("hadamard", "unitary"), [], "$.unitary: missing"),
    ("hitting", {"kind": "superop"}, [], "$.superop: missing"),
    ("hitting", {"kind": "superop", "superop": np.eye(3).tolist()}, [],
     "$.superop: must be square"),
    ("hitting", '{"kind": "unitary",', [], "$: invalid JSON"),
    ("ginverse", _corpus_spec("sec5"), ["--kind", "hunter", "--t", "[1,"],
     "--t: invalid JSON"),
    ("sweep", _without("randomization", "subspace"), ["--values", "0.5"],
     "$.subspace: missing"),
    # NaN, Infinity, 1e400 and an integer no float holds are refused where
    # they stand, not carried into the arithmetic or the strict JSON output
    ("ginverse", _corpus_spec("sec5"),
     ["--kind", "hunter", "--t", "[NaN,0,0,0,0,0,0,0]"], f"--t[0]: {NOT_FINITE}"),
    ("ginverse", _corpus_spec("sec5"),
     ["--kind", "hunter", "--u", "[1,0,0,1,1,0,0,[1,-Infinity]]"],
     f"--u[7]: {NOT_FINITE}"),
    ("hitting", _corpus_spec("sec5", initial_state=[10**400, 1]), [],
     f"$.initial_state[0]: {NOT_FINITE}"),
    ("hitting", _corpus_spec("sec5", initial_state=[float("nan"), 1]), [],
     f"$.initial_state[0]: {NOT_FINITE}"),
    ("hitting", _corpus_spec("hadamard", subspace=[[1, float("inf")]]), [],
     f"$.subspace[0][1]: {NOT_FINITE}"),
    ("hitting", '{"kind": "unitary", "unitary": [[1e400, 0], [0, 1]]}', [],
     f"$.unitary[0][0]: {NOT_FINITE}"),
    ("hitting", {"kind": "kraus", "kraus": [[[1, 0], [0, [1, float("nan")]]]]}, [],
     f"$.kraus[0][1][1]: {NOT_FINITE}"),
], ids=["sweep-empty-values", "hunter-without-subspace", "hitting-without-state",
        "missing-unitary", "missing-superop", "superop-of-order-3",
        "spec-invalid-json", "hunter-flag-invalid-json", "sweep-without-subspace",
        "hunter-flag-nan", "hunter-flag-pair-infinity", "state-integer-past-float",
        "state-nan", "subspace-infinity", "unitary-1e400", "kraus-nan-pair"])
def test_cli_refusals_exit_2_naming_their_path(capsys, tmp_path, cmd, spec, opts,
                                               error):
    text = spec if isinstance(spec, str) else json.dumps(spec)
    (tmp_path / "spec.json").write_text(text)
    assert main([cmd, str(tmp_path / "spec.json"), *opts]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"validation error: {error}")


@pytest.mark.parametrize("failure", [NumericalError("stand-in failure"),
                                     np.linalg.LinAlgError("stand-in failure")],
                         ids=["numerical-error", "lin-alg-error"])
def test_a_numerical_failure_exits_4(capsys, monkeypatch, failure):
    def fail(q):
        raise failure
    monkeypatch.setattr(cli, "induced_group_inverse", fail)
    assert main(["ginverse", f"{CORPUS}/sec5.json", "--json"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical failure: stand-in failure\n"


def test_spec_state_is_held_to_the_library_density_check(capsys, tmp_path):
    # a state of trace 1 + 6e-7 is refused by the spec parser itself, naming
    # its path, not by the library after parsing
    rho = [[0.5000003, -0.5], [-0.5, 0.5000003]]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_corpus_spec("sec5", initial_state=rho)))
    assert main(["hitting", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "validation error: $.initial_state: not a density matrix\n"


def test_a_complex_state_vector_in_pair_form(capsys, tmp_path):
    # a vector of [re, im] entries is a list of lists, but not a square one:
    # order4 (n = 4) prints its golden from e_3 in pair form
    path = tmp_path / "order4.json"
    path.write_text(json.dumps(_corpus_spec(
        "order4", initial_state=[[0, 0], [0, 0], [0, 0], [1, 0]])))
    code, out = run_cli(capsys, "hitting", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    golden = json.loads((EXPECTED / "hitting_order4.json").read_text())
    assert doc.pop("input") == str(path)
    golden.pop("input")
    assert doc == golden


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
