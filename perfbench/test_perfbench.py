"""The benchmark's own checks: deterministic inputs, a sound oracle, a live gate.

Run with: python3 -m pytest -q perfbench
"""

import json
from time import perf_counter

import numpy as np
import pytest

import run

qhit = run.import_qhit()
import inputs  # noqa: E402  (after qhit, as in the benchmark)
import spans  # noqa: E402


def _build():
    return inputs.Build(qhit, perf_counter)


@pytest.mark.parametrize("workload", sorted(inputs.UNITS))
def test_workload_generation_is_deterministic(workload):
    make = inputs.UNITS[workload]
    for k in range(3):
        first, again = make(_build(), 7, k), make(_build(), 7, k)
        other = make(_build(), 8, k)
        for a, b, c in zip(first, again, other):
            assert a.label == b.label
            assert np.array_equal(a.S.mat, b.S.mat)
            assert np.array_equal(a.V.basis, b.V.basis)
            assert np.array_equal(a.rho, b.rho)
            assert a.oracle == b.oracle
            assert not np.array_equal(a.S.mat, c.S.mat)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload", sorted(inputs.UNITS))
def test_oracle_agrees_with_analytic_K(workload, seed):
    for k in range(inputs.ROUND[workload]):  # every size once
        for solve in inputs.UNITS[workload](_build(), seed, k):
            rep = qhit.tau_channel(solve.S, solve.V, solve.rho, "analytic-K")
            assert rep.ok
            assert abs(rep.tau - solve.oracle) <= 1e-10 * max(1.0, solve.oracle)


def test_spec_oracle_matches_closed_forms():
    closed = {"sec5": 6.0, "hadamard": 2.0, "order4": 10.0, "randomization": 4.0}
    for spec, tau in closed.items():
        assert abs(inputs.spec_oracle(spec) - tau) < 1e-10


def test_gate_counts_a_perturbed_tau():
    solve = inputs.Solve("s", None, None, None, 123.456)
    tau = solve.oracle
    gate = run.Gate()
    gate.routes(solve, [inputs.RouteOutcome("series", True, tau)])
    assert gate.failures == []
    gate.routes(solve, [
        inputs.RouteOutcome("series", True, tau * (1 + 1e-6)),
        inputs.RouteOutcome("analytic-K", False, tau),
        inputs.RouteOutcome("ksmh-ginverse", False, None, "refused: x"),
        inputs.RouteOutcome("ksmh-group", False, None, "raised: x")])
    assert gate.attempted == 5
    assert [f[1] for f in gate.failures] == [
        "series", "analytic-K", "ksmh-ginverse", "ksmh-group"]


def test_gate_counts_a_mismatched_cli_output():
    import qhit.cli  # noqa: F401
    gate = run.Gate()
    for spec in inputs.CLI_SPECS:
        case = inputs.cli_case(spec)
        _, code, out = run.cli_in_process(qhit, case)
        gate.cli(case, code, out)
    assert gate.attempted == 4 and gate.failures == []

    case = inputs.cli_case("sec5")
    doc = json.loads(json.dumps(case.output))
    doc["methods"]["series"]["tau"] = 6.5
    gate.cli(case, 0, json.dumps(doc))
    doc = json.loads(json.dumps(case.output))
    doc["agreement"]["methods_succeeded"].pop()
    gate.cli(case, 0, json.dumps(doc))
    gate.cli(case, 3, json.dumps(case.output))
    gate.cli(case, 0, "not json")
    assert len(gate.failures) == 4


def test_tracer_sees_every_solve_span_and_restores_bindings():
    original = qhit.ksmh.diagnose
    solve = inputs.random_dense_unit(_build(), 0, 0)[0]
    tracer = spans.Tracer()
    with tracer:
        assert qhit.ksmh.diagnose is not original
        assert qhit.ksmh.diagnose is qhit.channel.diagnose is qhit.diagnose
        index = tracer.begin_solve("t")
        _, outcomes = run.solve_routes(qhit, solve)
        tracer.end_solve(index)
    assert qhit.ksmh.diagnose is original
    assert all(out.ok for out in outcomes)
    table = spans.per_solve(tracer.spans, ["t"])
    assert spans.missing_spans(table, spans.SOLVE_SPANS) == []
    routes = spans.route_seconds(tracer.spans, ["t"])
    assert sorted(routes) == sorted(inputs.METHODS)
    assert all(len(v) == 1 for v in routes.values())
    root = table["t"]["bench.solve"]
    assert root[0] == 1 and 0 <= root[1] < root[2]
