"""Every route of the corpus against an exact hitting time (exact_oracle)."""

from pathlib import Path

import numpy as np
import pytest

from exact_oracle import binary64, exact_tau, spec_problem, state
from qhit.cli import load_spec, parse_channel, parse_state, parse_subspace
from qhit.ksmh import METHODS, tau_channel

CORPUS = Path(__file__).parent / "corpus"

# Provisional, until each tau carries its own forward-error bound (ROADMAP
# item 10): the routes sit within 6.1e-15 relative of the exact value.
REL_TOL = 1e-13


def _problem(name: str) -> tuple:
    """The spec's JSON, and the binary64 (S, V, rho) that the CLI builds."""
    spec = load_spec(str(CORPUS / f"{name}.json"))
    S = parse_channel(spec)
    return spec, S, parse_subspace(spec["subspace"], S.dim), \
        parse_state(spec["initial_state"], S.dim)


@pytest.mark.parametrize("name", ["sec5", "hadamard", "order4", "randomization",
                                  "goal2", "goal2_dependent"])
def test_every_route_is_within_the_bound_of_the_exact_tau(name):
    spec, S, V, rho = _problem(name)
    exact = float(exact_tau(*spec_problem(spec)))
    checked = []
    for method in METHODS:
        rep = tau_channel(S, V, rho, method)
        if rep.ok and np.isfinite(rep.tau):
            assert abs(rep.tau - exact) <= REL_TOL * exact, (method, rep.tau, exact)
            checked.append(method)
    assert "analytic-K" in checked


def test_the_obstructed_hadamard_tau_is_decided_by_roundoff():
    # Every route refuses hadamard_bad_alpha.  The exact tau of the binary64
    # problem the routes receive rounds to 2^52 - 1 (it exceeds it by 0.031),
    # while the exact tau of the spec's own numbers, before S = U (x) conj(U)
    # is rounded to binary64, is 25% larger: tau is not determined by the
    # input to working precision.
    spec, S, V, rho = _problem("hadamard_bad_alpha")
    received = exact_tau(binary64(S.mat), binary64(V.basis.T), binary64(rho))
    assert float(received) == 2**52 - 1
    assert exact_tau(*spec_problem(spec)) > 1.25 * received


@pytest.mark.parametrize("node", [[[0.5, 0], [0, 0.5]], [[0, 0], [0, 0], [0, 0], [1, 0]],
                                  [0.6, [0, 0.8]], [[0.5, [0, -0.5]], [[0, 0.5], 0.5]]])
def test_the_oracle_reads_a_spec_state_as_the_cli_does(node):
    exact = np.array([[complex(float(z.re), float(z.im)) for z in row]
                      for row in state(node)])
    assert np.max(np.abs(exact - parse_state(node, len(node)))) < 1e-15
