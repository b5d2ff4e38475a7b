"""Seeded workload inputs, the independent tau oracle and the correctness gate.

Everything here is the benchmark's own work and runs outside the timed
regions.  The only qhit calls are the ones that turn generated matrices into
qhit objects (``KrausChannel``/``represent``, ``randomize``, ``GoalSubspace``);
they are passed in as ``qhit`` so that set-up can time them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

METHODS = ("series", "analytic-K", "ksmh-ginverse", "ksmh-group")
CLI_SPECS = ("sec5", "hadamard", "order4", "randomization")
# No expected output ships for the randomization spec; the benchmark keeps
# its own, recorded from the CLI and cross-checked against the oracle.
CLI_EXPECTED = {
    "sec5": ROOT / "tests/corpus/expected/hitting_sec5.json",
    "hadamard": ROOT / "tests/corpus/expected/hitting_hadamard.json",
    "order4": ROOT / "tests/corpus/expected/hitting_order4.json",
    "randomization": HERE / "expected/hitting_randomization.json",
}
DENSE_SIZES = (6, 8, 10)
DENSE_STATES_PER_CHANNEL = 2
# With two sizes in equal shares the median of a dense route falls in the gap
# between the size clusters, where it jumps; two n=6 units per n=4 unit put
# it inside the n=6 cluster.
SLOW_SIZES = (4, 6, 6)
SLOW_P = 1e-2


def spec_path(spec: str) -> str:
    """Spec path as the CLI is given it: relative to the repository root."""
    return f"tests/corpus/{spec}.json"


# ------------------------------------------------------------------ oracle

def superop(kraus) -> np.ndarray:
    """Row-stacking representation sum_i K_i kron conj(K_i)."""
    return sum(np.kron(K, K.conj()) for K in kraus)


def oracle_tau(S: np.ndarray, basis: np.ndarray, rho: np.ndarray) -> float:
    """Survival sum <vec I| (I - QQ S)^{-1} |vec rho>, with Q = I - B B*."""
    n = rho.shape[0]
    Q = np.eye(n) - basis @ basis.conj().T
    QQ = np.kron(Q, Q.conj())
    x = np.linalg.solve(np.eye(n * n) - QQ @ S, rho.reshape(-1))
    return float(np.vdot(np.eye(n).reshape(-1), x).real)


def tau_matches(tau, oracle: float) -> bool:
    return (tau is not None and np.isfinite(tau)
            and abs(tau - oracle) <= 1e-8 * max(1.0, abs(oracle)))


# ------------------------------------------------------- in-process inputs

@dataclass
class Solve:
    """One cross-checked solve: all four routes on one (S, V, rho)."""

    label: str
    S: object  # qhit.SuperOp
    V: object  # qhit.GoalSubspace
    rho: np.ndarray
    oracle: float


def _rng(seed: int, k: int) -> np.random.Generator:
    # Unit k depends on (seed, k) only, so a replay can rebuild any unit.
    return np.random.default_rng([seed, k])


def _random_kraus(rng, n: int, m: int = 3) -> tuple:
    """The random_tp_channel recipe: blocks of the Q factor of a Gaussian column."""
    Z = rng.normal(size=(m * n, n)) + 1j * rng.normal(size=(m * n, n))
    Q, _ = np.linalg.qr(Z)
    return tuple(Q[i * n:(i + 1) * n, :] for i in range(m))


def _random_unit_vector(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _pure_state_in_perp(rng, v: np.ndarray) -> np.ndarray:
    w = rng.normal(size=v.size) + 1j * rng.normal(size=v.size)
    w = w - v * np.vdot(v, w)
    w = w / np.linalg.norm(w)
    return np.outer(w, w.conj())


def _mixed_state_in_perp(rng, v: np.ndarray) -> np.ndarray:
    n = v.size
    W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    X = W - np.outer(v, v.conj() @ W)
    rho = X @ X.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


class Build:
    """Accumulates the time spent in qhit calls while inputs are built."""

    def __init__(self, qhit, clock):
        self.qhit = qhit
        self.clock = clock
        self.seconds = 0.0

    def __call__(self, fn, *args):
        t = self.clock()
        out = fn(*args)
        self.seconds += self.clock() - t
        return out


def random_dense_unit(build: Build, seed: int, k: int) -> list:
    """Unit k: one random 3-Kraus channel and goal line, queried from two states."""
    rng = _rng(seed, k)
    n = DENSE_SIZES[k % len(DENSE_SIZES)]
    kraus = _random_kraus(rng, n)
    v = _random_unit_vector(rng, n)
    q = build.qhit
    S = build(lambda: q.represent(q.KrausChannel(n, kraus)))
    V = build(q.GoalSubspace.from_vectors, [v])
    S_ref = superop(kraus)
    out = []
    for j in range(DENSE_STATES_PER_CHANNEL):
        rho = _pure_state_in_perp(rng, v)
        out.append(Solve(f"random-dense/u{k}/n{n}/s{j}", S, V, rho,
                         oracle_tau(S_ref, v[:, None], rho)))
    return out


def slow_mixing_unit(build: Build, seed: int, k: int) -> list:
    """Unit k: S = p T + (1 - p) id with p = 1e-2, one random V and mixed rho."""
    rng = _rng(seed, k)
    n = SLOW_SIZES[k % len(SLOW_SIZES)]
    kraus = _random_kraus(rng, n)
    v = _random_unit_vector(rng, n)
    rho = _mixed_state_in_perp(rng, v)
    q = build.qhit
    T = build(lambda: q.represent(q.KrausChannel(n, kraus)))
    S = build(q.randomize, T, q.identity_superop(n), SLOW_P)
    V = build(q.GoalSubspace.from_vectors, [v])
    S_ref = SLOW_P * superop(kraus) + (1 - SLOW_P) * np.eye(n * n)
    return [Solve(f"slow-mixing/u{k}/n{n}", S, V, rho,
                  oracle_tau(S_ref, v[:, None], rho))]


UNITS = {"random-dense": random_dense_unit, "slow-mixing": slow_mixing_unit}
# Units per round: a round is one pass over the size cycle, so stopping only
# at round boundaries keeps the size mix, and with it the medians, steady.
ROUND = {"random-dense": len(DENSE_SIZES), "slow-mixing": len(SLOW_SIZES)}


@dataclass(frozen=True)
class RouteOutcome:
    route: str
    ok: bool
    tau: float | None
    error: str | None = None  # "refused: ..." or "raised: ..."


def route_failure(out: RouteOutcome, oracle: float) -> str | None:
    """Why a route result fails the gate, or None.  Every route applies to
    the generated channels, so a refusal fails too."""
    if out.error is not None:
        return out.error
    if not out.ok:
        return "returned ok=False"
    if not tau_matches(out.tau, oracle):
        return f"tau {out.tau!r} differs from oracle {oracle!r}"
    return None


# --------------------------------------------------------------- CLI specs

def _entry(x) -> complex:
    return complex(x[0], x[1]) if isinstance(x, list) else complex(x)


def _matrix(node) -> np.ndarray:
    return np.array([[_entry(x) for x in row] for row in node], dtype=complex)


def _spec_superop(node) -> np.ndarray:
    kind = node["kind"]
    if kind == "kraus":
        return superop([_matrix(m) for m in node["kraus"]])
    if kind == "unitary":
        return superop([_matrix(node["unitary"])])
    if kind == "superop":
        return _matrix(node["superop"])
    if kind == "randomization":
        p = float(node["mix"]["p"])
        return (p * _spec_superop(node["mix"]["left"])
                + (1 - p) * _spec_superop(node["mix"]["right"]))
    raise ValueError(f"unknown channel kind {kind!r}")


def spec_oracle(spec: str) -> float:
    """Oracle tau of a corpus spec, parsed here rather than by qhit.cli."""
    node = json.loads((ROOT / spec_path(spec)).read_text())
    S = _spec_superop(node)
    basis, _ = np.linalg.qr(np.array([[_entry(x) for x in v]
                                      for v in node["subspace"]]).T)
    state = node["initial_state"]
    if isinstance(state[0], list):
        rho = _matrix(state)
    else:
        psi = np.array([_entry(x) for x in state])
        psi = psi / np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
    return oracle_tau(S, basis, rho)


@dataclass(frozen=True)
class CliCase:
    """Expected outcome of `qhit hitting <spec> --json`: exit 0 and the
    expected JSON, refusals included."""

    spec: str
    argv: tuple
    output: dict
    oracle: float


def cli_case(spec: str) -> CliCase:
    expected = json.loads(CLI_EXPECTED[spec].read_text())
    return CliCase(spec, ("hitting", spec_path(spec), "--json"), expected,
                   spec_oracle(spec))


def cli_failure(case: CliCase, exit_code: int, stdout: str) -> str | None:
    """Why a CLI invocation fails the gate, or None."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if doc != case.output:
        return "output differs from the expected output"
    for name, entry in doc["methods"].items():
        if entry["ok"] and not tau_matches(float(entry["tau"]), case.oracle):
            return f"{name} tau {entry['tau']!r} differs from oracle {case.oracle!r}"
    return None
