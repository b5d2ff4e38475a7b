"""Command-line front end: channel-spec files in, deterministic reports out.

Subcommands
-----------
validate   parse a spec file and print channel diagnostics
hitting    mean hitting time to the goal subspace, by one or all routes
ginverse   group inverse or Hunter-family g-inverse of I - Phi, with residuals
sweep      tau over a grid of mixing probabilities, with the p -> 0 limit

Spec files are JSON.  Complex entries are written as [re, im] pairs; plain
numbers are taken as reals, and every number must be finite.  Exit codes: 0
success, 2 validation failure, 3 no applicable method, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import ginverse as ginv
from .channel import (GoalSubspace, KrausChannel, assumption_one_holds,
                      diagnose, is_density, pure_density, randomize, represent,
                      unitary_superop)
from .errors import (NoGroupInverseError, NotIrreducibleError, QhitError,
                     SpectralObstructionError, ValidationError)
from .ksmh import kernel_limit_study, tau_channel
from .matrep import SuperOp
from .qmc import induce, induced_group_inverse
from .tolerances import near_one

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_METHOD = 3
EXIT_NUMERICAL = 4

# CLI method names -> internal route names
METHOD_ALIASES = {
    "series": "series",
    "analytic": "analytic-K",
    "ksmh-g": "ksmh-ginverse",
    "ksmh-group": "ksmh-group",
}


class SpecError(ValidationError):
    """Spec-file problem, annotated with the JSON path of the offending node."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# ----------------------------------------------------------------- parsing

def _is_number(x) -> bool:
    """A finite JSON number.  json reads true and false as bools, which are
    ints, NaN and Infinity as floats, 1e400 as inf, and integers of any
    size, so each is refused here."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _entry(x, path: str) -> complex:
    if _is_number(x):
        return complex(x)
    if isinstance(x, list) and len(x) == 2 and all(map(_is_number, x)):
        return complex(x[0], x[1])
    raise SpecError(path, "expected a finite number or an [re, im] pair")


def parse_matrix(node, path: str) -> np.ndarray:
    if not isinstance(node, list) or not node or not isinstance(node[0], list):
        raise SpecError(path, "expected a matrix (list of rows)")
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list):
            raise SpecError(f"{path}[{i}]", "expected a row (list)")
        rows.append([_entry(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    if len({len(r) for r in rows}) != 1:
        raise SpecError(path, "rows have unequal lengths")
    return np.array(rows, dtype=np.complex128)


def parse_vector(node, path: str) -> np.ndarray:
    if not isinstance(node, list):
        raise SpecError(path, "expected a vector (list)")
    return np.array([_entry(x, f"{path}[{i}]") for i, x in enumerate(node)],
                    dtype=np.complex128)


def parse_channel(node, path: str = "$") -> SuperOp:
    if not isinstance(node, dict):
        raise SpecError(path, "expected an object")
    kind = node.get("kind")
    if kind == "kraus":
        ops = node.get("kraus")
        if not isinstance(ops, list) or not ops:
            raise SpecError(f"{path}.kraus", "expected a nonempty list of matrices")
        mats = [parse_matrix(m, f"{path}.kraus[{i}]") for i, m in enumerate(ops)]
        dim = node.get("dim", mats[0].shape[0])
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise SpecError(f"{path}.dim", "expected an integer")
        return represent(KrausChannel(dim, tuple(mats)))
    if kind == "unitary":
        if "unitary" not in node:
            raise SpecError(f"{path}.unitary", "missing")
        return unitary_superop(parse_matrix(node["unitary"], f"{path}.unitary"))
    if kind == "superop":
        if "superop" not in node:
            raise SpecError(f"{path}.superop", "missing")
        M = parse_matrix(node["superop"], f"{path}.superop")
        n = round(M.shape[0] ** 0.5)
        if n * n != M.shape[0] or M.shape[0] != M.shape[1]:
            raise SpecError(f"{path}.superop", "must be square of order n^2")
        return SuperOp(n, M)
    if kind == "randomization":
        p, left, right = _parse_mix(node, path)
        return randomize(left, right, p)
    raise SpecError(f"{path}.kind",
                    "expected one of kraus | unitary | superop | randomization")


def _parse_mix(node: dict, path: str) -> tuple:
    """(p, left, right) of a randomization spec's ``mix`` object, the two
    channels parsed."""
    mix = node.get("mix")
    if not isinstance(mix, dict):
        raise SpecError(f"{path}.mix", "expected an object {p, left, right}")
    for key in ("p", "left", "right"):
        if key not in mix:
            raise SpecError(f"{path}.mix.{key}", "missing")
    if not _is_number(mix["p"]):
        raise SpecError(f"{path}.mix.p", "expected a number")
    left = parse_channel(mix["left"], f"{path}.mix.left")
    right = parse_channel(mix["right"], f"{path}.mix.right")
    return float(mix["p"]), left, right


def parse_subspace(node, dim: int, path: str = "$.subspace") -> GoalSubspace:
    if not isinstance(node, list) or not node:
        raise SpecError(path, "expected a nonempty list of basis vectors")
    vecs = [parse_vector(v, f"{path}[{i}]") for i, v in enumerate(node)]
    return GoalSubspace.from_vectors(vecs, ambient_dim=dim)


def parse_state(node, dim: int, path: str = "$.initial_state") -> np.ndarray:
    """A density matrix when the node has n rows of length n (n = 2 reads two
    [re, im] pairs as a matrix), else a state vector of numbers or pairs."""
    if (isinstance(node, list) and node
            and all(isinstance(row, list) and len(row) == len(node) for row in node)):
        rho = parse_matrix(node, path)
    else:
        rho = pure_density(parse_vector(node, path))
    if rho.shape != (dim, dim):
        raise SpecError(path, f"state must act on dimension {dim}")
    if not is_density(rho):
        raise SpecError(path, "not a density matrix")
    return rho


def load_spec(filename: str) -> dict:
    try:
        with open(filename, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError("$", f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError("$", f"invalid JSON: {exc}") from exc


# --------------------------------------------------------------- formatting

def _fmt(x: float) -> float:
    """Round-trip through 12 significant digits for stable output."""
    return float(f"{x:.12g}")


def _plain(node):
    """A report value as JSON types, by the one output rule: floats at 12
    significant digits (:func:`_fmt`), complex numbers and every array as
    [re, im] pairs, numpy scalars as Python ones, tuples as lists."""
    if isinstance(node, np.ndarray):
        node = node.astype(np.complex128).tolist()
    elif isinstance(node, np.generic):
        node = node.item()
    if isinstance(node, dict):
        return {k: _plain(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_plain(v) for v in node]
    if isinstance(node, complex):
        return [_fmt(node.real), _fmt(node.imag)]
    if isinstance(node, float):
        return _fmt(node)
    return node


def emit(report: dict, as_json: bool) -> None:
    report = _plain(report)
    if as_json:
        sys.stdout.write(json.dumps(report, indent=2, allow_nan=False) + "\n")
        return
    _emit_text(report, indent="")


def _emit_text(node, indent: str, key: str | None = None) -> None:
    label = f"{indent}{key}: " if key is not None else indent
    if isinstance(node, dict):
        if key is not None:
            sys.stdout.write(f"{indent}{key}:\n")
        for k, v in node.items():
            _emit_text(v, indent + ("  " if key is not None else ""), k)
    elif (isinstance(node, list) and node and isinstance(node[0], list)
          and node[0] and isinstance(node[0][0], list)):
        # matrix of [re, im] pairs
        sys.stdout.write(f"{indent}{key}:\n")
        for row in node:
            cells = []
            for re, im in row:
                cells.append(f"{re:.12g}" if im == 0 else f"{re:.12g}{im:+.12g}j")
            sys.stdout.write(indent + "  " + "  ".join(f"{c:>16s}" for c in cells) + "\n")
    elif isinstance(node, list) and node and isinstance(node[0], dict):
        sys.stdout.write(f"{indent}{key}:\n")
        for item in node:
            cells = (f"{k}={v:.12g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in item.items())
            sys.stdout.write(indent + "  - " + "  ".join(cells) + "\n")
    elif isinstance(node, float):
        sys.stdout.write(f"{label}{node:.12g}\n")
    else:
        sys.stdout.write(f"{label}{node}\n")


# -------------------------------------------------------------- subcommands

def _diagnostics_dict(S: SuperOp, V: GoalSubspace | None) -> dict:
    out = dataclasses.asdict(diagnose(S))
    if V is not None:
        holds, eigs = assumption_one_holds(S, V)
        out["assumption_one"] = {
            "holds": holds,
            "offending_eigenvalues": [complex(z) for z in near_one(eigs)],
        }
    return out


def cmd_validate(args) -> int:
    spec = load_spec(args.spec)
    try:
        S = parse_channel(spec)
        V = parse_subspace(spec["subspace"], S.dim) if "subspace" in spec else None
        # diagnose refuses a map that does not preserve Hermiticity
        diagnostics = _diagnostics_dict(S, V)
    except ValidationError as exc:
        emit({"command": "validate", "input": args.spec, "valid": False,
              "error": str(exc)}, args.json)
        return EXIT_VALIDATION
    report = {"command": "validate", "input": args.spec, "valid": True,
              "dim": S.dim, "diagnostics": diagnostics}
    emit(report, args.json)
    return EXIT_OK


def cmd_hitting(args) -> int:
    spec = load_spec(args.spec)
    S = parse_channel(spec)
    if "subspace" not in spec:
        raise SpecError("$.subspace", "missing (required by hitting)")
    if "initial_state" not in spec:
        raise SpecError("$.initial_state", "missing (required by hitting)")
    V = parse_subspace(spec["subspace"], S.dim)
    rho = parse_state(spec["initial_state"], S.dim)

    names = list(METHOD_ALIASES) if args.method == "all" else [args.method]
    results = {}
    taus = {}
    for name in names:
        rep = tau_channel(S, V, rho, METHOD_ALIASES[name])
        entry = {
            "ok": rep.ok,
            "tau": (None if rep.tau is None
                    else ("inf" if np.isinf(rep.tau) else rep.tau)),
            "preconditions": rep.preconditions,
        }
        if rep.detail:
            entry["detail"] = rep.detail
        if args.dump_intermediates:
            mats = {k: v for k, v in rep.artifacts.items()
                    if isinstance(v, np.ndarray)}
            if mats:
                entry["intermediates"] = mats
        results[name] = entry
        if rep.ok and np.isfinite(rep.tau):
            taus[name] = rep.tau

    report = {"command": "hitting", "input": args.spec, "methods": results}
    if len(taus) >= 2:
        vals = list(taus.values())
        spread = max(vals) - min(vals)
        report["agreement"] = {
            "methods_succeeded": sorted(taus),
            "max_delta": spread,
        }
    emit(report, args.json)
    return EXIT_OK if taus else EXIT_NO_METHOD


def _parse_cli_vector(text: str, name: str) -> np.ndarray:
    try:
        node = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"--{name}", f"invalid JSON: {exc}") from exc
    return parse_vector(node, f"--{name}")


def cmd_ginverse(args) -> int:
    """Print the inverse that the KSMH routes use: on a spec with a subspace,
    the induced chain's A^# of :func:`qmc.induced_group_inverse` or the
    Hunter member of :func:`ginverse.hunter_ginverse`, whose defaults give
    the special form of :func:`ginverse.hunter_special`."""
    spec = load_spec(args.spec)
    S = parse_channel(spec)
    q = induce(S, parse_subspace(spec["subspace"], S.dim)) if "subspace" in spec else None
    report = {"command": "ginverse", "input": args.spec,
              "scope": "channel" if q is None else "induced-qmc", "kind": args.kind}
    given = [name for name in ("t", "u", "f", "g") if getattr(args, name) is not None]
    if args.kind == "group":
        if given:
            raise SpecError(f"--{given[0]}",
                            "is a Hunter parameter; --kind group takes none")
        gs = (ginv.group_inverse(np.eye(S.dim**2) - S.mat) if q is None
              else induced_group_inverse(q))
        report["index"] = gs.index
        report["residuals"] = gs.residuals
        report["Asharp"] = gs.Asharp
    else:  # hunter
        if q is None:
            raise SpecError("$.subspace",
                            "missing (the Hunter family acts on the induced QMC)")
        params = {name: _parse_cli_vector(getattr(args, name), name) for name in given}
        G = ginv.hunter_ginverse(q, **params)
        report["residuals"] = {"AGA-A": ginv.verify_ginverse(np.eye(q.dim) - q.rep, G)}
        report["G"] = G
    emit(report, args.json)
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = load_spec(args.spec)
    if not isinstance(spec, dict) or spec.get("kind") != "randomization":
        raise SpecError("$.kind", "sweep requires a randomization spec")
    _, left, right = _parse_mix(spec, "$")
    if "subspace" not in spec:
        raise SpecError("$.subspace", "missing (required by sweep)")
    V = parse_subspace(spec["subspace"], left.dim)
    rho = (parse_state(spec["initial_state"], left.dim)
           if "initial_state" in spec else None)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise SpecError("--values", f"expected comma-separated floats: {exc}") from exc
    if not values:
        raise SpecError("--values", "empty")

    study = kernel_limit_study(left, right, V, values, rho=rho)
    rows = [{"p": pt.p, "tau": pt.tau, "g_norm": pt.g_norm} for pt in study.points]
    report = {
        "command": "sweep", "input": args.spec, "param": "p",
        "table": rows,
        "extrapolated_p0": {"tau": study.tau_extrapolated},
        "direct_p0": {"tau": study.tau_direct},
        "g_norms_diverge": study.g_norms_diverge,
        "kernel_limit_defect": study.extrapolation_defect,
    }
    emit(report, args.json)
    return EXIT_OK


# -------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qhit",
                                description="Hitting times of quantum channels")
    sub = p.add_subparsers(dest="cmd", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("spec", help="JSON channel spec file")
    common.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")

    sp = sub.add_parser("validate", parents=[common],
                        help="validate a spec and print diagnostics")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("hitting", parents=[common],
                        help="mean hitting time to the goal subspace")
    sp.add_argument("--method", default="all",
                    choices=["all", *METHOD_ALIASES])
    sp.add_argument("--dump-intermediates", action="store_true")
    sp.set_defaults(func=cmd_hitting)

    sp = sub.add_parser("ginverse", parents=[common],
                        help="generalized inverse of I - Phi")
    sp.add_argument("--kind", default="group", choices=["group", "hunter"])
    for name, role in (("t", "column"), ("u", "row, default e_I"), ("f", "row"),
                       ("g", "column")):
        sp.add_argument(f"--{name}", default=None,
                        help=f"JSON vector: Hunter parameter {name} ({role})")
    sp.set_defaults(func=cmd_ginverse)

    sp = sub.add_parser("sweep", parents=[common],
                        help="tau over a grid of mixing probabilities")
    sp.add_argument("--values", required=True,
                    help="comma-separated values, e.g. 1,0.5,0.1")
    sp.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION
    except (SpectralObstructionError, NoGroupInverseError,
            NotIrreducibleError) as exc:
        sys.stderr.write(f"no applicable method: {exc}\n")
        return EXIT_NO_METHOD
    except (QhitError, np.linalg.LinAlgError) as exc:  # NumericalError included
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
