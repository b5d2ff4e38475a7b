"""The numerical policy: every threshold of the package lives in qhit.tolerances."""

import tokenize
from pathlib import Path

import pytest

from qhit.errors import ValidationError
from qhit.tolerances import EIG_ONE_TOL, IMAG_TOL, near_one, real_trace

SRC = Path(__file__).resolve().parent.parent / "src" / "qhit"


def _exponent_literals(path: Path) -> list:
    """Number literals written with an exponent (1e-8, 1e2); comments and
    docstrings are other tokens, so they are not seen."""
    with path.open("rb") as fh:
        return [f"{path.name}:{tok.start[0]}: {tok.string}"
                for tok in tokenize.tokenize(fh.readline)
                if tok.type == tokenize.NUMBER
                and not tok.string.lower().startswith("0x")
                and "e" in tok.string.lower()]


def test_no_exponent_literal_outside_the_policy_module():
    assert _exponent_literals(SRC / "tolerances.py")  # the scan sees them
    found = [hit for path in sorted(SRC.glob("*.py"))
             if path.name != "tolerances.py" for hit in _exponent_literals(path)]
    assert found == []


def test_near_one_keeps_the_eigenvalues_within_the_tolerance():
    eigs = [1.0, 1.0 + 0.5j * EIG_ONE_TOL, 1.0 - 2 * EIG_ONE_TOL, -1.0, 1j]
    assert near_one(eigs) == [1.0, 1.0 + 0.5j * EIG_ONE_TOL]


def test_real_trace_refuses_an_imaginary_part_past_the_tolerance():
    assert real_trace(complex(0.25, 0.5 * IMAG_TOL)) == 0.25
    with pytest.raises(ValidationError, match="imaginary"):
        real_trace(complex(0.25, 2 * IMAG_TOL))
