"""The numerical policy: every threshold of the package lives in qhit.tolerances."""

import importlib
import inspect
import pkgutil
import tokenize
from pathlib import Path

import numpy as np
import pytest

import qhit
from qhit.errors import ValidationError
from qhit.tolerances import EIG_ONE_TOL, IMAG_TOL, imag_exceeds, near_one, real_trace

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


def _public_callables():
    """(qualified name, callable) for every public function and class that a
    qhit module defines, and for each class its __init__ and public methods."""
    for info in pkgutil.iter_modules(qhit.__path__):
        module = importlib.import_module(f"qhit.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr in vars(obj):
                    member = getattr(obj, attr)
                    if ((attr == "__init__" or not attr.startswith("_"))
                            and inspect.isroutine(member)):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_only_one_function_takes_a_tolerance_argument():
    # a tolerance is a policy constant, not a per-call setting; the one
    # exception has two values in use (PSD_TOL for a density, STATE_TOL for
    # a computed fixed density)
    params = [f"{qualname}({param})" for qualname, fn in _public_callables()
              for param in inspect.signature(fn).parameters
              if param == "config" or param.endswith("tol")]
    assert params == ["qhit.channel.is_positive_semidefinite(tol)"]


def test_near_one_keeps_the_eigenvalues_within_the_tolerance():
    eigs = [1.0, 1.0 + 0.5j * EIG_ONE_TOL, 1.0 - 2 * EIG_ONE_TOL, -1.0, 1j]
    assert near_one(eigs) == [1.0, 1.0 + 0.5j * EIG_ONE_TOL]


def test_real_trace_refuses_an_imaginary_part_past_the_tolerance():
    assert real_trace(complex(0.25, 0.5 * IMAG_TOL)) == 0.25
    with pytest.raises(ValidationError, match="imaginary"):
        real_trace(complex(0.25, 2 * IMAG_TOL))
    # past 1 the tolerance is relative: a lazy unitary walk's tau = 7883.47
    # came with an imaginary part of 1.1e-8, which is roundoff
    assert real_trace(complex(7883.47, 1.1e-8)) == 7883.47
    with pytest.raises(ValidationError, match="imaginary"):
        real_trace(complex(7883.47, 2 * IMAG_TOL * 7883.47))


def test_imag_exceeds_is_real_traces_rule_elementwise():
    xs = [complex(0.25, 0.5 * IMAG_TOL), complex(0.25, 2 * IMAG_TOL),
          complex(7883.47, 1.1e-8), complex(-7883.47, -2 * IMAG_TOL * 7883.47),
          complex(5, 2e-9)]
    expected = [False, True, False, True, False]
    assert imag_exceeds(np.array(xs)).tolist() == expected
    for x, bad in zip(xs, expected):
        assert bool(imag_exceeds(x)) == bad
        if bad:
            with pytest.raises(ValidationError, match="imaginary"):
                real_trace(x)
        else:
            assert real_trace(x) == x.real
