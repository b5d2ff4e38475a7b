"""The numerical policy: every threshold of the package lives in qhit.tolerances."""

import importlib
import inspect
import pkgutil
import re
import tokenize
from pathlib import Path

import qhit
from qhit import tolerances
from qhit.tolerances import EIG_ONE_TOL, near_one

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qhit"


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
                    # callable(): a cached_property is a descriptor that
                    # isroutine accepts, but it takes no arguments
                    if ((attr == "__init__" or not attr.startswith("_"))
                            and inspect.isroutine(member) and callable(member)):
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



def test_readme_table_lists_every_tolerance_with_its_value():
    # the rows "| `NAME` | value | what it decides |" of the Numerical policy
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([A-Z_]+)` \| ([^|]+) \|", text, flags=re.M)
    listed = {name: float(value) for name, value in rows}
    assert len(listed) == len(rows)  # no name listed twice
    constants = {name: value for name, value in vars(tolerances).items()
                 if name.isupper()}
    assert listed == constants
