"""The README's library quick start runs and prints tau = 6 on every route."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_prints_tau_six_four_times():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    lines = out.getvalue().split("\n")[:-1]
    assert [line.split()[0] for line in lines] == [
        "series", "analytic-K", "ksmh-ginverse", "ksmh-group"]
    for line in lines:
        assert abs(float(line.split()[1]) - 6.0) < 1e-9, line
