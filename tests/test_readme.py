"""The README's library quickstart runs and prints what the README shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_prints_its_documented_output():
    # the first python block, then the plain block that follows it
    text = README.read_text(encoding="utf-8")
    found = re.search(r"```python\n(.*?)```\s*```\n(.*?)```", text, re.DOTALL)
    assert found, "README.md has no python block followed by an output block"
    code, shown = found.groups()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue() == shown
