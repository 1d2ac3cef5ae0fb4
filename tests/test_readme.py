"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
