"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start (library)"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README.name}: Quick start (library)", "exec"), {})
