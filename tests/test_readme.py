"""README's "Library quick start" block runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    exec(compile(_quick_start(), str(README), "exec"), {})
