"""README's "Library quick start" block runs as written, and its "CLI"
section names exactly the flags the parser takes."""

import argparse
import re
from pathlib import Path

from lgsim.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    exec(compile(_quick_start(), str(README), "exec"), {})


def _cli_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_cli_section_names_exactly_the_parser_flags():
    (subparsers,) = (a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
    flags = {flag for parser in subparsers.choices.values() for action in parser._actions
             for flag in action.option_strings} - {"-h", "--help"}
    assert flags == {"--config", "--out"}
    assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", _cli_section())) == flags
