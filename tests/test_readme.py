"""The README's library tour runs as written, and its flag list is the parser's."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

from qndsim.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def _tour() -> str:
    """The ``python`` block under ``## Library tour``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL).group(1)


def test_library_tour_runs():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _tour()], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "qnd=PASS" in done.stdout
    assert "max |z|" in done.stdout


def test_flag_list_names_each_subcommand_and_exactly_its_flags():
    """Each ``* `subcommand`:`` line under ``## Command line`` lists the flags its subparser declares."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    listed = {
        match.group(1): set(re.findall(r"`(--[a-z-]+)", match.group(2)))
        for match in re.finditer(r"^\* `([a-z-]+)`: (.*)$", section, re.MULTILINE)
    }
    (subparsers,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: {a.option_strings[0] for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        for name, parser in subparsers.choices.items()
    }
    assert listed == declared
