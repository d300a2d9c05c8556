"""Every public name has a reader besides its own definition and the tests.

A name in ``qndsim.__all__``, or a public top-level ``def`` or ``class`` of a
package module, counts as read when it occurs in the package modules, the
demos, the benchmark harness or the README more often than it is defined
there with ``def`` or ``class``.  ``__init__``'s export lines do not count.
An export's readers leave out ``perfbench/trace.py``: its ``TRACED`` table
names module attributes such as ``qndsim.gaussian.squeeze``, never the
package's exports.  Each field of a public dataclass of a package module
counts as read when ``.field`` occurs in the same texts.

An exported function must also be read through the package by the README
or a demo: as ``q.<name>``, as ``qndsim.<name>`` or in a ``from qndsim
import`` list.  Every other function is read at its module.  Exported
classes keep the first rule alone, since they type what the exported
functions return or raise.

A traffic census runs every subcommand, the demos and the README's library
tour under ``sys.setprofile``; the package functions and methods it never
calls are exactly ``UNCALLED``, each with the reason it stays.
"""

import ast
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import qndsim
from test_readme import _tour

ROOT = Path(__file__).resolve().parent.parent
MODULES = [p for p in sorted((ROOT / "src" / "qndsim").glob("*.py")) if p.name != "__init__.py"]
READERS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _text(paths) -> str:
    return "\n".join(p.read_text(encoding="utf-8") for p in paths)


def test_every_export_has_a_reader():
    package = _text(MODULES)
    tracer = ROOT / "perfbench" / "trace.py"
    text = package + "\n" + _text([p for p in READERS if p != tracer] + [ROOT / "README.md"])
    unread = []
    for name in qndsim.__all__:
        if isinstance(getattr(qndsim, name), types.ModuleType):
            continue
        word = re.escape(name)
        uses = len(re.findall(rf"\b{word}\b", text))
        definitions = len(re.findall(rf"^\s*(?:def|class)\s+{word}\b", package, re.MULTILINE))
        if uses <= definitions:
            unread.append(name)
    assert unread == []


def test_every_exported_function_is_read_through_the_package():
    text = _text(sorted((ROOT / "demos").glob("*.py")) + [ROOT / "README.md"])
    read = set(re.findall(r"\b(?:q|qndsim)\.(\w+)", text))
    for names in re.findall(r"^from qndsim import (\([^)]*\)|.*)", text, re.MULTILINE):
        read.update(re.findall(r"\w+", names))
    functions = [name for name in qndsim.__all__
                 if not isinstance(getattr(qndsim, name), (type, types.ModuleType))]
    assert [name for name in functions if name not in read] == []


def test_every_public_module_definition_has_a_reader():
    # the export rule, applied to each module's public top-level names
    package = _text(MODULES)
    text = package + "\n" + _text(READERS + [ROOT / "README.md"])
    names = set(re.findall(r"^(?:def|class)\s+([A-Za-z]\w*)", package, re.MULTILINE))
    unread = [
        name for name in sorted(names)
        if len(re.findall(rf"\b{name}\b", text))
        <= len(re.findall(rf"^\s*(?:def|class)\s+{name}\b", package, re.MULTILINE))
    ]
    assert unread == []


def test_every_public_dataclass_field_has_a_reader():
    text = _text(MODULES + READERS + [ROOT / "README.md"])
    unread = []
    for path in MODULES:
        module = importlib.import_module(f"qndsim.{path.stem}")
        classes = [(name, value) for name, value in vars(module).items()
                   if isinstance(value, type) and dataclasses.is_dataclass(value)
                   and not name.startswith("_") and value.__module__ == module.__name__]
        unread += [f"{name}.{f.name}" for name, value in classes for f in dataclasses.fields(value)
                   if not re.search(rf"\.{f.name}\b", text)]
    assert unread == []


# the package functions and methods that no subcommand, demo or tour line calls, and why each stays
_TOOLKIT = "the state toolkit that perfbench's TRACED rebinds (ROADMAP items 2 and 12)"
UNCALLED = {
    "gaussian.SymplecticMatrix.__init__": _TOOLKIT,
    "gaussian.SymplecticMatrix.apply": _TOOLKIT,
    "gaussian._apply_block": _TOOLKIT,
    "gaussian.squeeze": _TOOLKIT,
    "gaussian.beam_splitter": _TOOLKIT,
    "gaussian.loss_channel": _TOOLKIT,
    "gaussian.remove_mode": _TOOLKIT,
    "ensemble.pairwise_tree_sum": _TOOLKIT,
    "scenario.ScenarioConfig.input_state": "perfbench's output check reads it (ROADMAP items 2 and 13)",
    "circuit.Circuit.to_text": "its reader is planned in ROADMAP item 5",
    "scenario.ScenarioConfig.to_json": "its reader is planned in ROADMAP item 5",
    "metrics.QndReport.qnd_criteria_pass": "its reader is planned in ROADMAP item 23",
}

# run in a scratch directory as ``python -c _TRAFFIC <repo root>``; prints each called
# package code object as "<file>:<first line>"
_TRAFFIC = r"""
import contextlib, io, json, runpy, sys
from pathlib import Path

root = Path(sys.argv[1])
package = (root / "src" / "qndsim").resolve()
codes = set()


def profile(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)


sys.setprofile(profile)
from qndsim.cli import main

commands = ("vacuum-spectra", "transfer", "conditional", "reproduce-table")
runs = [[command] for command in (*commands, "oracle-check")]
runs += [[command, "--trajectories", "2000"] for command in ("transfer", "conditional")]
runs += [[command, "--csv", f"{command}.csv"] for command in commands]
runs += [["transfer", "--config", "scenario.json"], ["reproduce-table", "--no-fit"]]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in runs:
        assert main(argv) == 0, argv
    for demo in sorted((root / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
    runpy.run_path("tour.py", run_name="__main__")
sys.setprofile(None)
paths = {c: Path(c.co_filename).resolve() for c in codes}
print(json.dumps(sorted(f"{paths[c].name}:{c.co_firstlineno}" for c in codes if paths[c].parent == package)))
"""


def _definitions(nodes, prefix: str, filename: str) -> dict:
    """``{"<file>:<line>": "<module>.<qualified name>"}`` for the functions and methods among ``nodes``.

    The line is the first decorator's, else the ``def``'s: the code object's
    ``co_firstlineno``, so a call is keyed without ``co_qualname``, which Python 3.10 lacks.
    """
    found = {}
    for node in nodes:
        if isinstance(node, ast.ClassDef):
            found.update(_definitions(node.body, f"{prefix}.{node.name}", filename))
        elif isinstance(node, ast.FunctionDef):
            line = node.decorator_list[0].lineno if node.decorator_list else node.lineno
            found[f"{filename}:{line}"] = f"{prefix}.{node.name}"
    return found


def test_the_functions_no_traffic_calls_are_the_ledger(tmp_path):
    (tmp_path / "tour.py").write_text(_tour(), encoding="utf-8")
    scenario = {
        "gate": {"G": 1.5, "squeezing_dB_A": -6.0},
        "imperfections": {"visibility": 0.97, "dark_noise_dB_below_shot": None},
        "run": {"mode": "trajectories", "n": 2000, "master_seed": 7},
        "output": {"path": "scenario.csv"},
    }
    (tmp_path / "scenario.json").write_text(json.dumps(scenario), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _TRAFFIC, str(ROOT)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    called = set(json.loads(done.stdout))
    definitions = {}
    for path in sorted((ROOT / "src" / "qndsim").glob("*.py")):
        definitions.update(_definitions(ast.parse(path.read_text(encoding="utf-8")).body, path.stem, path.name))
    assert sorted(name for key, name in definitions.items() if key not in called) == sorted(UNCALLED)
