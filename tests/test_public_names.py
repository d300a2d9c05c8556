"""Every public name has a reader besides its own definition and the tests.

A name in ``qndsim.__all__``, or a public top-level ``def`` or ``class`` of a
package module, counts as read when it occurs in the package modules, the
demos, the benchmark harness or the README more often than it is defined
there with ``def`` or ``class``.  ``__init__``'s export lines do not count.
An export's readers leave out ``perfbench/trace.py``: its ``TRACED`` table
names module attributes such as ``qndsim.gaussian.squeeze``, never the
package's exports.  Each field of a public dataclass of a package module
counts as read when ``.field`` occurs in the same texts.
"""

import dataclasses
import importlib
import re
import types
from pathlib import Path

import qndsim

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
