"""Every function the benchmark's tracer wraps still exists in the package."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.trace import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
