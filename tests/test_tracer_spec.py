"""perfbench/tracer.py rebinds names in the namespaces of scatterlab's
modules, and install() raises AttributeError on a name that is gone: every
(module, attribute) pair its SPEC lists must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves_in_its_module():
    spec = importlib.util.spec_from_file_location("_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pairs = [(mod, attr) for mods, attr, _, _ in tracer.SPEC for mod in mods]
    assert len(pairs) > 20
    missing = [(mod, attr) for mod, attr in pairs if not hasattr(
        importlib.import_module(f"scatterlab.{mod}"), attr)]
    assert missing == []
