"""Every name the package exports and every function the benchmark traces exists.

``bench/tracing.py`` wraps the functions its SPANS table lists by module and
name, and a run fails at ``Tracer.install`` when one is gone. The table is
read from the file's syntax tree, so the benchmark package is not imported.
"""

import ast
import importlib
from pathlib import Path

import qpcoherent

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _spans():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "SPANS" for t in node.targets))
    return [(entry.elts[0].value, entry.elts[1].value) for entry in table.elts]


def test_traced_functions_exist():
    spans = _spans()
    assert ("cli", "main") in spans and len(spans) > 10
    missing = [f"{module}.{name}" for module, name in spans
               if not callable(getattr(importlib.import_module(f"qpcoherent.{module}"),
                                       name, None))]
    assert missing == []


def test_exported_names_resolve():
    assert [name for name in qpcoherent.__all__
            if not hasattr(qpcoherent, name)] == []
