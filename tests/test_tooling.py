"""The benchmark's tracer binds irw functions by name; a rename or a
deletion must fail here rather than only in the traced benchmark run."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    # run_path compiles the file without writing bytecode next to it.
    targets = runpy.run_path(str(TRACER))["TARGETS"]
    assert targets
    for module, function, _, _ in targets:
        fn = getattr(importlib.import_module(f"irw.{module}"), function, None)
        assert callable(fn), f"irw.{module}.{function}"
