"""Checks of the benchmark tooling and the package surface.  The tracer
binds irw functions by name, and each module's __all__ names what it
exports, so a rename or a deletion must fail here rather than only in the
traced benchmark run or at a later `import *`; every committed
BENCH_*.json must carry the fields a speed claim is read from; and the
package imports nothing outside itself and the standard library."""

import ast
import importlib
import json
import pkgutil
import runpy
import sys
from pathlib import Path

import irw

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    # run_path compiles the file without writing bytecode next to it.
    targets = runpy.run_path(str(TRACER))["TARGETS"]
    assert targets
    for module, function, _, _ in targets:
        fn = getattr(importlib.import_module(f"irw.{module}"), function, None)
        assert callable(fn), f"irw.{module}.{function}"


def test_exports_resolve():
    # A stale name in __all__ fails only at a later `import *`.
    for info in pkgutil.iter_modules(irw.__path__):
        mod = importlib.import_module(f"irw.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"irw.{info.name}.{name}"


ROOT = TRACER.parent.parent


def test_bench_files_carry_their_fields():
    # A speed claim is recorded as BENCH_*.json at the repo root: per
    # workload, each end-to-end metric's parent and change medians with
    # quartiles and the pair count; the traced per-layer numbers; and the
    # src/ line counts.
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        bench = json.loads(path.read_text())
        assert bench["end_to_end"], path.name
        for workload, metrics in bench["end_to_end"].items():
            assert metrics, (path.name, workload)
            for metric, row in metrics.items():
                where = (path.name, workload, metric)
                assert isinstance(row["pairs"], int) and row["pairs"] >= 1, where
                for side in ("parent", "change"):
                    q1, med, q3 = (row[side][k] for k in ("q1", "median", "q3"))
                    assert all(isinstance(v, (int, float)) for v in (q1, med, q3))
                    assert q1 <= med <= q3, where
        assert bench["per_layer"], path.name
        for metric, row in bench["per_layer"].items():
            assert set(row) >= {"parent", "change"}, (path.name, metric)
        for side in ("parent", "change"):
            assert isinstance(bench["src_loc"][side], int), path.name


def test_package_is_stdlib_only():
    # irw promises to run on a bare Python: every import in its modules
    # names an irw module or a standard-library one.
    paths = sorted((ROOT / "src" / "irw").glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "irw" or top in sys.stdlib_module_names, (
                    path.name, node.lineno, name)
