"""Checks of the benchmark tooling and the package surface.  The tracer
binds irw functions by name, and each module's __all__ names what it
exports, so a rename or a deletion must fail here rather than only in the
traced benchmark run or at a later `import *`; every committed
BENCH_*.json must carry the fields a speed claim is read from; the
package imports nothing outside itself and the standard library, nor
dataclasses; a fresh import of it leaves nothing of the old one alive;
the term grammar has one reader; a one-sided machine has one
successor function; the package reads no environment variable; every
action the command line offers states its inputs in cli.USES; one
decorator alone switches the garbage collector; and the fingerprints that
tools/same_outputs.py compares are deterministic and see a change."""

import argparse
import ast
import importlib
import json
import os
import pkgutil
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_no_dataclasses():
    # Records are plain classes with __slots__: dataclass creation cost
    # about a quarter of every import of irw, and each instance is larger.
    for path in sorted((ROOT / "src" / "irw").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            assert "dataclasses" not in names, (path.name, node.lineno)


REIMPORT = """
import gc, importlib, sys
importlib.import_module("irw.machines")
for _ in range(3):
    for name in [n for n in sys.modules if n == "irw" or n.startswith("irw.")]:
        del sys.modules[name]
    importlib.import_module("irw.machines")
gc.collect()
names = [f"{c.__module__}.{c.__qualname__}" for c in gc.get_objects()
         if isinstance(c, type)]
print(names.count("irw.omega.NdTmSpec"), names.count("irw.turing.TmSpec"))
"""


def test_reimport_frees_the_old_modules():
    # perfbench imports irw afresh for every set-up.  Nothing may keep an
    # old copy's classes alive, as a module-level typing alias of them did
    # through typing's cache: each copy then held a whole irw.omega and
    # irw.turing and charged them to the run's peak memory.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-B", "-c", REIMPORT], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["1", "1"]


def _parse(module):
    path = ROOT / "src" / "irw" / f"{module}.py"
    return ast.parse(path.read_text(), str(path))


def test_verdict_line_built_in_two_places():
    # Every command's verdict leaves through cli._verdict, which looks up
    # its exit code; laws.render_report prints a law's verdict for it.
    owners = set()

    def visit(node, owner, docs):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner.split('.')[0]}.{node.name}"
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "VERDICT:" in node.value and node not in docs):
            owners.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner, docs)

    for info in pkgutil.iter_modules(irw.__path__):
        tree = _parse(info.name)
        visit(tree, f"{info.name}.<module>", _docstrings(tree))
    assert owners == {"cli._verdict", "laws.render_report"}


def _docstrings(tree):
    return [n.body[0].value for n in ast.walk(tree)
            if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and n.body and isinstance(n.body[0], ast.Expr)]


def test_machine_kind_named_once():
    # Each kind's file name is its spec class's KIND; the parser, the
    # printer and every kind refusal read it from there.
    places = {"det-two-sided": [], "nondet-one-sided": []}
    for info in pkgutil.iter_modules(irw.__path__):
        tree = _parse(info.name)
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node not in docs):
                for kind, where in places.items():
                    if kind in node.value:
                        where.append(f"{info.name}:{node.lineno}")
    assert [len(where) for where in places.values()] == [1, 1], places


def _words(expr):
    """The words an expression can evaluate to: a string constant, or
    either branch of a conditional expression."""
    if isinstance(expr, ast.IfExp):
        return _words(expr.body) | _words(expr.orelse)
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return {expr.value}
    return set()


def _passed(tree, callee, index):
    """The words passed as argument ``index`` of each call to ``callee``."""
    return {w for call in ast.walk(tree)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == callee and len(call.args) > index
            for w in _words(call.args[index])}


def test_every_verdict_word_has_an_exit_code():
    # The words the library returns (FunResult kinds, rel_verdict results,
    # Membership kinds, LawReport verdicts) and those the commands name
    # themselves (the trace words among them) are exactly the table's.
    from irw.cli import VERDICT_EXIT
    turing, omega, laws, cli = (_parse(m) for m in
                                ("turing", "omega", "laws", "cli"))
    rel = next(f for f in ast.walk(turing)
               if isinstance(f, ast.FunctionDef) and f.name == "rel_verdict")
    sources = {
        "FunResult": _passed(turing, "FunResult", 0),
        "rel_verdict": {w for r in ast.walk(rel)
                        if isinstance(r, ast.Return) for w in _words(r.value)},
        "Membership": _passed(omega, "Membership", 0),
        "LawReport": _passed(laws, "LawReport", 1) | _passed(laws, "_finish", 2),
        "cli": _passed(cli, "_verdict", 0),
    }
    assert sources["rel_verdict"] == {"holds", "fails", "unknown"}
    assert sources["LawReport"] == {"holds", "refuted", "unknown"}
    assert {"closed", "normal-form", "looping", "exhausted"} <= sources["cli"]
    for source, words in sources.items():
        assert words and words <= set(VERDICT_EXIT), (source, words)
    assert set().union(*sources.values()) == set(VERDICT_EXIT)


_ID_TABLES = {"_table", "_keys", "_finite_ids", "_ground_ids", "_knots"}
_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear",
             "update", "setdefault", "popitem", "__setitem__", "__delitem__"}


def _names_id_table(node):
    return (isinstance(node, ast.Name) and node.id in _ID_TABLES
            or isinstance(node, ast.Attribute) and node.attr in _ID_TABLES)


def _id_writes(tree):
    """Line numbers of the statements that set a node's ``_cid`` or change
    the id table and its per-id arrays; reads are not listed."""
    lines = []
    for node in ast.walk(tree):
        ctx = getattr(node, "ctx", None)
        if isinstance(ctx, (ast.Store, ast.Del)) and (
                isinstance(node, ast.Attribute) and node.attr == "_cid"
                or _names_id_table(node)
                or isinstance(node, ast.Subscript)
                and _names_id_table(node.value)):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
                and _names_id_table(node.func.value)
                or isinstance(node.func, ast.Name)
                and node.func.id in ("setattr", "delattr")
                and any(isinstance(a, ast.Constant) and a.value == "_cid"
                        for a in node.args)):
            lines.append(node.lineno)
    return lines


def test_ids_minted_only_in_terms():
    # The constructor mints every node's id, and terms.py alone settles
    # knots; any other module that set a _cid or wrote the table would
    # be a second minting site the id invariants do not cover.
    writers = {info.name: _id_writes(_parse(info.name))
               for info in pkgutil.iter_modules(irw.__path__)}
    assert {name for name, lines in writers.items() if lines} == {"terms"}, \
        writers


def test_term_grammar_read_in_terms_only():
    # terms._parse is the one reader of the term grammar; a module that
    # named its tokenizer would be a second reader to keep in step.
    readers = set()
    for info in pkgutil.iter_modules(irw.__path__):
        for node in ast.walk(_parse(info.name)):
            if isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
            else:  # a Name's id, an Attribute's attr
                names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if names & {"_tokenize", "_TOKEN_RE"}:
                readers.add(info.name)
    assert readers == {"terms"}


def test_omega_delta_read_by_nd_steps_only():
    # nd_steps is the one successor function of a one-sided machine; a
    # second reader of the delta table in omega.py would be a second
    # successor function to keep in step with it.
    readers = set()

    def visit(node, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if isinstance(node, ast.Attribute) and node.attr == "delta":
            readers.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(_parse("omega"), "")
    assert readers == {"nd_steps", "NdTmSpec.moves"}


def test_no_environment_read():
    # Every input irw reads is an argument or a file it names; a variable
    # of the environment would be an input that no output shows.
    readers = set()
    for info in pkgutil.iter_modules(irw.__path__):
        for node in ast.walk(_parse(info.name)):
            if isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
            else:
                names = {getattr(node, "attr", None)}
            if names & {"environ", "environb", "getenv", "getenvb"}:
                readers.add(info.name)
    assert readers == set()


def test_every_action_has_a_uses_row():
    # cli._check_inputs refuses an unread input of an action through its
    # USES row; an action without one would be checked by no table.
    from irw import cli
    ap = cli.build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    offered = set()
    for cmd, parser in sub.choices.items():
        first = next(a for a in parser._actions if not a.option_strings)
        offered |= {(cmd, action) for action in first.choices}
    assert offered == set(cli.USES)


def test_collector_switched_in_one_decorator():
    # irw._collector_paused is the one place that turns the cyclic
    # collector off and on again; a second switch at some call site could
    # leave it off, or turn it on under a caller that had turned it off.
    importers, switches = [], []

    def visit(node, owner, module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if isinstance(node, ast.Import) and "gc" in [a.name for a in node.names] \
                or isinstance(node, ast.ImportFrom) and node.module == "gc":
            importers.append(module)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "gc"):
            switches.append((module, owner, node.func.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, module)

    for path in sorted((ROOT / "src" / "irw").glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), "", path.stem)
    assert importers == ["__init__"]
    where = "_collector_paused.paused"
    assert {(m, o) for m, o, f in switches if f in ("disable", "enable")} \
        == {("__init__", where)}
    assert {f for _, _, f in switches} == {"isenabled", "disable", "enable"}


def _first_term(fp):
    """The first ["term", printed form, canonical id] in a fingerprint."""
    if isinstance(fp, list):
        if fp[:1] == ["term"]:
            return fp
        for x in fp:
            if (got := _first_term(x)) is not None:
                return got
    elif isinstance(fp, dict):
        return _first_term(list(fp.values()))
    return None


def test_same_outputs_fingerprints():
    # tools/same_outputs.py compares fingerprints of job outputs taken in
    # separate processes.  A pass fingerprints alike in two processes, law
    # reports' elapsed time included, and a hand-perturbed canonical id,
    # verdict or missing job is reported as a difference.  Its --seeds
    # list reads numbers and ranges in order and refuses anything else.
    tool = runpy.run_path(str(ROOT / "tools" / "same_outputs.py"))
    parse = tool["parse_seeds"]
    assert parse("1-3") == (1, 2, 3)
    assert parse("1-3,11") == (1, 2, 3, 11)
    assert parse("11,2-2") == (11, 2)
    for bad in ("", "3-1", "1-", "-2", "1,,2", "a", "1-3,2", " 1"):
        with pytest.raises(ValueError):
            parse(bad)
    assert tool["main"](["HEAD", "--seeds", "3-1"]) == 2
    fps, differences = tool["job_fingerprints"], tool["differences"]
    got = {name: fps(ROOT, name, 1, small=True)
           for name in ("search", "srs-bisim")}
    for name, first in got.items():
        assert first and first == fps(ROOT, name, 1, small=True)
        assert differences(first, first) == []
    search, laws = got["search"], got["srs-bisim"]
    perturbed = json.loads(json.dumps(search))
    _first_term(perturbed[0][1])[2] += 1
    assert differences(search, perturbed) == [search[0][0]]
    text = json.dumps(laws[-1])
    assert '"holds"' in text
    changed = json.loads(text.replace('"holds"', '"unknown"'))
    assert differences(laws, laws[:-1] + [changed]) == [laws[-1][0]]
    assert differences(laws, laws[:-1]) == [laws[-1][0]]
