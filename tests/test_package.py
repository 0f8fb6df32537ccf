"""The package itself: kvar imports only the standard library, never
dataclasses or fractions, and only names it uses; importing the command
line loads no dataclasses, inspect or fractions; its plain classes keep
the value semantics of the dataclasses they replaced; each public
top-level name has a caller, a command reaches each of its functions or a
reason keeps it, no module holds a site object, span or square, and its
JSON loaders end bad text in their typed errors."""

import ast
import copy
import importlib
import json
import pathlib
import pickle
import subprocess
import sys

import pytest

import kvar
from kvar import corpus
from kvar.cli import Record, Report, RunConfig
from kvar.kring import (InvalidRelationError, RelationSet, builtin_info, parse_expr,
                        standard_relations)
from kvar.measures import MeasureError, MeasureSpec
from kvar.spansite import DistinguishedSquare, SiteObject, SpanMorphism
from kvar.toric import Fan, ToricError, builtin_fan, star_subdivide

SOURCES = sorted(pathlib.Path(kvar.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_kvar_imports_only_the_standard_library():
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "kvar" or top in sys.stdlib_module_names, (path.name, name)
                # its classes would be generated at import time; lattice
                # algebra is toric's integer Hermite form
                assert top not in ("dataclasses", "fractions"), (path.name, name)


def test_importing_the_command_line_loads_neither_dataclasses_nor_inspect(cli_child_env):
    probe = ("import sys, kvar.cli; "
             "print(sorted({'dataclasses', 'inspect', 'fractions'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=cli_child_env("0"), timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def _nodes(expr):
    """Every node of an expression tree, the root first."""
    out = [expr]
    for node in out:
        out += getattr(node, "args", ())
    return out


def test_equal_expression_nodes_hash_alike_and_their_fields_are_frozen():
    text = "2*P1 - Gm + Bl(P2;pt)*(A1 + pt)"
    rels = standard_relations()
    nodes, again = _nodes(parse_expr(text, rels)), _nodes(parse_expr(text, rels))
    assert {type(n).__name__ for n in nodes} == {"Sum", "Prod", "Lit", "Gen", "SquareTerm"}
    for node, twin in zip(nodes, again):
        assert node is not twin and node == twin and hash(node) == hash(twin)
        assert copy.deepcopy(node) == node == pickle.loads(pickle.dumps(node))
        field = node.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(node, field, None)
        with pytest.raises(AttributeError):
            delattr(node, field)
    assert nodes[0] != parse_expr("2*P1 - Gm") and nodes[-1] != nodes[-2]


@pytest.mark.parametrize("build, text", [
    (lambda: parse_expr("2*P1 - Gm"),
     "Sum(args=(Prod(args=(Lit(value=2), Gen(name='P1'))), Gen(name='Gm')), signs=(1, -1))"),
    (lambda: parse_expr("E(P2;pt)", standard_relations()), "SquareTerm(head='E', x='P2', c='pt', relation_index=2)"),
    (lambda: builtin_info("P3"), "GenInfo(name='P3', dim=3, compact=True)"),
    (lambda: MeasureSpec("point_count", q=3), "MeasureSpec(selector='point_count', q=3)"),
    (lambda: Record("a", "eval", "pass"),
     "Record(id='a', kind='eval', status='pass', lhs=None, rhs=None, note='', seconds=0.0)"),
    (lambda: Report({"command": "eval"}), "Report(header={'command': 'eval'}, records=[])"),
    (lambda: RunConfig("check"),
     "RunConfig(command='check', expression=None, relations_path=None, suite_path=None, "
     "fan_path=None, measure_names=['euler', 'e'], corpus_seed=None, corpus_size=None, "
     "depth=3, out_format='text', out_path=None, fan_ops=[])"),
    (lambda: star_subdivide(builtin_fan("P2"), (1, 1)),
     "StarSubdivision(fan=Fan(rank=2, cones=9), parent=Fan(rank=2, cones=7), "
     "center=Cone((0, 1), (1, 0)), new_ray=(1, 1), smooth_blowup=True)"),
], ids=["sum", "square term", "generator info", "measure", "record", "report", "config",
        "star subdivision"])
def test_a_plain_class_prints_as_its_dataclass_did(build, text):
    assert repr(build()) == text


def test_a_measure_spec_is_validated_when_built():
    for selector, q, match in [("nope", None, "unknown measure selector 'nope'"),
                               ("point_count", None, "needs an integer q"),
                               ("euler", 2, "takes no q")]:
        with pytest.raises(MeasureError, match=match):
            MeasureSpec(selector, q)
    assert MeasureSpec("point_count", 2) == MeasureSpec("point_count", q=2) != MeasureSpec("euler")
    assert hash(MeasureSpec("e_poly")) == hash(MeasureSpec("e_poly"))
    with pytest.raises(AttributeError):
        MeasureSpec("euler").q = 2


def test_no_two_instances_share_a_default_list():
    a, b = RunConfig("check"), RunConfig("check")
    assert a == b and a.measure_names is not b.measure_names and a.fan_ops is not b.fan_ops
    a.measure_names.append("chi")
    assert b.measure_names == ["euler", "e"] and a != b
    assert Report({}).records is not Report({}).records
    first, second = corpus.Corpus(1, 0), corpus.Corpus(1, 0)
    assert all(getattr(first, name) is not getattr(second, name)
                for name in first.__slots__[2:])


def _imported_names(tree):
    """Name -> line of every name a module binds by import, __future__ aside."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    """Names a module reads: in code, in quoted annotations and in __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                forward = ast.parse(node.value, mode="eval")  # e.g. "Optional[Fan]"
                used.update(n.id for n in ast.walk(forward) if isinstance(n, ast.Name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_kvar_modules_use_every_name_they_import():
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        used = _used_names(tree)
        unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
        assert not unused, (path.name, unused)


# every def under src/kvar that none of the reach map's runs reaches, dunders
# aside, with what keeps it
NO_COMMAND_REACHES = {
    "cli._ArgumentParser.error":
        "argparse calls it on a usage error, which the reach map's runs do not make; "
        "test_exit_code_contract and the argv property in test_cli.py do",
    "cli.Report.to_json_text":
        "perfbench's worker serialises a report through it and times it",
    "kring.expr_size":
        "perfbench counts the nodes of each eval tree with it",
    "spansite.SimpleCover.depth":
        "the height of a cover's tree of squares, printed by its repr; the c_complete "
        "tests read it as the number of square steps of the cover found",
}


def _named_in(path):
    """Every identifier a file names: in code, as an import, or as a string
    (``perfbench/tracing.py`` patches functions by name)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _defined_in(path, methods):
    """The top-level functions and classes a module defines, or, with
    ``methods``, the methods and properties of its classes."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if not methods and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if methods and isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body if isinstance(item, ast.FunctionDef))


def _without_a_caller(methods):
    callers = [path for folder in ("src", "demos", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(callers) > len(SOURCES)
    named = {name for path in callers for name in _named_in(path)}
    exempt = set(kvar.__all__) | {q.rpartition(".")[2] for q in NO_COMMAND_REACHES}
    return [(path.name, name) for path in SOURCES for name in _defined_in(path, methods)
            if not name.startswith("_") and name not in named and name not in exempt]


def test_every_public_top_level_name_has_a_caller():
    assert not _without_a_caller(methods=False)


def test_every_public_method_has_a_caller():
    assert not _without_a_caller(methods=True)


def test_only_toric_reaches_what_a_fan_keeps():
    # other modules keep their fan data through toric.kept
    assert "toric.py" in {path.name for path in SOURCES}
    for path in SOURCES:
        if path.name == "toric.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        named = [node.lineno for node in ast.walk(tree)
                 if (isinstance(node, ast.Attribute) and node.attr == "_flags")
                 or (isinstance(node, ast.Constant) and node.value == "_flags")]
        assert not named, (path.name, named)


def test_no_module_holds_a_site_object_span_or_square():
    # one held at module level is shared by every run in the process, so a
    # run that renames or rebases it changes it for the next
    for path in SOURCES:
        module = importlib.import_module(
            "kvar" if path.stem == "__init__" else f"kvar.{path.stem}")
        held = [name for name, value in vars(module).items()
                if isinstance(value, (SiteObject, SpanMorphism, DistinguishedSquare))]
        assert not held, (path.name, held)


@pytest.mark.parametrize("load, error", [(Fan.from_json, ToricError),
                                         (RelationSet.from_json, InvalidRelationError)])
@pytest.mark.parametrize("text", ["{", "[" * 100000], ids=["not JSON", "nested too deeply"])
def test_json_text_that_does_not_decode_is_a_typed_error(load, error, text):
    with pytest.raises(error, match="not JSON"):
        load(text)


# Runs every command of the reach map in one process under sys.setprofile
# and prints the (file, first line, name) of each function it called.  The
# first line of a decorated function is that of its first decorator.
REACH_CHILD = """
import contextlib, io, json, os, runpy, sys
called = set()
def note(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)
sys.setprofile(note)
from kvar import cli
runs, demos = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in runs:
        cli.main(argv)
    for demo in demos:
        runpy.run_path(demo, run_name="__main__")
sys.setprofile(None)
root = os.path.dirname(cli.__file__)
print(json.dumps([(os.path.basename(c.co_filename), c.co_firstlineno, c.co_name)
                  for c in called if os.path.dirname(c.co_filename) == root]))
"""


def _reached(tmp_path, env):
    """What a fresh process reaches: the size-10 battery, the suite fixture,
    a suite over Hirzebruch(2) and over A2, whose fan is not complete,
    README's evals, a relation file, two fan files (the second a rank-3
    torus), a parse error, a class with a coefficient too long to print and
    the demos.  A fresh process starts with empty
    intern tables and kept fans."""
    relations = tmp_path / "relations.json"
    relations.write_text(json.dumps([  # an axiom-checked relation over builtins
        {"kind": "open", "slots": {"X": "P1", "U": "A1", "complement": "pt"}},
        {"kind": "generator", "name": "S", "dim": 2, "compact": True}]))
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"rank": 2, "rays": [[1, 0], [0, 1]], "maximal_cones": [[0, 1]]}))
    torus = tmp_path / "torus.json"
    torus.write_text(json.dumps({"rank": 3, "rays": [], "maximal_cones": [], "dense_torus": True}))
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"checks": [
        {"kind": "additivity", "object": "Hirzebruch(2)", "window": [[0, 1]]},
        {"kind": "additivity", "object": "A2", "window": []},
        {"kind": "blowup_descent", "object": "A2", "ray": [1, 1]}]}))
    runs = [["check", "--corpus-seed", "1", "--corpus-size", "10", "--format", "json"],
            ["check", "--suite", str(ROOT / "tests" / "fixtures" / "perturbed_suite.json")],
            ["check", "--suite", str(suite)],
            ["eval", "P2 - pt", "--measure", "euler", "--measure", "e"],
            ["eval", "Bl(P2;pt)", "--measure", "e"],
            ["eval", "S + P1", "--relations", str(relations)],
            ["fan", str(fan), "--props", "--class", "--complete"],
            ["fan", str(torus), "--complete"],
            ["eval", "P2 + $"],
            ["eval", "9" * 2200 + "*" + "9" * 2200]]
    demos = [str(path) for path in sorted((ROOT / "demos").glob("*.py"))]
    proc = subprocess.run([sys.executable, "-c", REACH_CHILD, json.dumps([runs, demos])],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {tuple(key) for key in json.loads(proc.stdout)}


def _defs():
    """(qualified name, (file, first line, name)) of every def under src/kvar."""
    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = (child.decorator_list or [child])[0].lineno
                yield prefix + child.name, (path.name, first, child.name)
                yield from walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, path, f"{prefix}{child.name}.")
            else:
                yield from walk(child, path, prefix)
    for path in SOURCES:
        yield from walk(ast.parse(path.read_text(), str(path)), path, f"{path.stem}.")


def test_a_command_reaches_every_function_or_a_reason_keeps_it(tmp_path, cli_child_env):
    reached = _reached(tmp_path, cli_child_env("0"))
    defs = list(_defs())
    assert len(reached) > len(defs) // 2
    unreached = {name for name, key in defs if key not in reached
                 and not (key[2].startswith("__") and key[2].endswith("__"))}
    assert sorted(unreached - NO_COMMAND_REACHES.keys()) == []  # reach it or delete it
    assert sorted(NO_COMMAND_REACHES.keys() - unreached) == []  # reached, or gone
    assert all(NO_COMMAND_REACHES.values())
