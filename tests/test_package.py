"""The package itself: kvar imports only the standard library and only
names it uses, each public top-level name has a caller, and its JSON
loaders end bad text in their typed errors."""

import ast
import pathlib
import sys

import pytest

import kvar
from kvar.kring import InvalidRelationError, RelationSet
from kvar.measures import MeasureError, registrations_from_json
from kvar.toric import Fan, ToricError

SOURCES = sorted(pathlib.Path(kvar.__file__).parent.glob("*.py"))


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


# public API that no caller in the repository reads: the measures that
# README lists beside euler and e, and the documented registration loader
NO_CALLER_NEEDED = {"point_count_measure", "virtual_poincare_measure",
                    "registrations_from_json"}


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
    root = pathlib.Path(__file__).resolve().parent.parent
    callers = [path for folder in ("src", "demos", "perfbench")
               for path in sorted((root / folder).rglob("*.py"))]
    assert len(callers) > len(SOURCES)
    named = {name for path in callers for name in _named_in(path)}
    exempt = set(kvar.__all__) | NO_CALLER_NEEDED
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


@pytest.mark.parametrize("load, error", [(Fan.from_json, ToricError),
                                         (RelationSet.from_json, InvalidRelationError),
                                         (registrations_from_json, MeasureError)])
@pytest.mark.parametrize("text", ["{", "[" * 100000], ids=["not JSON", "nested too deeply"])
def test_json_text_that_does_not_decode_is_a_typed_error(load, error, text):
    with pytest.raises(error, match="not JSON"):
        load(text)
