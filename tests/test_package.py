"""The package itself: kvar imports nothing outside the standard library."""

import ast
import pathlib
import sys

import kvar

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
