"""No function in the package calls itself by name.

Deep arbors must not reach Python's recursion limit, so every tree walk is
iterative.  The depth tests exercise a few walks; this one reads the source
of every function, method and nested function.  A call through super() is
another class's method, not recursion.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "arborium").glob("*.py"))


def _self_calls(tree):
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                yield fn.name, call.lineno
            elif (isinstance(f, ast.Attribute) and f.attr == fn.name
                  and not (isinstance(f.value, ast.Call) and isinstance(f.value.func, ast.Name)
                           and f.value.func.id == "super")):
                yield fn.name, call.lineno


def test_the_sources_are_found():
    assert {path.name for path in SOURCES} >= {"arbor.py", "invariants.py", "oracle.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_function_calls_itself(path):
    assert list(_self_calls(ast.parse(path.read_text(), str(path)))) == []


def test_the_check_sees_recursion():
    source = """
def plain(n):
    return plain(n - 1)

class A:
    def walk(self):
        return self.walk()

    def __init__(self):
        super().__init__()

def outer():
    def inner(k):
        return inner(k)
    return inner
"""
    assert sorted(_self_calls(ast.parse(source))) == [("inner", 14), ("plain", 3), ("walk", 7)]
