"""The brute-force oracles compute with integers only.

Their arithmetic is exact with zero tolerance: Python ints and int64
arrays under stated bounds.  This test reads the source of oracle.py and
fails if a floating-point path could come back unnoticed: a name float,
float64 or fmod, a true division, or a numpy array constructor that would
default to float64 because it gives no dtype.
"""

import ast
from pathlib import Path

ORACLE = Path(__file__).resolve().parent.parent / "src" / "arborium" / "oracle.py"

FLOAT_NAMES = {"float", "float64", "fmod"}
CONSTRUCTORS = {"ones", "zeros", "empty", "eye", "identity", "full"}


def _float_paths(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in FLOAT_NAMES:
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_NAMES:
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias) and node.name in FLOAT_NAMES:
            yield node.name, node.lineno
        elif isinstance(node, ast.Constant) and node.value in FLOAT_NAMES:
            yield node.value, node.lineno
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield "/", node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in CONSTRUCTORS
              and not any(k.arg == "dtype" for k in node.keywords)):
            yield f"{node.func.attr} without dtype", node.lineno


def test_oracle_has_no_float_path():
    assert list(_float_paths(ast.parse(ORACLE.read_text(), str(ORACLE)))) == []


def test_the_check_sees_float_paths():
    source = """
import numpy as np
from math import fmod

def census(n, k):
    a = np.ones(n)
    b = np.zeros(n, dtype=np.float64)
    c = np.eye(k, dtype="float64")
    a /= 2
    return float(n / k), a.astype(float), np.ones(n, dtype=np.int64)
"""
    assert sorted(_float_paths(ast.parse(source))) == [
        ("/", 9), ("/", 10), ("float", 10), ("float", 10), ("float64", 7),
        ("float64", 8), ("fmod", 3), ("ones without dtype", 6)]
