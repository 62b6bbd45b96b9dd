"""Import layering of src/arborium, read off the source with ast.

Two rules keep the oracles independent of what they check and keep each
module's private helpers private:

* oracle.py imports nothing from invariants, crosscheck, verify or cli, and
  invariants.py imports nothing from oracle, so a recursion can never
  silently become its own oracle, nor an oracle its recursion;
* no module reads another package module's _private name, by
  ``from .m import _name`` or by ``m._name`` on an imported module ``m``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arborium"

FORBIDDEN = {
    "oracle": {"invariants", "crosscheck", "verify", "cli"},
    "invariants": {"oracle"},
}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node):
    """The package module that an ImportFrom names ("" for the package
    itself), or None if it imports from outside the package."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "arborium":
        return node.module.partition(".")[2]
    return None


def _imports(tree):
    """(package module imported, name read from it, line), with name None
    for a whole module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "arborium" and rest:
                    yield rest, None, node.lineno
        elif isinstance(node, ast.ImportFrom):
            module = _package_module(node)
            if module == "":
                for alias in node.names:
                    yield alias.name, None, node.lineno
            elif module is not None:
                for alias in node.names:
                    yield module, alias.name, node.lineno


def _module_names(tree):
    """The local names bound to a package module: {local name: module}."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "arborium" and rest and alias.asname:
                    names[alias.asname] = rest
        elif isinstance(node, ast.ImportFrom) and _package_module(node) == "":
            for alias in node.names:
                names[alias.asname or alias.name] = alias.name
    return names


def layering_faults(name, source):
    """Every breach of the two rules in the source of package module name."""
    tree = ast.parse(source)
    faults = []
    for module, imported, line in _imports(tree):
        if module in FORBIDDEN.get(name, ()):
            faults.append(f"{name}:{line} imports from {module}")
        if imported is not None and _private(imported):
            faults.append(f"{name}:{line} imports {module}.{imported}")
    modules = _module_names(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            faults.append(f"{name}:{node.lineno} reads {modules[node.value.id]}.{node.attr}")
    return faults


def test_the_package_keeps_its_layering():
    faults = []
    for path in sorted(PACKAGE.glob("*.py")):
        faults += layering_faults(path.stem, path.read_text())
    assert faults == []


def test_the_check_sees_layering_faults():
    oracle_source = """
from collections import Counter
from .algebra import MultiPoly, _pack
from .invariants import k_poly
from . import verify as v
import arborium.cli as front

def census(window):
    return v._helper(window), front.main, MultiPoly.__name__
"""
    assert sorted(layering_faults("oracle", oracle_source)) == [
        "oracle:3 imports algebra._pack", "oracle:4 imports from invariants",
        "oracle:5 imports from verify", "oracle:6 imports from cli",
        "oracle:9 reads verify._helper"]
    crosscheck_source = """
from arborium.invariants import _laurent_volume
from arborium import oracle
from . import invariants

def check(window, P):
    return invariants._laurent_volume(window), oracle._BLOCK, P._private
"""
    assert sorted(layering_faults("crosscheck", crosscheck_source)) == [
        "crosscheck:2 imports invariants._laurent_volume",
        "crosscheck:7 reads invariants._laurent_volume", "crosscheck:7 reads oracle._BLOCK"]
    assert layering_faults("invariants", "from .oracle import k_oracle\n") == [
        "invariants:1 imports from oracle"]
