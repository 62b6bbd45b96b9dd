"""Import layering and namespaces of src/arborium, read off the source with ast.

Two rules keep the oracles independent of what they check and keep each
module's private helpers private:

* oracle.py imports nothing from invariants, crosscheck, verify or cli, and
  invariants.py imports nothing from oracle, so a recursion can never
  silently become its own oracle, nor an oracle its recursion;
* no module reads another package module's _private name, by
  ``from .m import _name`` or by ``m._name`` on an imported module ``m``.

Two more keep one binding per public name, in its defining module:

* __init__.py imports nothing and binds only dunder names;
* no module defines __all__.

Two keep numpy off the verify and compute paths, with one place that loads it:

* only oracle.py imports numpy, and only at module level;
* cli.py imports crosscheck (and so oracle) only inside a function.

One keeps the polynomial representation in the kernel:

* no module but algebra.py reads or writes a ._nums or ._den attribute, so
  other modules reach a MultiPoly's terms through poly_numerators and
  poly_from_counts.

And one keeps the package to what the program runs:

* every public module-level definition is referenced from another place in
  the package, save the functions that the per-layer metrics of
  perfbench/tracing.py time by name.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "arborium"

FORBIDDEN = {
    "oracle": {"invariants", "crosscheck", "verify", "cli"},
    "invariants": {"oracle"},
}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _private(name):
    return name.startswith("_") and not _dunder(name)


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


def namespace_faults(name, source):
    """Every breach of the two namespace rules in the source of package
    module name ("__init__" for the package itself)."""
    faults = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if name == "__init__":
                faults.append(f"{name}:{node.lineno} imports")
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound = node.id
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = node.name
        else:
            continue
        if bound == "__all__":
            faults.append(f"{name}:{node.lineno} defines __all__")
        elif name == "__init__" and not _dunder(bound):
            faults.append(f"{name}:{node.lineno} binds {bound}")
    return faults


def _in_functions(tree):
    """Ids of the nodes that lie inside a function body."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inside.update(id(sub) for sub in ast.walk(node) if sub is not node)
    return inside


def import_placement_faults(name, source):
    """Every breach of the two numpy rules in the source of package module name."""
    tree = ast.parse(source)
    inside = _in_functions(tree)
    faults = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy = any(a.name.split(".")[0] == "numpy" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            numpy = node.level == 0 and (node.module or "").split(".")[0] == "numpy"
        else:
            continue
        if numpy and name != "oracle":
            faults.append(f"{name}:{node.lineno} imports numpy")
        elif numpy and id(node) in inside:
            faults.append(f"{name}:{node.lineno} imports numpy inside a function")
        if name == "cli" and id(node) not in inside and any(
                module == "crosscheck" for module, _, _ in _imports(node)):
            faults.append(f"{name}:{node.lineno} imports crosscheck at module level")
    return faults


def representation_faults(name, source):
    """Every access to a ._nums or ._den attribute in the source of package
    module name, unless name is algebra."""
    if name == "algebra":
        return []
    return [f"{name}:{node.lineno} {'reads' if isinstance(node.ctx, ast.Load) else 'writes'} "
            f".{node.attr}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in ("_nums", "_den")]


def test_the_polynomial_representation_stays_in_the_kernel():
    faults = []
    for path in sorted(PACKAGE.glob("*.py")):
        faults += representation_faults(path.stem, path.read_text())
    assert faults == []


def test_the_check_sees_representation_faults():
    source = """
from .algebra import poly_numerators

def scale(p, q):
    nums, den = poly_numerators(p, "X")
    q._den = den
    return p._nums, len(q.terms._poly._nums), nums, q.den, q._numerators
"""
    assert sorted(representation_faults("invariants", source)) == [
        "invariants:6 writes ._den", "invariants:7 reads ._nums", "invariants:7 reads ._nums"]
    assert representation_faults("algebra", source) == []


def test_the_package_keeps_its_layering():
    faults = []
    for path in sorted(PACKAGE.glob("*.py")):
        faults += layering_faults(path.stem, path.read_text())
    assert faults == []


def test_the_check_sees_layering_faults():
    oracle_source = """
from collections import Counter
from .algebra import MultiPoly, _key
from .invariants import k_poly
from . import verify as v
import arborium.cli as front

def census(window):
    return v._helper(window), front.main, MultiPoly.__name__
"""
    assert sorted(layering_faults("oracle", oracle_source)) == [
        "oracle:3 imports algebra._key", "oracle:4 imports from invariants",
        "oracle:5 imports from verify", "oracle:6 imports from cli",
        "oracle:9 reads verify._helper"]
    crosscheck_source = """
from arborium.invariants import _k_step
from arborium import oracle
from . import invariants

def check(window, P):
    return invariants._k_step(window), oracle._BLOCK, P._private
"""
    assert sorted(layering_faults("crosscheck", crosscheck_source)) == [
        "crosscheck:2 imports invariants._k_step",
        "crosscheck:7 reads invariants._k_step", "crosscheck:7 reads oracle._BLOCK"]
    assert layering_faults("invariants", "from .oracle import k_oracle\n") == [
        "invariants:1 imports from oracle"]


def test_numpy_loads_through_one_import():
    faults = []
    for path in sorted(PACKAGE.glob("*.py")):
        faults += import_placement_faults(path.stem, path.read_text())
    assert faults == []


def test_the_check_sees_import_placement_faults():
    oracle_source = """
import numpy as np

def census(P):
    import numpy
    from numpy.linalg import solve
    return np, numpy, solve
"""
    assert import_placement_faults("oracle", oracle_source) == [
        "oracle:5 imports numpy inside a function", "oracle:6 imports numpy inside a function"]
    assert sorted(import_placement_faults("invariants", "import numpy.linalg\n"
                                          "from numpy import int64\n")) == [
        "invariants:1 imports numpy", "invariants:2 imports numpy"]
    cli_source = """
from .crosscheck import cross_check
from . import crosscheck, verify
import arborium.crosscheck as cc
if cc:
    from arborium.crosscheck import corpus_check

def cmd_oracle_check(args):
    from .crosscheck import check_point_limit
    return check_point_limit
"""
    assert sorted(import_placement_faults("cli", cli_source)) == [
        "cli:2 imports crosscheck at module level", "cli:3 imports crosscheck at module level",
        "cli:4 imports crosscheck at module level", "cli:6 imports crosscheck at module level"]


def test_each_public_name_has_one_binding():
    faults = []
    for path in sorted(PACKAGE.glob("*.py")):
        faults += namespace_faults(path.stem, path.read_text())
    assert faults == []


def test_the_check_sees_namespace_faults():
    init_source = """
\"\"\"Docstring.\"\"\"
from .algebra import MultiPoly
import arborium.oracle
__version__ = "0.1.0"
VERSION = __version__
def main():
    return 0
__all__ = ["main"]
"""
    assert sorted(namespace_faults("__init__", init_source)) == [
        "__init__:3 imports", "__init__:4 imports", "__init__:6 binds VERSION",
        "__init__:7 binds main", "__init__:9 defines __all__"]
    assert sorted(namespace_faults("invariants", "from .algebra import MultiPoly\n"
                                   "__all__ = []\n__all__ += ['k_poly']\n")) == [
        "invariants:2 defines __all__", "invariants:3 defines __all__"]
    assert namespace_faults("algebra", "def f():\n    __all__ = 1\n    return __all__\n") == [
        "algebra:2 defines __all__"]


def _definitions(tree):
    """{name: node} of the public module-level functions, classes and
    assigned names."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defs.update((name, node) for name in names if not name.startswith("_"))
    return defs


def unreferenced_definitions(sources, exempt=frozenset()):
    """The (module, name) of every public module-level definition in sources,
    {module name: source}, that no other place reads and that exempt, a set
    of (module, name), does not hold.  A read is a load of the name in its
    module outside its own definition, an import of it with ``from``, or an
    attribute read ``m.name`` on an imported module ``m``."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    defs = {(module, name): node for module, tree in trees.items()
            for name, node in _definitions(tree).items()}
    read = set()
    for module, tree in trees.items():
        read.update((source, name) for source, name, _ in _imports(tree) if name is not None)
        modules = _module_names(tree)
        inside = {}
        for (owner, name), node in defs.items():
            if owner == module:
                inside.update((id(sub), name) for sub in ast.walk(node))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and inside.get(id(node)) != node.id):
                read.add((module, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                read.add((modules[node.value.id], node.attr))
    return sorted(defs.keys() - read - exempt)


def _timed_by_name():
    """The (layer, function name) pairs that the per-layer metrics of
    perfbench/tracing.py read, as PER_LAYER lists them."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return frozenset((source[0], name) for _, _, kind, source, _ in tracing.PER_LAYER
                     if kind in ("self", "calls") for name in source[1])


def test_every_public_definition_is_read_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_definitions(sources, _timed_by_name()) == []


def test_the_check_sees_unreferenced_definitions():
    sources = {
        "algebra": """
LIMIT = 3
TABLE, _HIDDEN = {}, 1

class Poly:
    pass

def helper(p):
    return helper(p) if p else Poly()

def used_by_attribute():
    return LIMIT
""",
        "oracle": """
from .algebra import TABLE as table
from . import algebra

def census(t):
    return table, algebra.used_by_attribute()

def timed(t):
    return t

def orphan(t):
    return orphan
""",
    }
    assert unreferenced_definitions(sources) == [
        ("algebra", "helper"), ("oracle", "census"), ("oracle", "orphan"), ("oracle", "timed")]
    exempt = frozenset({("oracle", "timed"), ("oracle", "census"), ("algebra", "orphan")})
    assert unreferenced_definitions(sources, exempt) == [
        ("algebra", "helper"), ("oracle", "orphan")]
