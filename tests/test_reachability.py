"""Every function, class and method of the package is reached from the package,
and ``errors.integer`` is the one integer check.

The scan parses each module of ``src/eulerpart`` and lists the module-level
functions and classes and the methods of those classes whose name no
``Name`` or ``Attribute`` node of the package references.  ``__init__.py``
only re-exports, so its references do not count, and dunder methods are
called by Python itself.  A name that only tests reach is dead code, so
the scan must find none.

The second scan lists every module other than ``errors`` that names
``numbers.Integral`` or raises an error whose message says "must be an
integer": such a module checks integers itself instead of calling
``errors.integer``.  Docstrings are not raised, so they do not count.

The third scan lists every module that imports ``jsonschema`` or
``referencing``, at any depth: documents are checked by the schemas
compiled in ``jsonio``, and ``jsonschema`` is a test dependency only.

The fourth scan lists every attribute read ``x._name`` in a module that
does not define ``_name`` while another module does: a module reads no
other module's private names.  A definition is a ``def``, a class, an
assignment (a dataclass field included) or an assignment to
``self._name``.

The fifth scan lists every field of a dataclass or ``NamedTuple`` of the
package whose name no attribute read ``x.name`` names, in the package
outside ``__init__`` or in the benchmark: a record field that nothing
reads is dead data.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eulerpart"

def unreferenced(sources: dict[str, str]) -> set[str]:
    """``module.name`` or ``module.Class.method`` of every definition in
    ``sources`` (module name -> source) that no reference outside
    ``__init__`` names."""
    defined, referenced = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        defined[f"{module}.{node.name}.{member.name}"] = member.name
        if module != "__init__":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
    return {
        where for where, name in defined.items()
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    }


def test_only_the_allowed_names_are_unreferenced():
    # the allow-list is empty: every name in the package has a reader
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert "complexes" in sources and "__init__" in sources
    assert unreferenced(sources) == set()


def test_the_scan_reports_an_unreferenced_def():
    sources = {
        "__init__": "from .mod import used, unused, Box\n",
        "mod": (
            "def used():\n    return Box().size\n\n"
            "def unused():\n    return used()\n\n"
            "class Box:\n"
            "    def __init__(self):\n        self.n = 1\n\n"
            "    @property\n    def size(self):\n        return self.n\n\n"
            "    def spare(self):\n        return 0\n"
        ),
    }
    assert unreferenced(sources) == {"mod.unused", "mod.Box.spare"}


def own_integer_checks(sources: dict[str, str]) -> set[str]:
    """Modules of ``sources`` other than ``errors`` that check integers
    themselves: they name ``Integral`` or raise a "must be an integer"
    message."""
    found = set()
    for module, source in sources.items():
        if module == "errors":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise):
                texts = [n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
                if any("must be an integer" in text for text in texts):
                    found.add(module)
            # a Name's id, an Attribute's attr or an imported alias's name
            elif "Integral" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
                found.add(module)
    return found


def test_errors_integer_is_the_one_integer_check():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert "Integral" in sources["errors"]
    assert own_integer_checks(sources) == set()


def test_the_scan_reports_a_private_integer_check():
    sources = {
        "errors": "import numbers\n\ndef integer(v, what):\n    return isinstance(v, numbers.Integral)\n",
        "doc": 'def f(m):\n    """m must be an integer."""\n    return m\n',
        "attr": "import numbers\n\ndef f(v):\n    return isinstance(v, numbers.Integral)\n",
        "imported": "from numbers import Integral\n",
        "message": 'def f(v, what):\n    raise ValueError(f"{what} must be an integer, got {v!r}")\n',
    }
    assert own_integer_checks(sources) == {"attr", "imported", "message"}


#: test-only packages: the oracle for the compiled schema checks
TEST_ONLY = {"jsonschema", "referencing"}


def importers_of_test_only(sources: dict[str, str]) -> set[str]:
    """Modules of ``sources`` that import a package of ``TEST_ONLY``."""
    found = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] in TEST_ONLY for name in names):
                found.add(module)
    return found


def test_no_module_imports_jsonschema_or_referencing():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert importers_of_test_only(sources) == set()


def test_the_scan_reports_an_import_of_jsonschema():
    sources = {
        "top": "import jsonschema\n",
        "nested": "def f():\n    import jsonschema.exceptions\n",
        "from": "from referencing import Registry\n",
        "relative": "from .referencing import x\n",
        "named": 'NAME = "jsonschema"\n',
    }
    assert importers_of_test_only(sources) == {"top", "nested", "from"}


def private_definitions(tree: ast.Module) -> set[str]:
    """The private names a module defines: its defs and classes, the
    targets of its assignments and its ``self._name`` assignments."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", None) or [node.target]:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
                    elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id == "self":
                        names.add(sub.attr)
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


def foreign_private_reads(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) of every ``x._name`` read in a module of ``sources``
    where ``_name`` is defined in another module and not in this one."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {module: private_definitions(tree) for module, tree in trees.items()}
    found = set()
    for module, tree in trees.items():
        elsewhere = set().union(*(names for other, names in defined.items() if other != module))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node.attr in elsewhere and node.attr not in defined[module]):
                found.add((module, node.attr))
    return found


def test_no_module_reads_another_modules_private_names():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert foreign_private_reads(sources) == set()


def test_the_scan_reports_a_read_of_another_modules_private_name():
    sources = {
        "owner": (
            "_TABLE = {}\n\n"
            "def _helper():\n    return 0\n\n"
            "class Box:\n"
            "    _field: int = 0\n\n"
            "    def __init__(self):\n        self._cache = None\n\n"
            "    def size(self):\n        return self._cache\n"
        ),
        "reader": (
            "import owner\n\n"
            "def f(box):\n"
            "    return owner._TABLE, owner._helper(), box._field, box._cache, box.__dict__\n"
        ),
        "own": "def _helper():\n    return 1\n\ndef g(m):\n    return m._helper()\n",
        "writer": "def h(box):\n    box._cache = 1\n",
    }
    assert foreign_private_reads(sources) == {
        ("reader", "_TABLE"), ("reader", "_helper"), ("reader", "_field"), ("reader", "_cache"),
    }


def record_fields(tree: ast.Module) -> dict[str, str]:
    """``Class.field`` -> field name of every annotated field of the
    module's dataclasses and ``NamedTuple`` classes."""
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        named = {getattr(n, "id", None) or getattr(n, "attr", None) for n in decorators + node.bases}
        if named & {"dataclass", "NamedTuple"}:
            for member in node.body:
                if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    found[f"{node.name}.{member.target.id}"] = member.target.id
    return found


def unread_fields(sources: dict[str, str], readers: dict[str, str]) -> set[str]:
    """``module.Class.field`` of every record field defined in ``sources``
    (module name -> source) that no attribute load reads, in a module of
    ``sources`` other than ``__init__`` or in ``readers``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {
        f"{module}.{where}": name
        for module, tree in trees.items() for where, name in record_fields(tree).items()
    }
    reading = [tree for module, tree in trees.items() if module != "__init__"]
    reading += [ast.parse(source) for source in readers.values()]
    read = {
        node.attr for tree in reading for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return {where for where, name in defined.items() if name not in read}


def test_every_record_field_is_read():
    # the benchmark hashes every field of a chi-sigma report through
    # ``dataclasses.asdict``, so these two are read without an attribute
    # load; deleting them would change the benchmark's digests
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    bench = {path.stem: path.read_text(encoding="utf-8") for path in (ROOT / "perfbench").glob("*.py")}
    assert "partition" in sources and "workloads" in bench
    assert unread_fields(sources, bench) == {
        "partition.ChiSigmaReport.chi_surface", "partition.ChiSigmaReport.domain_chis",
    }


def test_the_scan_reports_an_unread_field():
    sources = {
        "__init__": "from .mod import Box, Pair, Plain\n",
        "mod": (
            "from dataclasses import dataclass\n"
            "from typing import NamedTuple\n\n"
            "@dataclass(frozen=True)\n"
            "class Box:\n    size: int\n    spare: int\n\n"
            "@dataclass\n"
            "class Plain:\n    kept: int\n    written: int\n\n"
            "class Pair(NamedTuple):\n    left: int\n    right: int\n\n"
            "class Other:\n    note: int\n\n"
            "def f(box, plain):\n"
            "    plain.written = box.size\n"
            "    return plain.kept\n"
        ),
    }
    bench = {"bench": "def g(pair):\n    return pair.left\n"}
    assert unread_fields(sources, bench) == {"mod.Box.spare", "mod.Plain.written", "mod.Pair.right"}
    assert unread_fields(sources, {}) == {"mod.Box.spare", "mod.Plain.written", "mod.Pair.left", "mod.Pair.right"}
