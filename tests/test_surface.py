"""The library's public surface is what the program runs.

Every public top-level def or class in src/cubepack must be used by another
package module, by the benchmark in perfbench/, or by its own module outside
its definition.  A re-export in the package's __init__ is not a use.  A name
only the tests call belongs in tests/helpers.py or nowhere; the few kept on
purpose are listed with their reasons.  Likewise some call in the package
or in perfbench/ must pass each option of a public def, a parameter with a
default whose name is not private.  Every private top-level def or class
must be read by some package module outside its definition, so a helper a
deletion leaves behind fails here.  No module imports a name it never reads.
Every annotated field of a top-level class must be read as an attribute by
a package module, by perfbench/ or by the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cubepack"

KEPT_FOR_TESTS = {
    ("model", "loads"): "completes the JSON I/O pair with dumps",
    ("model", "save_file"): "completes the JSON I/O pair with load_file",
    ("census", "replay_is_positive"):
        "the brute-force order tests check the step rule _positive_cubes through it",
}


def _used_names(tree, skip=None):
    """Identifiers a module reads: names, attributes and imported names,
    outside the subtree skip."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return used


def _definitions(tree, private=False):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private]


def _package_trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def _unread_definitions(private=False, outside=frozenset()):
    """(module, name) of each public, or private, top-level def or class
    that neither outside nor a package module reads outside its
    definition."""
    trees = _package_trees()
    unread = []
    for module, tree in trees.items():
        read = set(outside)
        for other, other_tree in trees.items():
            if other not in (module, "__init__"):
                read |= _used_names(other_tree)
        unread += [(module, node.name)
                   for node in _definitions(tree, private)
                   if node.name not in read | _used_names(tree, node)]
    return unread


def test_every_public_name_has_a_caller_outside_the_tests():
    bench = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        bench |= _used_names(ast.parse(path.read_text()))
    unused = [name for name in _unread_definitions(outside=bench)
              if name not in KEPT_FOR_TESTS]
    assert unused == []


def test_every_private_name_is_read_in_the_package():
    assert _unread_definitions(private=True) == []


def _unread_imports(tree):
    """Names a module imports but never reads."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        unread += [name for name in names if name not in read]
    return unread


def test_no_module_imports_a_name_it_never_reads():
    # the package __init__ imports to re-export, so it is not checked
    unread = {module: names
              for module, tree in _package_trees().items()
              if module != "__init__" and (names := _unread_imports(tree))}
    assert unread == {}


KEPT_OPTIONS = {
    ("census", "cube_expansion", "return_records"):
        "the tests pin the expansion's terminal records",
    ("census", "replay_is_positive", "order"):
        "an option of a name kept for the tests: the brute-force order "
        "tests replay each permutation through it",
    ("model", "save_file", "indent"): "an option of a name kept for the tests",
}


def _options(tree):
    """(def node, parameter, position) of each option of a public top-level
    def: a parameter with a default whose name is not private.  position is
    None for a keyword-only parameter."""
    for node in _definitions(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        first = len(args.args) - len(args.defaults)
        options = [(a, i) for i, a in enumerate(args.args) if i >= first]
        options += [(a, None) for a, d in zip(args.kwonlyargs,
                                              args.kw_defaults) if d]
        for arg, index in options:
            if not arg.arg.startswith("_"):
                yield node, arg.arg, index


def _passes(tree, name, param, index, skip):
    """Whether some call of name in tree, outside the subtree skip, passes
    param: by keyword, at position index, or through *args or **kwargs."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        stack.extend(ast.iter_child_nodes(node))
        if not (isinstance(node, ast.Call) and name == getattr(
                node.func, "id", getattr(node.func, "attr", None))):
            continue
        if any(k.arg in (None, param) for k in node.keywords):
            return True
        if index is not None and (
                index < len(node.args)
                or any(isinstance(a, ast.Starred) for a in node.args)):
            return True
    return False


def test_every_option_has_a_caller_outside_the_tests():
    # an option only the tests pass is dead weight in the program
    trees = _package_trees()
    everywhere = [*trees.values(),
                  *(ast.parse(path.read_text())
                    for path in sorted((ROOT / "perfbench").glob("*.py")))]
    unpassed = [(module, node.name, param)
                for module, tree in trees.items()
                for node, param, index in _options(tree)
                if not any(_passes(t, node.name, param, index, node)
                           for t in everywhere)]
    assert sorted(unpassed) == sorted(KEPT_OPTIONS)


def _fields(tree):
    """(class, field) of each annotated field of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    yield node.name, stmt.target.id


def test_every_field_is_read():
    # a field nothing reads is state every constructor fills for no one
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
             *(ROOT / "tests").glob("*.py")]
    read = {node.attr
            for path in sorted(paths)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = [(module, cls, field)
              for module, tree in _package_trees().items()
              for cls, field in _fields(tree) if field not in read]
    assert unread == []
