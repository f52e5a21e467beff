"""The package's surface: `__all__` names each public object once, and no
function, class or method of `src/joinspectra` is there only for the tests.

A definition counts as reached when the package's own code names it outside
that definition: a top-level function or class through a `Name` or an import
alias, a method through an `Attribute`.  An attribute of a module imported
from outside the package (`np.identity`) does not count, nor does a word in a
docstring, comment or message.  `__init__.py` does not count either, since a
re-export calls nothing.  Constructors and queries that only tests use belong
in `tests/helpers.py`."""

import ast
from pathlib import Path

import joinspectra

PACKAGE = Path(joinspectra.__file__).parent

# public entry points that no package code calls: the two input loaders and
# the paper's main eigenvalues
KEPT = {"load_graph", "load_join_spec", "main_poles"}


def definitions(tree: ast.Module):
    """(qualified name, is a method, node) of every top-level function and
    class and every non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, False, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", True, member


def references(tree: ast.Module):
    """(line, identifier, is an attribute) of every name the module's code uses."""
    outside = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id, False
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name, False
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in outside):
                yield node.lineno, node.attr, True


def test_all_names_resolve_once():
    names = joinspectra.__all__
    assert len(set(names)) == len(names), sorted(n for n in set(names) if names.count(n) > 1)
    for name in names:
        assert hasattr(joinspectra, name), name


def test_every_definition_is_reached_from_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    uses = {module: list(references(tree)) for module, tree in trees.items() if module != "__init__.py"}
    unreached, defined = [], set()
    for module, tree in trees.items():
        for qualname, is_method, node in definitions(tree):
            name = qualname.rpartition(".")[2]
            defined.add(name)
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            reached = any(
                ident == name
                and is_attribute == is_method
                and not (other == module and first <= line <= node.end_lineno)
                for other, refs in uses.items()
                for line, ident, is_attribute in refs
            )
            if not reached and name not in KEPT:
                unreached.append(f"{module}: {qualname}")
    assert unreached == []
    assert KEPT <= defined
