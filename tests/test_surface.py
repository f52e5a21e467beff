"""The package's surface: `__all__` names each public object once, and no
function, class or method of `src/joinspectra` is there only for the tests.

A definition counts as reached when its name appears, as a word, somewhere
in the package's modules outside its own definition; `__init__.py` does not
count, since a re-export calls nothing.  Constructors and queries that only
tests use belong in `tests/helpers.py`."""

import ast
import re
from pathlib import Path

import joinspectra

PACKAGE = Path(joinspectra.__file__).parent

# public entry points that no package code calls: the two input loaders and
# the paper's main eigenvalues
KEPT = {"load_graph", "load_join_spec", "main_poles"}


def definitions(tree: ast.Module):
    """(name, node) of every top-level function and class and every non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member


def test_all_names_resolve_once():
    names = joinspectra.__all__
    assert len(set(names)) == len(names), sorted(n for n in set(names) if names.count(n) > 1)
    for name in names:
        assert hasattr(joinspectra, name), name


def test_every_definition_is_reached_from_the_package():
    sources = {path.name: path.read_text().splitlines() for path in sorted(PACKAGE.glob("*.py"))}
    unreached, defined = [], set()
    for module, lines in sources.items():
        for qualname, node in definitions(ast.parse("\n".join(lines))):
            name = qualname.rpartition(".")[2]
            defined.add(name)
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            word = re.compile(rf"\b{re.escape(name)}\b")
            elsewhere = (
                text[: first - 1] + text[node.end_lineno :] if other == module else text
                for other, text in sources.items()
                if other != "__init__.py"
            )
            if not any(word.search(line) for text in elsewhere for line in text) and name not in KEPT:
                unreached.append(f"{module}: {qualname}")
    assert unreached == []
    assert KEPT <= defined
