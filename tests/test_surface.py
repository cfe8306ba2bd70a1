"""The public surface: every public name of the package has a use in the
package itself, and README's library example runs as documented."""

import ast
import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sawlab"

# Public names that nothing in the package uses yet, each with its reason.
UNUSED_BY_THE_PACKAGE = {
    "check_multiplicativity": "`bounds` is to call it once it takes the best lower bound "
                              "over every n (ROADMAP item 1)",
}

# The package's modules in import order: each imports only modules
# before it. `__init__` re-exports them all.
LAYERS = ("_linalg", "graphs", "presentations", "heights", "saw", "locality", "cli")


def _references(node: ast.AST) -> set:
    """The names `node` refers to in code: variables, attributes and
    imports. Docstrings, comments and strings are not code."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in sub.names)
    return names


def test_every_public_name_is_used_by_the_package():
    # A name counts as used if code in src/sawlab refers to it outside its
    # own definition and outside __init__.py, which only re-exports. A
    # function or class that only the tests call fails.
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    statements = [(node, _references(node)) for tree in trees for node in tree.body]
    unused = {
        node.name for node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and not any(node.name in names for other, names in statements if other is not node)
    }
    assert unused == set(UNUSED_BY_THE_PACKAGE)


def _own_imports(node: ast.AST) -> set:
    """The package modules an import statement names, relatively or by
    the absolute name `sawlab.<module>`."""
    if isinstance(node, ast.ImportFrom):
        if node.level and node.module:  # from .graphs import ball
            return {node.module}
        if node.level or node.module == "sawlab":  # from . import graphs
            return {alias.name for alias in node.names}
        names = [node.module or ""]
    else:
        names = [alias.name for alias in node.names]
    return {name.split(".")[1] for name in names if name.startswith("sawlab.")}


def test_imports_are_at_module_level_and_follow_the_layers():
    paths = sorted(SRC.glob("*.py"))
    assert {p.stem for p in paths} == {"__init__", *LAYERS}
    for path in paths:
        tree = ast.parse(path.read_text())
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        nested = [node.lineno for node in imports if node not in tree.body]
        assert nested == [], f"{path.name}: imports below module level at lines {nested}"
        if path.stem == "__init__":
            continue
        earlier = set(LAYERS[:LAYERS.index(path.stem)])
        later = set().union(*map(_own_imports, imports)) - earlier
        assert later == set(), f"{path.name} imports {sorted(later)}, not before it in {LAYERS}"


def test_readme_library_example_prints_its_comment():
    library = (ROOT / "README.md").read_text().split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    expected = re.search(r"^print\(.*\)\s+# (.+)$", block, re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue() == expected + "\n"
