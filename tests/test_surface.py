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
    "compute_r": "r is the constant of the graph height function definition on "
                 "quasi-transitive graphs; `verify` is to print it next to d "
                 "(ROADMAP item 5)",
    "check_multiplicativity": "`bounds` is to call it once it takes the best lower bound "
                              "over every n (ROADMAP item 1)",
}


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


def test_readme_library_example_prints_its_comment():
    library = (ROOT / "README.md").read_text().split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    expected = re.search(r"^print\(.*\)\s+# (.+)$", block, re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue() == expected + "\n"
