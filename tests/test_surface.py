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


def test_every_public_name_is_used_by_the_package():
    # A name counts as used if it appears as a word anywhere in src/sawlab
    # outside its own definition and outside __init__.py, which only
    # re-exports. A function or class that only the tests call fails.
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    unused = set()
    for module, text in sources.items():
        lines = text.splitlines(keepends=True)
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            rest = "".join(lines[:first - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{node.name}\b")
            others = (t for m, t in sources.items() if m != module)
            if not any(word.search(t) for t in (rest, *others)):
                unused.add(node.name)
    assert unused == set(UNUSED_BY_THE_PACKAGE)


def test_readme_library_example_prints_its_comment():
    library = (ROOT / "README.md").read_text().split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    expected = re.search(r"^print\(.*\)\s+# (.+)$", block, re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue() == expected + "\n"
