"""src/emocast keeps no public helper that nothing uses: every public
top-level function or class is named somewhere else in the package (a call,
a reference, an annotation) or documented in README.md."""

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "emocast"


def test_every_public_definition_is_used_or_documented():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    defined = {
        node.name: module
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    unused = sorted(
        f"{module}: {name}"
        for name, module in defined.items()
        if name not in named and not re.search(rf"\b{name}\b", readme)
    )
    assert not unused, f"public names that nothing in src/emocast uses and README does not document: {unused}"
