"""Standing rules on the source of the package, read with `ast`."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tetradgeom"


def definitions(tree):
    """(name, node) for each public top-level function, class, class
    method and module constant, less the `@check` functions, which the
    registry runs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            decorators = [d.func for d in node.decorator_list if isinstance(d, ast.Call)]
            if not any(isinstance(d, ast.Name) and d.id == "check" for d in decorators):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def reads(node):
    """The names a node reads: as a name, an attribute, or a string."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def test_every_public_name_is_read_elsewhere_in_the_package():
    # the design rule: no dead or test-only names in the package.  A name
    # is read when some node outside its own definition reads it
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    read = Counter(name for tree in trees.values() for name in reads(tree))
    unread = [
        f"{module}.{name}"
        for module, tree in sorted(trees.items())
        for name, node in definitions(tree)
        if not name.startswith("_") and read[name] == Counter(reads(node))[name]
    ]
    assert unread == []
