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


#: the guards of `certificates.py` that still pass no field, by message,
#: each f-string field written as {}
BARE_GUARDS = (
    "Gram entry ({},{}) wrong",
    "line-weight class {} is not a group orbit",
    "quadric is not orbit2 + orbit4",
    "basis change is not involutory",
    "weight-4 vectors are not the direction sign pairs",
    "alt-weight-1 vectors are not the even family",
    "unit point does not lie on 8 distinct lines",
    "direction pair count wrong",
    "C2 triplet count wrong",
    "not all tetrad pairs covered",
    "ennead does not have nine cells",
    "ennead cell size wrong",
    "ennead cell is not a coset of the intersection",
)


def message(node) -> str:
    """A guard's message as written, each f-string field as {}."""
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}"
                       for v in node.values)
    return ast.literal_eval(node)


def test_every_guard_says_where_it_failed():
    # a guard is a `require` call or a `CheckFailed` raise; it says where
    # by at least one field, a keyword or **where.  Only the listed bare
    # guards pass none, so a new bare guard fails here, and a listed one
    # given a field leaves the list
    tree = ast.parse((SRC / "certificates.py").read_text())
    bare = [
        message(node.args[node.func.id == "require"])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("require", "CheckFailed") and not node.keywords
    ]
    assert sorted(bare) == sorted(BARE_GUARDS)
