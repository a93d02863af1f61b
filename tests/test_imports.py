"""Every import in the package, the tests and the tools is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src/matnorm", "tests", "tools")


def _names(node: ast.AST) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list:
    """(line, name) of each name an import in ``source`` binds that nothing reads.

    A name is read when the module names it anywhere, in a string annotation
    or in ``__all__``.  An import whose first line is marked ``# noqa: F401``
    binds on purpose and is skipped.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    read = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and "__all__" in _names(node.targets[0]):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        # an argument's or assignment's annotation, a function's return one
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for const in ast.walk(annotation) if annotation else ():
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    read |= _names(ast.parse(const.value, mode="eval"))
    return [(line, name) for line, name in bound if name not in read]


def test_the_check_reads_names_annotations_all_and_noqa():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "from a import B, C, D, E  # comment\n"
        "from b import F  # noqa: F401\n"
        "from c import G, H\n"
        "__all__ = ['G']\n"
        "def f(x: 'B | None') -> 'list[C]':\n"
        "    y: 'D' = x\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(2, "osp"), (3, "E"), (5, "H")]


def test_every_import_is_used():
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for folder in CHECKED
        for path in sorted((ROOT / folder).glob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert unused == []
