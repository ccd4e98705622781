"""Each rule has one owner: no module of the package imports or reads
another module's single-underscore name."""

import ast
from pathlib import Path

import korobov

PACKAGE = Path(korobov.__file__).resolve().parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_crossings(source: str, module: str) -> list[str]:
    """``module:line name`` for every private name of another package
    module that ``source`` imports (``from .x import _y``) or reads
    (``x._y``, with x bound to a package module by an import)."""
    tree = ast.parse(source)
    modules, sites = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(
                (a.asname or a.name).split(".")[0] for a in node.names if a.name.split(".")[0] == "korobov"
            )
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "korobov"):
            for alias in node.names:
                if _private(alias.name):
                    sites.append((node.lineno, f"{node.module or ''}.{alias.name}"))
                elif node.module in (None, "korobov"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                sites.append((node.lineno, ast.unparse(node)))
    return [f"{module}:{line} {name}" for line, name in sorted(sites)]


def test_no_module_crosses_into_another_modules_private_names():
    sites = [
        site
        for path in sorted(PACKAGE.glob("*.py"))
        for site in private_crossings(path.read_text(encoding="utf-8"), path.stem)
    ]
    assert sites == []


def test_guard_flags_private_imports_and_reads():
    source = "\n".join(
        [
            "from . import search",
            "from .bounds import _exp_or_inf, exp_or_inf",
            "import korobov.wce",
            "search._general_block(1, 2, 3)",
            "korobov.wce._fold_terms",
            "search.general_vectors, self._x, search.__name__",
        ]
    )
    assert private_crossings(source, "cli") == [
        "cli:2 bounds._exp_or_inf",
        "cli:4 search._general_block",
        "cli:5 korobov.wce._fold_terms",
    ]
