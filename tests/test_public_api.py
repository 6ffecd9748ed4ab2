"""The package's exports and the README's list of public building blocks
must name things that exist, and the modules import nothing they leave
unused."""

import ast
import re
from pathlib import Path

import ckcenter

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_resolves():
    missing = [name for name in ckcenter.__all__ if not hasattr(ckcenter, name)]
    assert missing == []
    assert len(set(ckcenter.__all__)) == len(ckcenter.__all__)


def test_readme_building_blocks_are_importable():
    text = README.read_text(encoding="utf-8")
    start = text.index("The building blocks are all public")
    paragraph = text[start : text.index("\n\n", start)]
    names = re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", paragraph)
    assert len(names) > 10
    missing = [name for name in names if not hasattr(ckcenter, name)]
    assert missing == []


def test_modules_import_only_names_they_use():
    # __init__.py imports names to re-export them, so it is left out
    unused = {}
    for path in sorted((Path(ckcenter.__file__).parent).glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}
