"""The package's exports and the README's list of public building blocks
must name things that exist."""

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
