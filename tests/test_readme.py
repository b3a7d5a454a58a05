"""README.md names every public name of the package."""

import re
from pathlib import Path

import charblocks

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_names_every_public_name():
    text = README.read_text(encoding="utf-8")
    assert [name for name in charblocks.__all__ if not re.search(rf"\b{name}\b", text)] == []
