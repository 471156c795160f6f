"""README's Layout block names exactly the modules of the package.

A module added, deleted or moved without the README following would leave
the layout describing code that is not there; this keeps the two in step.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _layout_modules():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Layout", 1)[1].split("```")[1]
    return sorted(re.findall(r"^  (\S+\.py)\s", block, flags=re.MULTILINE))


def test_readme_layout_names_every_module():
    modules = sorted(p.name for p in (ROOT / "src" / "tropmean").glob("*.py"))
    assert _layout_modules() == modules
