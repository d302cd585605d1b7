"""The README's export list matches the package's __all__."""

import re
from pathlib import Path

import x1torsion

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_exactly_the_exports():
    text = README.read_text(encoding="utf-8")
    head = re.search(r"The package exports (\d+) names \(`x1torsion.__all__`\):\n", text)
    assert head, "README is missing the export-list sentence"
    bullets = text[head.end():].split("\n\n")[0]
    listed = re.findall(r"`(\w+)`", bullets)
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(listed) == set(x1torsion.__all__)
    assert int(head.group(1)) == len(x1torsion.__all__)
