"""The package's names that others rely on: the README's export list and
the functions the benchmark tracer wraps."""

import importlib
import importlib.util
import re
from pathlib import Path

import x1torsion

README = Path(__file__).resolve().parents[1] / "README.md"
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_readme_lists_exactly_the_exports():
    text = README.read_text(encoding="utf-8")
    head = re.search(r"The package exports (\d+) names \(`x1torsion.__all__`\):\n", text)
    assert head, "README is missing the export-list sentence"
    bullets = text[head.end():].split("\n\n")[0]
    listed = re.findall(r"`(\w+)`", bullets)
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(listed) == set(x1torsion.__all__)
    assert int(head.group(1)) == len(x1torsion.__all__)


def test_tracer_targets_resolve():
    # bench/tracing.py patches these by name; a missing one breaks --trace
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = {**tracing.SPANS, **tracing.COUNTED}
    assert targets
    for span, (module, attr) in targets.items():
        owner = importlib.import_module(f"x1torsion.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{span}: x1torsion.{module}.{attr} is missing"
        assert callable(owner), span
