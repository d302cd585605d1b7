"""The package's names that others rely on: the README's export list and
examples, and the functions the benchmark tracer wraps."""

import argparse
import importlib
import importlib.util
import re
from pathlib import Path

import x1torsion
from x1torsion.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TRACING = ROOT / "bench" / "tracing.py"


def test_readme_lists_exactly_the_exports():
    text = README.read_text(encoding="utf-8")
    head = re.search(r"The package exports (\d+) names \(`x1torsion.__all__`\):\n", text)
    assert head, "README is missing the export-list sentence"
    bullets = text[head.end():].split("\n\n")[0]
    listed = re.findall(r"`(\w+)`", bullets)
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(listed) == set(x1torsion.__all__)
    assert int(head.group(1)) == len(x1torsion.__all__)


def test_readme_library_examples_run(monkeypatch, capsys):
    # the blocks share one namespace, in order, as a reader would run them
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks
    monkeypatch.chdir(ROOT)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out == "True\n"


def test_readme_names_exactly_each_commands_options():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = {head: set(re.findall(r"--[a-z][a-z-]*", body))
             for head, body in re.findall(r"^### (\w+)\n(.*?)(?=^### |\Z)", section, re.S | re.M)}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
               for name, parser in sub.choices.items()}
    assert named == options


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
