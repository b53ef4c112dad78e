"""Every library definition is used somewhere.

A module-level function or class, or a public method, must be named in
`src/t2mc` or `bench/*.py` somewhere other than its own `def`/`class` line
(a call, a reference, or a mention in a docstring); otherwise nothing runs
it and it is dead code.  The same holds for every name `t2mc.__all__`
exports; the re-export in `t2mc/__init__.py` is not a use.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import t2mc

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "t2mc").glob("*.py"))
SEARCHED = ([path for path in SOURCES if path.name != "__init__.py"]
            + sorted((ROOT / "bench").glob("*.py")))


def _definitions():
    """(qualified name, bare name) of every checked definition."""
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item.name


def _unused():
    """Whether each bare name appears only on its own def/class lines."""
    words, defined = Counter(), Counter()
    for path in SEARCHED:
        text = path.read_text()
        words.update(re.findall(r"\w+", text))
        defined.update(re.findall(r"\b(?:def|class)\s+(\w+)", text))
    return lambda name: words[name] == defined[name]


def test_every_unexported_definition_is_used():
    unused = _unused()
    exported = set(t2mc.__all__)
    dead = sorted(qualified for qualified, name in _definitions()
                  if qualified not in exported and unused(name))
    assert not dead, f"nothing uses {dead}"


def test_every_exported_name_is_used():
    unused = _unused()
    dead = sorted(name for name in t2mc.__all__ if unused(name))
    assert not dead, f"nothing uses {dead}"
