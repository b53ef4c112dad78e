"""Every library definition is used somewhere.

A module-level function, class or name bound by assignment (all but
`__all__`), or a public method, must be referenced by code in `src/t2mc` or
`bench/*.py`: as a name read, an attribute, an imported name or module, or
a part of a dotted string constant such as "Matrix.rref" (how
`bench/tracer.py` names what it wraps).  Binding a name is not a use, and
neither is prose: a mention in a docstring or comment keeps nothing alive,
and a definition referenced only by tests is dead code.  The same holds for
every name `t2mc.__all__` exports; the re-export in `t2mc/__init__.py` is
not a use.
"""

import ast
import re
from pathlib import Path

import t2mc

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "t2mc").glob("*.py"))
SEARCHED = ([path for path in SOURCES if path.name != "__init__.py"]
            + sorted((ROOT / "bench").glob("*.py")))
DOTTED = re.compile(r"\w+(\.\w+)*")


def _definitions():
    """(qualified name, bare name) of every checked definition."""
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, node.name
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                for name in ast.walk(ast.Tuple(targets)):
                    if isinstance(name, ast.Name) and name.id != "__all__":
                        yield name.id, name.id
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item.name


def _references(tree):
    """The bare names that the code of a module refers to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                         ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from node.module.split(".")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            yield from node.value.split(".")


def _unused():
    """Whether nothing in the searched code refers to each bare name."""
    refs = set()
    for path in SEARCHED:
        refs.update(_references(ast.parse(path.read_text())))
    return lambda name: name not in refs


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
