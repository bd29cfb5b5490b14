"""No dead public API: every public ``def`` / ``class`` in ``src/`` is
named somewhere besides its own definition -- in the package, its
tests, ``perf/``, ``benchmarks/``, ``examples/`` or ``docs/``.

A name counts as used when it occurs as a word more often than it is
defined (``lookup`` is defined by several engines and called by the
table).  A package ``__init__.py`` that only imports a name and lists
it in ``__all__`` does not use it.  Console-script entry points are called by the installer, so
they are allowlisted by name.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ("src", "tests", "perf", "benchmarks", "examples", "docs")

#: The ``[project.scripts]`` targets of ``pyproject.toml``.
ENTRY_POINTS = frozenset({"main", "rp4bc_main", "rp4fc_main"})


def _public_definitions():
    defined = Counter()
    where = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                defined[node.name] += 1
                where.setdefault(
                    node.name, f"{path.relative_to(ROOT)}:{node.lineno}"
                )
    return defined, where


def _reexports_removed(text):
    """A package ``__init__`` without its import statements and its
    ``__all__`` list: re-exporting a name is not using it."""
    lines = text.splitlines()
    for node in ast.parse(text).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        ):
            lines[node.lineno - 1:node.end_lineno] = [""] * (
                node.end_lineno - node.lineno + 1
            )
    return "\n".join(lines)


def _word_counts():
    words = Counter()
    for top in CORPUS:
        for path in (ROOT / top).rglob("*"):
            if path.suffix in (".py", ".md") and path != Path(__file__).resolve():
                text = path.read_text()
                if path.name == "__init__.py":
                    text = _reexports_removed(text)
                words.update(re.findall(r"\w+", text))
    return words


def test_entry_point_allowlist_names_the_console_scripts():
    scripts = (ROOT / "pyproject.toml").read_text()
    for name in ENTRY_POINTS:
        assert re.search(rf":{name}\"", scripts), name


def test_every_public_name_is_used_outside_its_definition():
    defined, where = _public_definitions()
    words = _word_counts()
    dead = sorted(
        f"{name} ({where[name]})"
        for name, count in defined.items()
        if words[name] <= count and name not in ENTRY_POINTS
    )
    assert dead == []
