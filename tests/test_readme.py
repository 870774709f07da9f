"""The README names only what the package has, and the package exports
only what its code uses or the README names."""

import ast
import importlib
import os
import re
import types

import dimerkit
from dimerkit.cli import _COMMANDS

README = os.path.join(os.path.dirname(__file__), "..", "README.md")

# a backticked lowercase snake_case name, alone or called: `name` or `name(...`
SNAKE = re.compile(r"`([a-z][a-z0-9]*(?:_[a-z0-9]+)+)[`(]")
# a backticked dotted path into the package
DOTTED = re.compile(r"`(dimerkit(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")


def _resolve(path):
    """The object at a dotted path: the longest importable module prefix,
    then attributes."""
    parts = path.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ModuleNotFoundError:
            continue
        for name in parts[k:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(path)


def _readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_readme_names_resolve():
    text = _readme()
    names = sorted(set(SNAKE.findall(text)))
    assert names
    assert [n for n in names if not hasattr(dimerkit, n)] == []


def test_readme_paths_resolve():
    text = _readme()
    paths = sorted(set(DOTTED.findall(text)))
    assert "dimerkit.lattice" in paths
    missing = []
    for path in paths:
        try:
            _resolve(path)
        except (AttributeError, ModuleNotFoundError):
            missing.append(path)
    assert missing == []


# an identifier inside a one-line backticked span
SPAN = re.compile(r"`([^`\n]+)`")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _package_references():
    """Every name package code outside ``__init__.py`` refers to: AST
    ``Name`` ids, ``Attribute`` attributes and imported names."""
    src = os.path.dirname(dimerkit.__file__)
    seen = set()
    for fname in os.listdir(src):
        if not fname.endswith(".py") or fname == "__init__.py":
            continue
        with open(os.path.join(src, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.alias):
                seen.add(node.name)
    return seen


def test_exports_are_used_or_documented():
    # a public name that no package code uses and the README does not name
    # belongs in the tests, not the package
    documented = {
        name for span in SPAN.findall(_readme()) for name in IDENT.findall(span)
    }
    used = _package_references()
    exported = [
        name
        for name in dimerkit.__all__
        if not isinstance(getattr(dimerkit, name), types.ModuleType)
    ]
    assert [n for n in exported if n not in used and n not in documented] == []


def test_readme_lists_every_command():
    # the rows of the subcommand table under "Command-line usage", in order
    text = _readme()
    section = text[text.index("## Command-line usage"):]
    section = section[:section.index("\n## ")]
    rows = re.findall(r"^\| `([a-z-]+)` +\|", section, re.MULTILINE)
    assert rows == [name for name, _, _, _ in _COMMANDS]


def test_readme_lists_the_validation_checks():
    # pipeline step 1 names validate_model's checks, in order
    step = re.search(r"^1\. \*\*Tiling\*\*(.*?)^2\. ", _readme(), re.S | re.M)
    listed = re.search(r"guard everything downstream:(.*?)\.", step[1], re.S)[1]
    names = [" ".join(n.split()) for n in listed.split(",")]
    report = dimerkit.validate_model(dimerkit.example("conifold"))
    assert names == [c.name for c in report.checks]
