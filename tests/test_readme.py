"""The README names only what the package has."""

import importlib
import os
import re

import dimerkit

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
