"""The package runs on the standard library alone."""

import ast
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "dimerkit")


def _absolute_imports(path):
    tree = ast.parse(open(path, encoding="utf-8").read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_imports_are_stdlib_or_dimerkit():
    files = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    assert "__init__.py" in files
    foreign = [
        f"{name}:{line}: {module}"
        for name in files
        for line, module in _absolute_imports(os.path.join(SRC, name))
        if module.split(".")[0] not in sys.stdlib_module_names | {"dimerkit"}
    ]
    assert not foreign


def test_cold_import_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, and each of its
    # decorations execs generated source; every CLI call pays for the cold
    # import of the package
    assert not [
        f"{name}:{line}"
        for name in sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
        for line, module in _absolute_imports(os.path.join(SRC, name))
        if module.split(".")[0] == "dataclasses"
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    code = (
        "import dimerkit, dimerkit.cli, sys; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
