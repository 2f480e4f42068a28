"""Package surface tests."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import relaysim


def test_every_export_resolves():
    # A name left in __all__ after its definition is deleted breaks
    # `from relaysim import *`; fail here instead.
    assert [name for name in relaysim.__all__ if not hasattr(relaysim, name)] == []
    assert len(set(relaysim.__all__)) == len(relaysim.__all__)


def test_every_module_uses_what_it_imports():
    # An import left behind by a deletion hides that the deletion is not
    # finished. __init__ imports to re-export; an import statement marked
    # `# noqa: F401` is kept on purpose (a binding patched by name).
    unused = []
    for path in sorted(Path(relaysim.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines, tree = source.splitlines(), ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(
                    node, "module", None) == "__future__" or any(
                    "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            unused += [f"{path.name}:{node.lineno}: {name}" for name in (
                (alias.asname or alias.name).split(".")[0] for alias in node.names)
                if name not in used]
    assert unused == []


def test_a_replay_loads_neither_the_cli_nor_the_kernels():
    # Only the command line imports relaysim.cli (and argparse), and the
    # solvers import kernels when called, so a process that only runs or
    # replays does not pay for compiling or loading them.
    src = str(Path(relaysim.__file__).parents[1])
    code = ("import sys, relaysim.engine, relaysim.io; "
            "print(sorted({'argparse', 'relaysim.cli', 'relaysim.kernels'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
