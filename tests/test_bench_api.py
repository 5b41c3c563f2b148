"""The benchmark's view of the library API.

The scripts under bench/ import readmit and read or wrap its attributes.
A rename in the library breaks them, and bench/smoke.py, which runs them,
takes about a minute. This test parses them instead: every name a script
imports from readmit, every attribute it reads from such a name, and every
attribute it names as a string next to one (as ``tracing.install`` does
when it wraps ``textproc.split_sentences``) must exist.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SCRIPTS = sorted(BENCH.glob("*.py"))


def _readmit_names(tree):
    """Local name -> the readmit module or object it is bound to, for every
    import from readmit anywhere in the script."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "readmit":
                    names[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "readmit":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def _uses(tree, names):
    """(local name, attribute) for each attribute the script reads from a
    readmit name, or passes as a string constant right after one."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in names):
            yield node.value.id, node.attr
        elif isinstance(node, ast.Call):
            for owner, attr in zip(node.args, node.args[1:]):
                if (isinstance(owner, ast.Name) and owner.id in names
                        and isinstance(attr, ast.Constant) and isinstance(attr.value, str)):
                    yield owner.id, attr.value


def test_bench_scripts_found():
    assert {"run.py", "workloads.py", "tracing.py"} <= {p.name for p in SCRIPTS}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_bench_reads_only_existing_readmit_names(script):
    tree = ast.parse(script.read_text(encoding="utf-8"), filename=str(script))
    names = _readmit_names(tree)
    missing = sorted({f"{name}.{attr}" for name, attr in _uses(tree, names)
                      if not hasattr(names[name], attr)})
    assert not missing, f"{script.name} reads {missing}, which readmit does not have"
