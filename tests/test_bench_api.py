"""The benchmark's view of the library API.

The scripts under bench/ import readmit and read or wrap its attributes.
A rename in the library breaks them, and bench/smoke.py, which runs them,
takes about a minute. This test parses them instead: every name a script
imports from readmit, every attribute it reads from such a name, and every
attribute it names as a string next to one (as ``tracing.install`` does
when it wraps ``textproc.split_sentences``) must exist, and every keyword
argument a script passes to a readmit callable must be one of its parameters.
"""

import ast
import importlib
import inspect
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


def _keyword_calls(tree, names):
    """(called name as written, readmit callable, keyword names) for each call
    of a readmit name, or of an attribute read from one, that passes keywords."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        keywords = [k.arg for k in node.keywords if k.arg is not None]
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            called, obj = func.id, names[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in names and hasattr(names[func.value.id], func.attr)):
            called, obj = f"{func.value.id}.{func.attr}", getattr(names[func.value.id], func.attr)
        else:
            continue
        if keywords:
            yield called, obj, keywords


def test_bench_scripts_found():
    assert {"run.py", "workloads.py", "tracing.py"} <= {p.name for p in SCRIPTS}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_bench_reads_only_existing_readmit_names(script):
    tree = ast.parse(script.read_text(encoding="utf-8"), filename=str(script))
    names = _readmit_names(tree)
    missing = sorted({f"{name}.{attr}" for name, attr in _uses(tree, names)
                      if not hasattr(names[name], attr)})
    assert not missing, f"{script.name} reads {missing}, which readmit does not have"


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_bench_passes_only_existing_keyword_arguments(script):
    tree = ast.parse(script.read_text(encoding="utf-8"), filename=str(script))
    wrong = []
    for called, obj, keywords in _keyword_calls(tree, _readmit_names(tree)):
        try:
            inspect.signature(obj).bind_partial(**dict.fromkeys(keywords))
        except TypeError as e:
            wrong.append(f"{called}: {e}")
    assert not wrong, f"{script.name} passes keyword arguments readmit does not take: {wrong}"


def test_no_readmit_attribute_is_a_wrapper():
    # bench/run.py counts any readmit attribute carrying ``__wrapped__``
    # (functools.wraps, cache, lru_cache) as a tracer wrap, and bench/smoke.py
    # then fails its untraced run.
    import pkgutil

    import readmit
    from readmit.classifiers import TrainedClassifier
    owners = [(info.name, importlib.import_module(info.name))
              for info in pkgutil.walk_packages(readmit.__path__, "readmit.")]
    owners += [("readmit", readmit), ("readmit.classifiers.TrainedClassifier", TrainedClassifier)]
    wrapped = sorted(f"{name}.{attr}" for name, owner in owners
                     for attr, obj in vars(owner).items()
                     if hasattr(obj, "__wrapped__") and not attr.startswith("__"))
    assert wrapped == []
