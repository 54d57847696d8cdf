"""The package API that the benchmark's own files call. bench/child.py and
bench/rows.py import hanoikernel from the checkout under test, so a renamed
or moved function, or a dropped argument, would first show as a crashed
benchmark run; these tests make it a tier-1 failure instead."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import hanoikernel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.dirname(os.path.dirname(hanoikernel.__file__))


def package_bindings(tree):
    """Each name bound by a `from hanoikernel... import` in the file, at any
    depth, mapped to the object it names."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hanoikernel"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    target = getattr(module, alias.name)
                else:
                    target = importlib.import_module(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = target
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("hanoikernel") for a in node.names)
    return bound


def resolve(node, bound):
    """The package object an expression names, `name` or `module.attr`, or
    None when it names none; a missing attribute fails the test."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        base = bound.get(node.value.id)
        if inspect.ismodule(base):
            assert hasattr(base, node.attr), f"{base.__name__}.{node.attr} is gone"
            return getattr(base, node.attr)
    return None


@pytest.mark.parametrize("name", ["child.py", "rows.py"])
def test_benchmark_files_name_only_what_the_package_has(name):
    """Every package name the file uses resolves, and every call of a
    package function or class binds to its signature: the same number of
    positional arguments and the same keywords."""
    with open(os.path.join(BENCH, name)) as handle:
        tree = ast.parse(handle.read())
    bound = package_bindings(tree)
    assert bound
    resolved = set()
    for node in ast.walk(tree):
        target = resolve(node, bound)
        if target is not None:
            resolved.add(getattr(target, "__qualname__", getattr(target, "__name__", "")))
        if isinstance(node, ast.Call) and callable(target := resolve(node.func, bound)):
            args = [None for a in node.args if not isinstance(a, ast.Starred)]
            kwargs = {k.arg: None for k in node.keywords if k.arg is not None}
            inspect.signature(target).bind(*args, **kwargs)
    expected = {
        "child.py": {"build_quotient", "Perm", "main"},
        "rows.py": {
            "build_quotient", "PermGroup", "Perm", "tau_power", "word_states",
            "evaluate", "leaf_permutation", "to_dot", "level1_stabilizer_space",
            "h_subspace", "solve", "consistency_check", "verify_lemma",
        },
    }[name]
    assert expected <= resolved


def test_benchmark_cold_lemma_row_passes(tmp_path):
    """bench/rows.py's cold row for one lemma, run as the benchmark runs it
    on this source tree: one timed row, and every check true."""
    row = "analysis.lemma.selfsim_s"
    result = subprocess.run(
        [sys.executable, os.path.join(BENCH, "rows.py"), "cold", row],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert list(out["rows"]) == [row] and out["rows"][row] > 0
    assert out["checks"] == {row: True}
