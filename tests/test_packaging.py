"""Packaging metadata: every declared console script resolves, and every
name the benchmark's tracer wraps exists."""

import importlib
import sys
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_console_scripts_resolve():
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_benchmark_tracer_targets_resolve():
    """Every name the benchmark's traced runs wrap still exists: installing
    the tracer looks each one up and fails on a missing name."""
    perfbench = str(PYPROJECT.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import tracer
    finally:
        sys.path.remove(perfbench)
    trace = tracer.Tracer()
    try:
        trace.install()
    finally:
        trace.uninstall()
