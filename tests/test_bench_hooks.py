"""The traced benchmark pass (perfbench/tracer.py) wraps plshoot
attributes looked up by name; a refactor that renames one breaks the
traced pass, and nothing else would notice before a benchmark run."""

import importlib
import pathlib
import types

from plshoot.shoot import InverseProfile, Trajectory

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # executed from its source text, so no bytecode cache is written
    # next to it
    mod = types.ModuleType("perfbench_tracer")
    mod.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         mod.__dict__)
    return mod


def test_function_hook_points_exist():
    patches = _load_tracer().FUNCTION_PATCHES
    assert patches
    missing = [(module, attr) for _, module, attr in patches
               if attr not in importlib.import_module(module).__dict__]
    assert missing == []


def test_method_hook_points_exist():
    assert "eval" in Trajectory.__dict__
    assert "t_of_s" in InverseProfile.__dict__
